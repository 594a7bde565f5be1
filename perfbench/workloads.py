"""The benchmark's workloads: two `pinwheel verify` commands and the json-queries stream.

Each verify point puts a different layer first: faces, chains and strata
(threeway), cyclotomic arithmetic (nonempty).  Each runs for about a second,
so a run holds over fifteen of them and reports their mean.  Left out:
the larger points threeway(3,4) at 5-7 s and nonempty(4,3) at 4-5 s, whose
runs hold too few units for a steady figure; the points beyond the default
caps, threeway(2,5) at 26.5 s, threeway(4,4) at 17.5 s and
equivariance(2,4) at 161 s, which do not fit the 22 runs per workload that
a comparison takes; and the equivariance suite altogether, whose one point
between 0.3 s and 11-15 s, (2,3), did not fit that time next to the three
workloads here.  The group layer it leads is measured by json-queries,
through coset elements, act_on_tuple and GenPerm.from_json.
"""

# Arguments after `pinwheel verify`, exactly as a user types them.
VERIFY_ARGS = {
    "threeway-r2n4": ["--r", "2", "--n", "4", "--suite", "threeway"],
    "nonempty-r3n3": ["--r", "3", "--n", "3", "--suite", "nonempty"],
}

WORKLOADS = (*VERIFY_ARGS, "json-queries")

# Seconds one unit of each workload takes, with its set-up sample and its
# rounds of the reference loop, on a 2-vCPU Xeon host with Python 3.11.7.
# A run of T seconds measures a fixed round(T / UNIT_S) units, whatever the
# speed of the code under test, so two commits are always compared over the
# same number of samples.
UNIT_S = {
    "threeway-r2n4": 1.9,
    "nonempty-r3n3": 1.65,
    "json-queries": 4.7,
}

# The installed `pinwheel` console script does exactly this.
CLI = ["-c", "import sys; from pinwheel.cli import main; sys.exit(main())"]
