"""One workload pass in a fresh interpreter; prints one JSON line on stdout.

    child.py stream GOLDEN --seed S [--trace]    the json-queries stream
    child.py verify GOLDEN --workload W [--trace]  `pinwheel verify` run in-process
    child.py micro --seconds T                   building-block timings

Run by run.py with PYTHONPATH pointing at the checkout's src/; the same
runner serves the untraced passes that give the end-to-end times and the
traced passes that give the per-layer figures.  The pass is timed with
perf_counter and process_time around the work only, after the imports (whose
cost is run.py's setup_s); with --trace the tracer is installed first.  The
reference loop's rounds run around the work, outside those timings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import time

from reference import Gauge
from workloads import VERIFY_ARGS

# Rounds of the reference loop around each piece of work (see reference.py):
# about a fifth of the unit's time, in pieces short enough to follow the
# host's speed as it drifts.
STREAM_CHUNK = 500  # requests between two passes, about a quarter of a second
STREAM_ROUNDS = 60
VERIFY_ROUNDS = 180  # before and after the one `pinwheel verify` call


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _trace_fields(tracer) -> dict:
    if tracer is None:
        return {}
    return {
        "trace": tracer.report(),
        "subgroup_keys": len(tracer.subgroup_keys),
        "useful": tracer.useful,
    }


def stream(golden: dict, seed: int, trace: bool) -> dict:
    import queries

    tracer = _tracer(trace)
    serve = queries.make_server()
    pool = queries.make_pool()
    expected = golden["json-queries"]
    order = queries.stream(seed)
    gauge = Gauge()
    latencies, failed = [], 0
    wall = cpu = 0.0
    for first in range(0, len(order), STREAM_CHUNK):
        gauge.run(STREAM_ROUNDS)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i in order[first : first + STREAM_CHUNK]:
            start = time.perf_counter()
            try:
                response = serve(pool[i])
            except Exception:
                response = None
            latencies.append(time.perf_counter() - start)
            if response is None or queries.digest(response) != expected[i]:
                failed += 1
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
    gauge.run(STREAM_ROUNDS)
    cuts = statistics.quantiles(latencies, n=100)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(order),
        "failed": failed,
        "queries_per_s": len(order) / wall,
        "query_p50_ms": cuts[49] * 1e3,
        "query_p99_ms": cuts[98] * 1e3,
        "reference": gauge.report(),
        **_trace_fields(tracer),
    }


def verify(golden: dict, workload: str, trace: bool) -> dict:
    gauge = Gauge()
    gauge.run(VERIFY_ROUNDS)
    tracer = _tracer(trace)
    import pinwheel.cli

    out = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = pinwheel.cli.main(["verify", *VERIFY_ARGS[workload]])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed operation, reported like the others
        code = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    gauge.run(VERIFY_ROUNDS)
    text = out.getvalue()
    ok = code == 0 and hashlib.sha256(text.encode()).hexdigest() == golden[workload]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": 1,
        "failed": int(not ok),
        "reference": gauge.report(),
        **_trace_fields(tracer),
    }


def micro(seconds: float) -> dict:
    import micro as timings

    per_call, failed = timings.run(seconds)
    return {"micro_us": per_call, "attempted": len(per_call), "failed": failed}


def peak_rss_mb() -> float:
    """This process's own peak resident set.

    ru_maxrss would also count the benchmark process that started this one,
    whose pages a child holds until it execs, so read the high-water mark
    of the running image instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("stream", "verify", "micro"))
    parser.add_argument("golden", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "micro":
        result = micro(args.seconds)
    else:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)
        if args.mode == "stream":
            result = stream(golden, args.seed, args.trace)
        else:
            result = verify(golden, args.workload, args.trace)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
