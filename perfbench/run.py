"""pinwheel benchmark: one workload, measured untraced (end to end) or traced (per layer).

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
src/pinwheel, put on PYTHONPATH for every child process.  Every unit of work
runs in a fresh interpreter (perfbench/child.py), so the library's caches
start cold each time:
  verify workloads  `pinwheel verify ...` as a user types it, through cli.main;
  json-queries      the seed's 6000-request stream.

--trace 0 measures a fixed round(T / workloads.UNIT_S) units (at least
MIN_UNITS), each followed by SETUP_PER_UNIT fresh interpreters doing
`import pinwheel.cli`.  Each unit also runs rounds of a fixed reference
loop (perfbench/reference.py) before, between pieces of and after its work.
It reports the end-to-end metrics of BENCHMARK.json: setup_s (the import),
wall_s and cpu_s (the unit's work, after its imports), each the run's mean
sample scaled by the reference loop's nominal over its measured round time,
that is, seconds at a fixed host speed; and the median of the child's own
peak_rss_mb.  The raw samples are in the result record.
json-queries also prints queries_per_s, query_p50_ms and query_p99_ms
(medians over units, not scaled).

--trace 1 runs a fixed number of pairs (at least MIN_UNITS) of an untraced
pass and a pass with perfbench/tracer.py installed, then times the building
blocks (perfbench/micro.py) for MICRO_S.  It reports the per_layer metrics
of BENCHMARK.json from the fastest traced pass.

Every output is checked against perfbench/golden.json (or --golden FILE); a
nonzero exit, an exception or a digest mismatch counts as a failed
operation.  The last stdout line is the result JSON; the full record, with
the environment, the raw samples and every traced name, is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracer import MODULES
from workloads import UNIT_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_UNITS = 3  # so a run never rests on a single sample
SETUP_PER_UNIT = 1
TRACED_PAIR_UNITS = 2.5  # an untraced and a traced pass cost about this many units
CHILD_TIMEOUT_S = 40  # a hung unit still ends a run within 180 s
MICRO_S = 3.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> dict:
    """Run `python3 ARGS` from the checkout root; exit code, wall time and output."""
    # subprocess.run returns as soon as the child closes its pipes and is
    # reaped; Popen.wait(timeout) would poll, and round the time up to 50 ms.
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args], capture_output=True, cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"python3 {' '.join(args[:2])} ran over {CHILD_TIMEOUT_S} s") from None
    return {
        "code": done.returncode,
        "wall_s": time.perf_counter() - start,
        "stdout": done.stdout,
        "stderr": done.stderr.decode("utf-8", "replace"),
    }


def child_json(args: list[str]) -> dict:
    """Run perfbench/child.py; its last stdout line."""
    unit = run_child([str(HERE / "child.py"), *args])
    if unit["code"] != 0:
        raise BenchError(f"child {args[0]} exited with {unit['code']}: {unit['stderr'].strip()[-2000:]}")
    return json.loads(unit["stdout"].decode().strip().splitlines()[-1])


def setup_times(count: int) -> list[float]:
    """Wall times from a fresh interpreter to `import pinwheel.cli` done."""
    times = []
    for _ in range(count):
        unit = run_child(["-c", "import pinwheel.cli"])
        if unit["code"] != 0:
            raise BenchError(f"import pinwheel.cli failed: {unit['stderr'].strip()[-2000:]}")
        times.append(unit["wall_s"])
    return times


def unit_args(workload: str, seed: int, golden_path: Path) -> list[str]:
    if workload == "json-queries":
        return ["stream", str(golden_path), "--seed", str(seed)]
    return ["verify", str(golden_path), "--workload", workload]


def unit_count(workload: str, seconds: int) -> int:
    # Fixed by T alone, never by how fast the units run, so that two commits
    # are compared over the same number of samples.
    return max(MIN_UNITS, round(seconds / UNIT_S[workload]))


def measure(workload: str, seed: int, seconds: int, golden_path: Path) -> dict:
    args = unit_args(workload, seed, golden_path)
    setup_times(1)  # writes the bytecode cache
    units, setup = [], []
    for _ in range(unit_count(workload, seconds)):
        units.append(child_json(args))
        setup += setup_times(SETUP_PER_UNIT)
    # A time is the run's mean sample over the reference loop's mean round
    # in the same run, in reference.ROUND_S: seconds at a fixed host speed,
    # so the drift of the host within and between runs cancels.
    rounds = sum(u["reference"]["rounds"] for u in units)
    round_wall = sum(u["reference"]["wall_s"] for u in units) / rounds
    round_cpu = sum(u["reference"]["cpu_s"] for u in units) / rounds
    metrics = {
        "setup_s": statistics.fmean(setup) / round_wall * reference.ROUND_S,
        "wall_s": statistics.fmean(u["wall_s"] for u in units) / round_wall * reference.ROUND_S,
        "cpu_s": statistics.fmean(u["cpu_s"] for u in units) / round_cpu * reference.ROUND_S,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    extra = {}
    if workload == "json-queries":
        for key in ("queries_per_s", "query_p50_ms", "query_p99_ms"):
            extra[key] = statistics.median(u[key] for u in units)
    samples = {
        "setup_s": setup,
        **{key: [u[key] for u in units] for key in ("wall_s", "cpu_s", "peak_rss_mb", "reference")},
    }
    return {
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": metrics,
        "stream": extra,
        "samples": samples,
    }


def layer_metrics(traced: dict) -> dict:
    trace = traced["trace"]
    metrics: dict[str, float] = {}
    for name, stat in trace.items():
        metrics[f"{name}.calls"] = stat["calls"]
        metrics[f"{name}.self_s"] = stat["self_s"]
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(s["self_s"] for n, s in trace.items() if n.split(".")[0] == module)

    def ratio(hits: int, name: str) -> float:
        calls = trace[name]["calls"]
        return hits / calls if calls else 0.0

    metrics["group.generate_subgroup.distinct_frac"] = ratio(traced["subgroup_keys"], "group.generate_subgroup")
    for name, suffix in (("faces.hyperplanes_to_chain", "sortable_frac"), ("cyclo.on_hyperplane", "true_frac")):
        metrics[f"{name}.{suffix}"] = ratio(traced["useful"][name], name)
    return metrics


def measure_traced(workload: str, seed: int, seconds: int, golden_path: Path) -> dict:
    args = unit_args(workload, seed, golden_path)
    pairs = max(MIN_UNITS, round((seconds - MICRO_S) / (TRACED_PAIR_UNITS * UNIT_S[workload])))
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(child_json(args))
        traced.append(child_json([*args, "--trace"]))
    calls = [{name: stat["calls"] for name, stat in run["trace"].items()} for run in traced]
    if any(c != calls[0] for c in calls):
        raise BenchError("traced passes of one input counted different calls")
    micro = child_json(["micro", "--seconds", str(MICRO_S)])
    best = min(traced, key=lambda run: run["wall_s"])
    metrics = layer_metrics(best)
    for name, value in micro["micro_us"].items():
        metrics[f"micro.{name}_us"] = value
    # The median over back-to-back pairs of traced / untraced wall time.
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    runs = [*untraced, *traced, micro]
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "walls": {"untraced_s": [r["wall_s"] for r in untraced], "traced_s": [r["wall_s"] for r in traced]},
        "trace": best["trace"],
    }


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinwheel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pinwheel" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no pinwheel checkout at {ROOT} (need src/pinwheel and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        env = environment()
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, args.golden)
        else:
            result = measure(args.workload, args.seed, args.seconds, args.golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(env=env, **result)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"env": env}))
    if result.get("stream"):
        print(json.dumps({"stream": result["stream"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
