"""viscofix benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload solve-affine --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Inputs are generated from --seed into a
scratch directory under .bench_work/; the program only sees those files.
Child interpreters then run one at a time, each with one BLAS/OpenMP
thread: SETUP_RUNS set-up children (import, load, validate, build) and
one workload child that repeats the op list for --seconds and checks every
output against an independent route (bench/oracles.py). Op times are each
op's median over the run's passes and set-up time is the median of the
set-up children, all scaled to the reference machine speed by the
calibration in bench/clock.py, so that load from other tenants of a
shared host does not move them.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, measured
after an untraced one. Spans of the traced run go to .bench_out/.
The exit code is non-zero, with no result line, when the checkout has no
viscofix sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy  # noqa: E402

import inputs  # noqa: E402

#: Metric names and units are the ones BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up children per run; setup_s is their median.
SETUP_RUNS = 7
#: A run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child(mode: str, work: Path, deadline: float, *extra: str) -> dict:
    """Run one child interpreter to completion and parse its last stdout line."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(work), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              stdin=subprocess.DEVNULL, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> dict:
    times = result["times"]
    return {
        "wall_s": sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.max": max(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "completed_frac": (result["attempted"] - len(result["failures"])) / result["attempted"],
    }


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "viscofix" / "__init__.py").is_file():
        raise BenchError(f"no viscofix sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs.write(args.workload, args.seed, work)
        # Set-up runs bracket the workload run, so one slow spell of the
        # machine does not cover all of them.
        setup = [child("setup", work, deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = child("run", work, deadline, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--spans", str(spans))
        setup += [child("setup", work, deadline)["setup_s"] for _ in range(SETUP_RUNS - len(setup))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known = [f for f in result["failures"] if f[2]]
    unknown = [f for f in result["failures"] if not f[2]]
    mismatch = result.get("counter_mismatch", [])
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}, "
          f"loadavg {' '.join(f'{v:.2f}' for v in os.getloadavg())}")
    print(f"# workload {args.workload}, seed {args.seed}: {result['passes']} timed passes of "
          f"{result['ops_per_pass']} ops; {result['attempted']} ops attempted, "
          f"{len(result['failures'])} failed (failed_frac "
          f"{len(result['failures']) / result['attempted']:.4f}); setup runs {SETUP_RUNS}")
    if known:
        print(f"# known failure x{len(known)}: {known[0][0]}: {known[0][1]}")
    for name, reason, _ in unknown[:5]:
        print(f"# FAILED {name}: {reason}", file=sys.stderr)
    for line in mismatch:
        print(f"# counter differs between traced passes: {line}", file=sys.stderr)

    if args.trace:
        values = result["layers"]
        wall = values.pop("traced.raw_wall_s")
        split = ", ".join(f"{k.removesuffix('.self_s')} {v / wall:.3f}"
                          for k, v in values.items() if k.endswith(".self_s"))
        print(f"# layer self-time shares of the fastest traced pass: {split}")
    else:
        values = end_to_end(result, setup)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": not unknown and not mismatch,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
