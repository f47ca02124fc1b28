"""Time each benchmark op on two checkouts of viscofix, in alternating fresh interpreters or in one.

    python3 tools/op_times.py PARENT CHANGE --workload W [--seed S] [--rounds R] [--best N] [--in-process]

PARENT and CHANGE are the roots of two checkouts, or git revisions of
this repository such as HEAD~1, unpacked for the run (see checkouts.py).
Each round starts one fresh interpreter per checkout, with one
BLAS/OpenMP thread, and alternates which checkout goes first. That
interpreter imports its own checkout's src/, bench/inputs.py and
bench/child.py (the script only reads them and writes no bytecode
there), writes the workload's inputs for the seed into a temporary
directory, builds the benchmark's op list with bench/child.py's
build_ops, and runs each op once to warm up and check it
(bench/child.py's checks), then N times more, keeping the fastest time.
An op of cli-pipeline, whose list repeats each command, is timed once
per command.

The script prints each op's median over the rounds of its best-of-N times
on both checkouts, with the change between them, and the same for their
sum. Times are raw wall-clock seconds of this machine: both checkouts run
in turn under the same load, so they compare with each other, not with
the benchmark's scaled times. A traced benchmark run gives one pass of
per-layer times, which move by a third between runs; this gives per-op
times that can be compared.

With --in-process, one fresh interpreter loads both checkouts: each
one's src/viscofix as a package of its own name (viscofix_parent,
viscofix_change; every import inside the package is relative), and its
bench/inputs.py and bench/child.py against that package. Each side gets
its own temporary directory of inputs. Op by op, each side warms up and
checks the op, then the rounds alternate the sides, which side goes first
changing each round, each side keeping its best of N. Load from other
tenants of a shared host moves both sides of an op alike, where fresh
interpreters run seconds apart; the printout is the same.

The exit code is 0, or 2 when an interpreter could not time a checkout; an
op whose check fails is named in the output, and timed all the same.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checkouts import checkouts

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("solve-affine", "solve-nonaffine", "cli-pipeline")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _unique(ops) -> dict:
    """{op name: op}, each name's first op: cli-pipeline repeats each command."""
    named: dict = {}
    for op in ops:
        named.setdefault(op.name, op)
    return named


def _checked(op, child):
    """The op's check failure, or None, after one run that also warms it up."""
    try:
        op.check(op.run())
    except child.KnownFailure:
        pass
    except Exception as exc:  # a failed op is reported, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None


def _fastest(op, best: int) -> float:
    fastest = float("inf")
    for _ in range(best):
        start = time.perf_counter()
        try:
            op.run()
        except Exception:  # timed as it ran, as the benchmark times a failed op
            pass
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


def measure(checkout: Path, workload: str, seed: int, best: int) -> dict:
    """{op name: [best time in s, check failure or None]} for one checkout; runs in that checkout's interpreter."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    inputs = _load("inputs", checkout / "bench" / "inputs.py")
    child = _load("child", checkout / "bench" / "child.py")
    import viscofix

    source = Path(viscofix.__file__).resolve()
    if not source.is_relative_to((checkout / "src").resolve()):
        raise SystemExit(f"viscofix imported from {source}, not from {checkout / 'src'}")
    times: dict = {}
    with tempfile.TemporaryDirectory() as work:
        inputs.write(workload, seed, Path(work))
        os.chdir(work)
        for name, op in _unique(child.build_ops(json.loads(Path("inputs.json").read_text()))).items():
            failure = _checked(op, child)
            times[name] = [_fastest(op, best), failure]
    return times


#: The bench modules a checkout's bench/child.py imports by these names.
_BENCH_MODULES = ("inputs", "child", "clock", "oracles", "tracer")


def _load_side(side: str, checkout: Path, workload: str, seed: int, work: Path):
    """(its child module, its ops by name) for one checkout, its package loaded as viscofix_<side>.

    While the checkout's bench modules load, the names viscofix and
    viscofix.<module> stand for that package, and the bench modules' own
    names for the checkout's files; then the names are freed for the other
    side, and the modules keep what they bound.
    """
    package, source = f"viscofix_{side}", checkout / "src" / "viscofix"
    spec = importlib.util.spec_from_file_location(
        package, source / "__init__.py", submodule_search_locations=[str(source)]
    )
    root = importlib.util.module_from_spec(spec)
    sys.modules[package] = root
    spec.loader.exec_module(root)
    aliases = {"viscofix": root}
    for path in sorted(source.glob("*.py")):
        if path.stem != "__init__":
            aliases[f"viscofix.{path.stem}"] = importlib.import_module(f"{package}.{path.stem}")
    path_before = list(sys.path)
    sys.modules.update(aliases)
    sys.path.insert(0, str(checkout / "bench"))
    try:
        inputs = _load("inputs", checkout / "bench" / "inputs.py")
        child = _load("child", checkout / "bench" / "child.py")
    finally:
        sys.path[:] = path_before
        for name in (*aliases, *_BENCH_MODULES):
            sys.modules.pop(name, None)
    if not Path(child.cli.__file__).resolve().is_relative_to(source.resolve()):
        raise SystemExit(f"{checkout}'s bench/child.py runs {child.cli.__file__}, not its own package")
    inputs.write(workload, seed, work)
    os.chdir(work)
    return child, _unique(child.build_ops(json.loads((work / "inputs.json").read_text())))


def measure_both(parent: Path, change: Path, workload: str, seed: int, best: int, rounds: int) -> dict:
    """{side: one {op name: [best time in s, check failure or None]} per round}, both checkouts in this interpreter."""
    sys.dont_write_bytecode = True
    checkouts = {"parent": parent, "change": change}
    with tempfile.TemporaryDirectory() as work:
        loaded = {}
        for side, checkout in checkouts.items():
            (Path(work) / side).mkdir()
            loaded[side] = _load_side(side, checkout, workload, seed, Path(work) / side)
        times: dict = {side: [{} for _ in range(rounds)] for side in checkouts}
        for name in loaded["parent"][1]:
            failures = {}
            for side, (child, ops) in loaded.items():
                os.chdir(Path(work) / side)
                failures[side] = _checked(ops[name], child)
            for r in range(rounds):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    os.chdir(Path(work) / side)
                    times[side][r][name] = [_fastest(loaded[side][1][name], best), failures[side]]
        os.chdir(Path(work).parent)
    return times


def _run(what: list, args) -> dict:
    """The JSON that this script prints for what, run in a fresh interpreter with one BLAS/OpenMP thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), *what, "--workload", args.workload,
           "--seed", str(args.seed), "--best", str(args.best), "--rounds", str(args.rounds)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"timing {' '.join(what)} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--rounds", type=int, default=10, help="interpreter pairs, alternating which side runs first")
    parser.add_argument("--best", type=int, default=25, help="timed runs of each op in one interpreter")
    parser.add_argument("--in-process", action="store_true", help="load both checkouts in one interpreter")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--measure-both", type=Path, nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rounds < 1 or args.best < 1:
        parser.error("--rounds and --best must be at least 1")
    if args.measure is not None:
        print(json.dumps(measure(args.measure.resolve(), args.workload, args.seed, args.best)))
        return 0
    if args.measure_both is not None:
        parent, change = (path.resolve() for path in args.measure_both)
        print(json.dumps(measure_both(parent, change, args.workload, args.seed, args.best, args.rounds)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    with checkouts(args.parent, args.change) as (parent, change):
        sides = {"parent": parent, "change": change}
        if args.in_process:
            rounds = _run(["--measure-both", str(sides["parent"]), str(sides["change"])], args)
        else:
            rounds = {"parent": [], "change": []}
            for r in range(args.rounds):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    rounds[side].append(_run(["--measure", str(sides[side])], args))
    names = list(rounds["parent"][0])
    failures: dict = {}
    for side in sides:
        for run in rounds[side]:
            for name, (_, why) in run.items():
                if why:
                    failures.setdefault((side, name), why)
    rows = [(name, *([run[name][0] for run in rounds[side]] for side in sides)) for name in names]
    rows.append(("total", *([sum(run[name][0] for name in names) for run in rounds[side]] for side in sides)))
    mode = "in one interpreter" if args.in_process else "in fresh interpreters"
    print(f"{args.workload}, seed {args.seed}, {mode}: median over {args.rounds} rounds of each op's best of"
          f" {args.best}, ms [quartiles]")
    for name, before, after in rows:
        b, a = statistics.median(before), statistics.median(after)
        wins = sum(x < y for x, y in zip(after, before))
        print(f"  {name:<32} {b * 1e3:9.3f} {_quartiles(before):>20} -> {a * 1e3:9.3f} {_quartiles(after):>20}"
              f" {100.0 * (a / b - 1.0):+6.1f}%  faster in {wins}/{len(before)} rounds")
    for (side, name), why in failures.items():
        print(f"  check failed on {side}: {name}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
