"""Run the benchmark on two checkouts of viscofix in alternating pairs and apply the claim rule.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B

PARENT and CHANGE are the roots of two checkouts, or git revisions of
this repository such as HEAD~1, unpacked for the run (see checkouts.py).
Each seed from A to B makes one pair: bench/run.py --workload W --seed S
--trace 0 runs in each checkout, from that checkout's root with its own
bench/ and src/, the parent first in the first pair and the side that
goes first alternating from pair to pair. Both sides run for the
run_seconds of the parent's BENCHMARK.json. The script reads bench/ and
writes nothing there; bench/run.py leaves its spans in the checkout's
.bench_out/.

For each end-to-end metric that the parent's BENCHMARK.json declares,
the script prints each side's median and quartiles over the pairs (the
default, exclusive quartiles of statistics.quantiles, which
tools/op_times.py prints too) and the pairs the change wins, a tie
winning for neither side. A gain holds when there are at least ten
pairs, the change wins at least nine tenths of them, and the medians differ in the metric's better direction by more
than the distance between the parent's quartiles. A metric is worse when
the change's median is worse than the parent's by more than the metric's
bound, a fraction of the parent's median. It is unresolved when the
parent's quartiles lie further apart than that bound, unless every run of
the change reads better than every run of the parent.

It also prints the share of ops that failed on each side. The exit code
is 0, or 1 when a metric is worse than its bound, a run's outputs failed
their checks or a larger share of the change's ops failed, and 2 when a
run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from checkouts import checkouts

#: Pairs a claim needs, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Spread(NamedTuple):
    """The quartiles and median of one side's runs."""

    q1: float
    median: float
    q3: float


class Verdict(NamedTuple):
    """The claim rule and the bound, applied to one metric's pairs."""

    parent: Spread
    change: Spread
    wins: int
    pairs: int
    holds: bool
    worse: bool
    unresolved: bool


def spread(values: list[float]) -> Spread:
    if len(values) < 2:
        return Spread(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Spread(q1, median, q3)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """The verdict on one metric, given each pair's parent and change values in pair order."""
    if len(parent) != len(change) or not parent:
        raise ValueError("each pair needs one parent and one change value")
    sign = 1.0 if better == "lower" else -1.0
    before, after = spread(parent), spread(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (before.median - after.median)
    iqr = before.q3 - before.q1
    holds = len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > iqr
    limit = bound * abs(before.median)
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    return Verdict(before, after, wins, len(parent), holds, -gain > limit, iqr > limit and not separated)


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B or A, got {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"seeds must run from a non-negative A up to B, got {text!r}")
    return seeds


def _bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced bench/run.py run in root."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"bench/run.py in {root} at seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B: one pair per seed from A to B")
    args = parser.parse_args()
    with checkouts(args.parent, args.change) as (parent, change):
        spec = json.loads((parent / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        sides = {"parent": parent, "change": change}
        runs: dict = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_bench(sides[side], args.workload, seed, seconds))
            values = "; ".join(f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.6g} -> "
                               f"{runs['change'][-1]['metrics'][m['name']]['value']:.6g}" for m in spec["end_to_end"])
            print(f"pair {k + 1}, seed {seed}, {order[0]} first: {values}", flush=True)
    print(f"{args.workload}, seeds {args.seeds.start}-{args.seeds.stop - 1}, {seconds:g} s a run: "
          f"median [quartiles], parent -> change")
    failed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent_values, change_values = ([run["metrics"][name]["value"] for run in runs[side]] for side in sides)
        v = verdict(parent_values, change_values, metric["better"], metric["bound"])
        notes = ["gain holds" if v.holds else "no gain"]
        if v.worse:
            notes.append(f"WORSE than its bound {metric['bound']:g}")
        if v.unresolved:
            notes.append("unresolved: the parent's quartiles lie further apart than the bound")
        failed = failed or v.worse
        print(f"  {name:<15} {v.parent.median:.6g} [{v.parent.q1:.6g}, {v.parent.q3:.6g}] -> {v.change.median:.6g}"
              f" [{v.change.q1:.6g}, {v.change.q3:.6g}] {metric['unit']}; change wins {v.wins}/{v.pairs}; "
              + "; ".join(notes))
    shares = {}
    for side in sides:
        wrong = [seed for seed, run in zip(args.seeds, runs[side]) if not run["correct"]]
        if wrong:
            failed = True
            print(f"  {side}: outputs failed their checks at seeds {wrong}")
        shares[side] = sum(run["failed"] for run in runs[side]) / sum(run["attempted"] for run in runs[side])
    print(f"  failed ops: parent {shares['parent']:.4f}, change {shares['change']:.4f} of those attempted")
    return 1 if failed or shares["change"] > shares["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
