"""Child process of the benchmark: one set-up measurement, or one workload run.

    python3 bench/child.py setup WORKDIR
    python3 bench/child.py run WORKDIR --seconds S --trace 0|1

`setup` imports viscofix and viscofix.cli and loads, validates and builds
every config, operator and family the workload uses, then prints the time
this took since the script started. `run` repeats the workload's op list:
one warm-up pass, then untraced passes for S seconds (with --trace 1,
untraced and traced passes in turn). It prints one JSON line with
each op's median untraced time, the op failures, peak memory and, when
traced, the per-layer metrics. All times are scaled to the reference
machine speed (bench/clock.py).

The package is imported from the working tree's src/, which the script
finds relative to its own location.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import viscofix.cli as cli  # noqa: E402
from viscofix import operators, schemes, semigroup  # noqa: E402
from viscofix.space import TolerancePolicy  # noqa: E402

import clock  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from oracles import CheckFailed, KnownFailure, require  # noqa: E402

#: Untraced passes per run, at least: each op is timed three times or more.
#: A traced run has as many traced passes, two or more to compare counters.
MIN_PASSES = 3
#: cli-pipeline repeats its command list this many times per pass, so a
#: pass runs about a second at the seed commit.
CLI_REPEATS = 3
#: Sweep value whose inner solve exhausts the 10^4-step budget at the seed
#: commit (MaxIterExceeded at q ~ 0.9985); documented in BENCHMARK.json.
KNOWN_BUDGET_FAILURE = 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def solve_options(cfg: dict) -> schemes.SolveOptions:
    kwargs = {}
    if "outer_tol" in cfg:
        kwargs["outer_tol"] = cfg["outer_tol"]
    if "inner_tol" in cfg:
        kwargs["inner_tol_rule"] = schemes.InnerTolRule(cfg["inner_tol"]["kind"], cfg["inner_tol"]["value"])
    if "max_iter" in cfg:
        kwargs["policy"] = TolerancePolicy(max_iter=cfg["max_iter"])
    return schemes.SolveOptions(**kwargs)


def build_problem(spec: dict):
    """Forcing term and target built through the modules' public builders."""
    f = operators.make_operator(spec["contraction"])
    if "family" in spec:
        return f, semigroup.make_family(spec["family"])
    return f, operators.make_operator(spec["target"])


def solve_op(spec: dict) -> Op:
    sched = spec["schedule"]

    def run():
        f, target = build_problem(spec)
        schedule = schemes.make_schedule(sched["kind"], sched["params"], sched["n_max"])
        return schemes.viscosity_implicit_solve(f, target, schedule, opts=solve_options(spec["options"]))

    def check(out):
        _, trace = out
        eps, points = trace.eps_values(), trace.points()
        if "family" in spec:
            oracles.check_affine_steps(eps, points, spec["contraction"], oracles.target_matrix(spec), spec["options"])
        else:
            oracles.check_rotation_ball_steps(eps, points, spec["contraction"], spec["target"], spec["options"])

    return Op(spec["name"], run, check)


def retraction_op(spec: dict) -> Op:
    def run():
        target = operators.make_operator(spec["target"])
        return schemes.retraction_eval(target, spec["anchors"], n_max=spec["n_max"])

    def check(values):
        require(not values.failures, f"anchor failures: {values.failures}")
        for anchor in spec["anchors"]:
            point = values.limits[tuple(float(c) for c in anchor)]
            oracles.check_rotation_ball_retraction(anchor, point, spec["target"], spec["n_max"])

    return Op(spec["name"], run, check)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_sweep(out_dir: Path, cfg: dict) -> tuple[str, str | None]:
    """Check each sweep value's artifacts; returns (digest, known failure or None)."""
    with open(out_dir / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    require(len(rows) == 3, f"sweep wrote {len(rows)} rows, expected 3")
    known = None
    artifacts = [out_dir / "sweep_summary.csv"]
    for row in rows:
        value = float(row["value"])
        status = row["status"]
        if status == "ok":
            sub = out_dir / f"p_{value:g}"
            oracles.check_run_artifacts(sub, cfg)
            artifacts += [sub / "summary.json", sub / "trace.csv"]
        elif value == KNOWN_BUDGET_FAILURE and status.startswith("error:") and "budget" in status:
            known = f"sweep value p={value:g}: inner budget exhausted (MaxIterExceeded)"
        else:
            raise CheckFailed(f"sweep value p={value:g}: {status}")
    return _digest(*artifacts), known


def cli_op(cmd: dict, inputs: dict, reference: dict) -> Op:
    """One in-process `viscofix` command; outputs must match the first pass byte for byte."""
    argv = cmd["argv"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(outcome):
        rc, stdout, stderr = outcome
        require(rc == 0, f"exit code {rc}: {stderr.strip()}")
        known = None
        if argv[0] == "run":
            cfg = inputs["configs"][cmd["name"]]
            out_dir = Path(argv[argv.index("--out") + 1])
            summary = json.loads((out_dir / "summary.json").read_text())
            require(summary["exit_code"] == 0, f"summary exit_code {summary['exit_code']}")
            oracles.check_run_artifacts(out_dir, cfg)
            if cfg.get("anchors"):
                oracles.check_ball_retraction(summary, cfg)
            digest = _digest(out_dir / "summary.json", out_dir / "trace.csv")
        elif argv[0] == "sweep":
            cfg = inputs["configs"][argv[1].removesuffix(".json")]
            digest, known = _check_sweep(Path(argv[argv.index("--out") + 1]), cfg)
        else:
            payload = json.loads(stdout)
            if argv[0] == "certify-na":
                oracles.check_certificate(payload, inputs["matrix"], payload["tol"])
            else:
                oracles.check_family_report(payload)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = reference.setdefault(cmd["name"], digest)
        require(digest == first, "outputs differ from the first pass of the same command")
        if known:
            raise KnownFailure(known)

    return Op(cmd["name"], run, check)


def build_ops(inputs: dict) -> list[Op]:
    if inputs["workload"] == "cli-pipeline":
        reference: dict = {}
        ops = [cli_op(cmd, inputs, reference) for cmd in inputs["commands"]]
        return ops * CLI_REPEATS
    makers = {"solve": solve_op, "retraction": retraction_op}
    return [makers[spec["kind"]](spec) for spec in inputs["ops"]]


def build_all(inputs: dict) -> None:
    """Load, validate and build every config, operator and family of a workload."""
    if inputs["workload"] != "cli-pipeline":
        for spec in inputs["ops"]:
            if spec["kind"] == "retraction":
                operators.make_operator(spec["target"])
            else:
                build_problem(spec)
                sched = spec["schedule"]
                schemes.make_schedule(sched["kind"], sched["params"], sched["n_max"])
                solve_options(spec["options"])
        return
    for name in inputs["configs"]:
        cfg = cli.load_run_config(f"{name}.json")
        build_problem(cfg["problem"])
        sched = cfg["schedule"]
        if sched["kind"] != "anchored":
            schemes.make_schedule(sched["kind"], sched.get("params"), sched.get("n_max"))
    matrix = json.loads(Path("matrix.json").read_text())["matrix"]
    operators.LinearOperator(np.asarray(matrix, dtype=float))
    semigroup.make_family(json.loads(Path("family.json").read_text()))


@dataclass
class Pass:
    raw: list[float]     # each op's wall time
    scaled: list[float]  # the same, scaled to the reference machine speed
    failures: list[list]  # [op, reason, known] per failed op


def run_pass(ops: list[Op], trace: tracing.Tracer | None = None) -> Pass:
    """Run and check every op once."""
    result = Pass([], [], [])
    for index, op in enumerate(ops):
        if trace is not None:
            trace.op = index
        # An op that raises is a failed op, not a crashed benchmark.
        out, raw, scaled, exc = clock.timed(op.run)
        result.raw.append(raw)
        result.scaled.append(scaled)
        if exc is not None:
            result.failures.append([op.name, f"{type(exc).__name__}: {exc}", False])
            continue
        try:
            op.check(out)
        except KnownFailure as exc:
            result.failures.append([op.name, str(exc), True])
        except Exception as exc:  # malformed output fails the check like a wrong value
            result.failures.append([op.name, f"{type(exc).__name__}: {exc}", False])
    return result


def median_times(passes: list[Pass]) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.scaled for p in passes))]


def layer_metrics(layer_passes: list[dict], traced: list[Pass], untraced: list[Pass]):
    """Per-layer metrics of the fastest traced pass; counts must agree between all passes.

    Layer times and shares are the raw times of that pass; traced.wall_s
    and the tracing overhead compare scaled medians, like wall_s.
    """
    walls = [sum(p.raw) for p in traced]
    wall = min(walls)
    out = dict(layer_passes[walls.index(wall)])
    mismatched = [
        f"{key}: {[p[key] for p in layer_passes]}"
        for key in tracing.EXACT_COUNTS
        if len({p[key] for p in layer_passes}) != 1
    ]
    blends, affine = out["operators.blend_calls"], out.pop("operators.blend_affine")
    out["operators.blend_affine_frac"] = affine / blends if blends else 0.0
    inner_s = out["schemes.inner_s"]
    out["schemes.inner_iters_per_s"] = out["schemes.inner_iters"] / inner_s if inner_s else 0.0
    out["schemes.inner_share"] = inner_s / wall
    out["traced.raw_wall_s"] = wall
    traced_wall, untraced_wall = sum(median_times(traced)), sum(median_times(untraced))
    out["traced.wall_s"] = traced_wall
    out["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return out, mismatched


def cmd_run(args) -> dict:
    inputs = json.loads(Path("inputs.json").read_text())
    ops = build_ops(inputs)
    saved = tracing.originals()
    failures: list[list] = []
    attempted = 0

    def timed(trace=None):
        nonlocal attempted
        if trace is None:
            tracing.require_unwrapped(saved)
        result = run_pass(ops, trace)
        attempted += len(ops)
        failures.extend(result.failures)
        return result

    def traced_pass(trace):
        trace.install()
        try:
            return timed(trace)
        finally:
            trace.uninstall()

    timed()  # warm-up: lazy imports and first-use set-up; defines the reference bytes
    # A traced run alternates untraced and traced passes, so that the
    # overhead baseline runs under the same conditions as the traced passes.
    trace = tracing.Tracer() if args.trace else None
    passes, traced, layer_passes, fastest = [], [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(timed())
        if trace is not None:
            done = traced_pass(trace)
            spans = trace.take()
            if not traced or sum(done.raw) < min(sum(p.raw) for p in traced):
                fastest = spans
            traced.append(done)
            layer_passes.append(tracing.pass_metrics(spans))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"passes": len(passes), "times": median_times(passes), "peak_rss_mb": peak_mb}
    if trace is not None:
        tracing.require_unwrapped(saved)
        result["layers"], result["counter_mismatch"] = layer_metrics(layer_passes, traced, passes)
        write_spans(fastest, Path(args.spans))
    result["attempted"] = attempted
    result["failures"] = failures
    result["ops_per_pass"] = len(ops)
    return result


def write_spans(spans: list[tracing.Span], path: Path) -> None:
    """Spans of the fastest traced pass, one JSON line each, in the order they ended.

    `parent` is the line index (from 0) of the enclosing span, or null.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "op": s.op, "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)), "counts": s.counts,
            }) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workdir")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where --trace 1 writes its spans")
    args = parser.parse_args()
    os.chdir(args.workdir)
    if args.mode == "setup":
        build_all(json.loads(Path("inputs.json").read_text()))
        elapsed = time.perf_counter() - T0
        result = {"setup_s": elapsed / clock.slowdown()}
    else:
        result = cmd_run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
