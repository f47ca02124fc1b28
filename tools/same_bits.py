"""Check that two checkouts of viscofix compute the same bits.

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts, or git revisions of
this repository such as HEAD~1, unpacked for the run (see checkouts.py).
Each one is recorded by its own tools/same_bits.py (by this script when
it has none), so a record keeps the meaning its own tree gives it. The
recording runs in its own interpreter, with the checkout's src/ first on
the path and one BLAS/OpenMP thread, on the seeded benchmark inputs that
its bench/inputs.py generates (the script only reads that file). It
records:

* for solve-affine and solve-nonaffine at seeds 4242, 777 and 9701: every
  solve's trace (points, implicit and fixed-point residuals, inner
  iteration counts, step deltas), the residual, iteration count and
  converged flag of the inner solve result that inner_monitor receives at
  each outer step, and every retraction's limits;
* at the same seeds, the traces of six solves that no benchmark input
  has, built here: a two-member custom family of rotation-then-ball
  targets (one schedule plan per member), an averaged rotation-then-ball
  target (its kept piece planned like a composite's), a mixed family of a
  plain rotation and a rotation-then-ball target (planned collapses and
  planned pieces in one schedule), and three planned affine solves on
  rotation flows that stop early, at outer_tol 1e-2, inside the plan's
  first batch: one member with warm starts, the same without, and two
  members;
* at the same seeds, four more solves built here, three of them on the
  step-by-step Picard path where no step hands its values of f and T on
  to the next: an anchored solve on a ball target without warm starts, a
  two-member custom family of ball projections, and a d = 3 box run; and
  a d = 8 affine run on a plane rotation, whose report also takes its
  linear fixed set;
* for each of these solves: the outer result (point, residual, step
  count, converged flag), the stage-check report that
  build_proof_step_report(trace, f, T).to_dict() gives, where T is the
  target or the one member of a family with a single sampled index (as the
  CLI takes it; a family of more members has no report), and again with the
  target's linear fixed set when it has one; the bytes export_trace writes
  as trace.csv, the step table, and as trace.json, the run record (the
  trace's wall-clock timestamps and its step count by path dropped
  first: a tree older than that count has none), and the load_trace round
  trip of trace.csv;
* for cli-pipeline at seed 4242: the exit code and stdout of each command,
  every file the commands write (summary.json, trace.csv,
  sweep_summary.csv) and trace.json without its wall-clock timestamps
  and its step count by path;
* for the spec corpus in tests/oracles.py, read from the recording
  script's own tree: each accepted operator or family spec's to_spec()
  (AttributeError for a custom family, which has none) and the bits of
  apply at seeded points, of the operator or of the family's member at
  each sample index, and each rejected spec's exception class and
  message.

That makes 640 records. Floats are compared by their bits. The exit code
is 0 when every record agrees, 1 when any differs (each one that differs
is named, as "differs", "only in parent" or "only in change", then their
count) and 2 when a checkout could not be recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checkouts import checkouts

SOLVE_SEEDS = (4242, 777, 9701)
CLI_SEED = 4242
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_FIELDS = ("point", "implicit_residual", "fix_residual", "inner_iters", "step_delta")
#: Fields of each inner solve's result, recorded through inner_monitor.
INNER_FIELDS = ("residual", "iterations", "converged")
#: The run record's metadata left out: wall-clock times, and the step count by path, which older trees lack.
UNCOMPARED_METADATA = ("timestamps", "paths")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve_records(prefix: str, spec: dict) -> dict:
    """The trace fields and inner results of one seeded solve, or its error."""
    from viscofix import operators, schemes, semigroup
    from viscofix.space import TolerancePolicy, ViscofixError

    options = spec["options"]
    kwargs = {}
    if "outer_tol" in options:
        kwargs["outer_tol"] = options["outer_tol"]
    if "inner_tol" in options:
        kwargs["inner_tol_rule"] = schemes.InnerTolRule(options["inner_tol"]["kind"], options["inner_tol"]["value"])
    if "max_iter" in options:
        kwargs["policy"] = TolerancePolicy(max_iter=options["max_iter"])
    if "warm_start" in options:
        kwargs["warm_start"] = options["warm_start"]
    f = operators.make_operator(spec["contraction"])
    if "family" in spec:
        target = semigroup.make_family(spec["family"])
    else:
        target = operators.make_operator(spec["target"])
    sched = spec["schedule"]
    schedule = schemes.make_schedule(sched["kind"], sched["params"], sched["n_max"])
    inner = []

    def monitor(n, eps, result):
        inner.append(tuple(getattr(result, name) for name in INNER_FIELDS))

    try:
        result, trace = schemes.viscosity_implicit_solve(
            f, target, schedule, schemes.SolveOptions(**kwargs), inner_monitor=monitor
        )
    except ViscofixError as exc:
        return {f"{prefix}/error": f"{type(exc).__name__}: {exc}"}
    records = {**_report_records(prefix, trace, f, target), **_export_records(prefix, trace)}
    outcome = (result.point.tobytes().hex(), result.residual.hex(), result.iterations, result.converged)
    records[f"{prefix}/result"] = _digest(repr(outcome).encode())
    for name in TRACE_FIELDS:
        dtype = np.int64 if name == "inner_iters" else float
        values = np.array([getattr(step, name) for step in trace.steps], dtype=dtype)
        records[f"{prefix}/{name}"] = _digest(values.tobytes())
    for k, name in enumerate(INNER_FIELDS):
        dtype = float if name == "residual" else np.int64
        values = np.array([fields[k] for fields in inner], dtype=dtype)
        records[f"{prefix}/inner {name}"] = _digest(values.tobytes())
    return records


def _report_records(prefix: str, trace, f, target) -> dict:
    """The stage-check report of one solve, with and without the target's linear fixed set."""
    from viscofix import (
        NotLinear, OperatorFamily, build_proof_step_report, common_fixed_set_linear, fixed_points_linear,
    )
    from viscofix.space import ViscofixError

    if isinstance(target, OperatorFamily):
        indices = set(target.sample_indices())
        if len(indices) != 1:
            return {}
        T, fixed_set_of = target.evaluate(indices.pop()), common_fixed_set_linear
    else:
        T, fixed_set_of = target, fixed_points_linear
    try:
        fixed_sets = {"report": None, "report with fixed set": fixed_set_of(target)}
    except NotLinear:
        fixed_sets = {"report": None}
    records = {}
    for name, fixed_set in fixed_sets.items():
        try:
            report = build_proof_step_report(trace, f, T, fixed_set=fixed_set).to_dict()
        except (ViscofixError, ValueError) as exc:
            report = f"{type(exc).__name__}: {exc}"
        records[f"{prefix}/{name}"] = _digest(json.dumps(report, sort_keys=True).encode())
    return records


def _export_records(prefix: str, trace) -> dict:
    """The bytes of both trace files, timestamps and path counts dropped, and what load_trace reads back from the step table."""
    from viscofix import export_trace, load_trace

    for key in UNCOMPARED_METADATA:
        trace.metadata.pop(key, None)
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for fmt in ("csv", "json"):
            path = export_trace(trace, fmt, Path(work) / f"trace.{fmt}", header_comment=f"op={prefix}")
            records[f"{prefix}/trace.{fmt}"] = _digest(path.read_bytes())
        loaded = load_trace(Path(work) / "trace.csv")
        records[f"{prefix}/trace.csv round trip"] = _digest(repr((loaded.metadata, loaded.steps)).encode())
    return records


def _rotation(angle: float) -> dict:
    return {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": angle}


def _turned_ball(angle: float) -> dict:
    return {
        "kind": "composite",
        "operators": [_rotation(angle), {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0}],
    }


def _piece_specs(seed: int) -> list:
    """Seeded solves on targets with local affine pieces that the benchmark inputs lack."""
    rng = np.random.default_rng([seed, 14])
    direction = rng.standard_normal(2)
    first, second = rng.uniform(0.5, 1.5, size=2).tolist()
    common = {
        "kind": "solve",
        "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                        "offset": (direction / np.linalg.norm(direction)).tolist()},
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 100},
        "options": {},
    }
    family = {"kind": "custom", "table": {"1": _turned_ball(first), "2": _turned_ball(second)}}
    averaged = {"kind": "averaged", "inner": _turned_ball(first), "lambda": 0.5}
    mixed = {"kind": "custom", "table": {"1": _rotation(first), "2": _turned_ball(second)}}
    return [
        {"name": "family-rotation-ball-n100", "family": family, **common},
        {"name": "averaged-rotation-ball-n100", "target": averaged, **common},
        {"name": "mixed-rotation-and-rotation-ball-n100", "family": mixed, **common},
    ]


def _early_stop_specs(seed: int) -> list:
    """Seeded planned affine solves that stop before n_max, inside the schedule plan's first batch.

    At outer_tol 1e-2 the first steps move by more than outer_tol, later
    ones by less, and the fixed-point residual falls below it within 300
    steps.
    """
    rng = np.random.default_rng([seed, 22])
    direction = rng.standard_normal(2)
    rate = float(rng.uniform(0.5, 1.5))
    common = {
        "kind": "solve",
        "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                        "offset": (direction / np.linalg.norm(direction)).tolist()},
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 300},
    }
    flow = {"kind": "rotation_flow", "rates": [rate], "grid": [1.0]}
    pair = {"kind": "rotation_flow", "rates": [rate], "grid": [1.0, 2.0]}
    return [
        {"name": "rotation-flow-stops-early", "family": flow, "options": {"outer_tol": 1e-2}, **common},
        {"name": "rotation-flow-stops-early-cold", "family": flow,
         "options": {"outer_tol": 1e-2, "warm_start": False}, **common},
        {"name": "two-member-flow-stops-early", "family": pair, "options": {"outer_tol": 1e-2}, **common},
    ]


def _unit(rng) -> np.ndarray:
    direction = rng.standard_normal(2)
    return direction / np.linalg.norm(direction)


def _generic_specs(seed: int) -> list:
    """Seeded solves whose steps hand nothing on to the next, and two runs of stage reports at d = 3 and d = 8."""
    rng = np.random.default_rng([seed, 23])
    # The origin and the anchor lie 3 and 2 from the center, outside the unit ball.
    center, other, anchor = (_unit(rng) * 3.0).tolist(), rng.standard_normal(2), _unit(rng)
    ball = {"kind": "projection_ball", "center": center, "radius": 1.0}
    harmonic = {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 100}
    table = {"1": ball, "2": {"kind": "projection_ball", "center": other.tolist(), "radius": 0.5}}
    box = {"kind": "projection_box", "lower": rng.uniform(-1.0, 0.0, 3).tolist(),
           "upper": rng.uniform(0.5, 1.5, 3).tolist()}
    rotation = {"kind": "rotation", "dim": 8, "plane": [0, 7], "angle": float(rng.uniform(0.5, 1.5))}
    return [
        {"name": "ball-anchored-cold", "kind": "solve", "target": ball,
         "contraction": {"kind": "constant", "value": (np.array(center) + 2.0 * anchor).tolist()},
         "schedule": {"kind": "anchored", "params": {}, "n_max": 100}, "options": {"warm_start": False}},
        {"name": "two-ball-family", "kind": "solve", "family": {"kind": "custom", "table": table},
         "contraction": {"kind": "constant", "value": (4.0 * anchor).tolist()}, "schedule": harmonic, "options": {}},
        {"name": "box-d3", "kind": "solve", "target": box,
         "contraction": {"kind": "constant", "value": (2.0 * rng.standard_normal(3)).tolist()},
         "schedule": harmonic, "options": {}},
        {"name": "rotation-d8", "kind": "solve", "target": rotation,
         "contraction": {"kind": "affine", "matrix": (0.5 * np.eye(8)).tolist(),
                         "offset": rng.standard_normal(8).tolist()},
         "schedule": harmonic, "options": {}},
    ]


def _retraction_records(prefix: str, spec: dict) -> dict:
    from viscofix import operators, schemes

    values = schemes.retraction_eval(operators.make_operator(spec["target"]), spec["anchors"], n_max=spec["n_max"])
    records = {f"{prefix}/failures": json.dumps(values.failures, sort_keys=True)}
    for k, anchor in enumerate(spec["anchors"]):
        limit = values.limits.get(tuple(float(c) for c in anchor))
        records[f"{prefix}/limit {k}"] = None if limit is None else _digest(np.asarray(limit).tobytes())
    return records


def _spec_records() -> dict:
    """The spec corpus: what each accepted spec writes back and computes, and how each rejected spec fails."""
    from viscofix import make_family, make_operator

    corpus = _load_module("spec_corpus", Path(__file__).resolve().parents[1] / "tests" / "oracles.py")
    build = {"operator": make_operator, "family": make_family}
    records = {}
    accepted = [("operator", spec) for spec in corpus.ACCEPTED_OPERATOR_SPECS]
    accepted += [("family", spec) for spec in corpus.ACCEPTED_FAMILY_SPECS]
    for k, (what, spec) in enumerate(accepted):
        prefix = f"specs/{what} {k} {spec['kind']}"
        built = build[what](spec)
        try:
            records[f"{prefix}/to_spec"] = json.dumps(built.to_spec())
        except AttributeError as exc:
            records[f"{prefix}/to_spec"] = type(exc).__name__
        members = [built] if what == "operator" else [built.evaluate(t) for t in built.sample_indices()]
        points = np.random.default_rng([k, 25]).standard_normal((8, built.dim)) * 3.0
        values = np.array([[member.apply(x) for x in points] for member in members])
        records[f"{prefix}/apply"] = _digest(values.tobytes())
    for name, what, spec, _ in corpus.REJECTED_SPECS:
        try:
            build[what](spec)
            records[f"specs/rejected {name}"] = "accepted"
        except Exception as exc:  # any class, as the class is recorded
            records[f"specs/rejected {name}"] = f"{type(exc).__name__}: {exc}"
    return records


def _artifact(path: Path) -> str:
    if path.name == "trace.json":
        data = json.loads(path.read_text())
        for key in UNCOMPARED_METADATA:
            data.get("metadata", {}).pop(key, None)
        return _digest(json.dumps(data, sort_keys=True).encode())
    return _digest(path.read_bytes())


def _cli_records(inputs, work: Path) -> dict:
    from viscofix import cli

    inputs.write("cli-pipeline", CLI_SEED, work)
    commands = inputs.generate("cli-pipeline", CLI_SEED)["commands"]
    records = {}
    os.chdir(work)
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd["argv"])
        prefix = f"cli-pipeline/{CLI_SEED}/{cmd['name']}"
        records[f"{prefix}/exit code"] = code
        records[f"{prefix}/stdout"] = _digest(out.getvalue().encode())
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            records[f"cli-pipeline/{CLI_SEED}/{path.relative_to(work).as_posix()}"] = _artifact(path)
    return records


def record(checkout: Path) -> dict:
    """Every record of one checkout; runs inside that checkout's interpreter."""
    sys.path.insert(0, str(checkout / "src"))
    import viscofix

    source = Path(viscofix.__file__).resolve()
    if not source.is_relative_to((checkout / "src").resolve()):
        raise SystemExit(f"viscofix imported from {source}, not from {checkout / 'src'}")
    inputs = _load_module("bench_inputs", checkout / "bench" / "inputs.py")
    records: dict = {}
    for workload in ("solve-affine", "solve-nonaffine"):
        for seed in SOLVE_SEEDS:
            for spec in inputs.generate(workload, seed)["ops"]:
                prefix = f"{workload}/{seed}/{spec['name']}"
                if spec["kind"] == "retraction":
                    records.update(_retraction_records(prefix, spec))
                else:
                    records.update(_solve_records(prefix, spec))
    for seed in SOLVE_SEEDS:
        for spec in _piece_specs(seed):
            records.update(_solve_records(f"pieces/{seed}/{spec['name']}", spec))
        for spec in _early_stop_specs(seed):
            records.update(_solve_records(f"early-stops/{seed}/{spec['name']}", spec))
        for spec in _generic_specs(seed):
            records.update(_solve_records(f"generic/{seed}/{spec['name']}", spec))
    with tempfile.TemporaryDirectory() as work:
        records.update(_cli_records(inputs, Path(work)))
    records.update(_spec_records())
    return records


def _recorder(checkout: Path) -> Path:
    """The checkout's own tools/same_bits.py, or this script when it has none."""
    own = checkout / "tools" / "same_bits.py"
    return own if own.is_file() else Path(__file__).resolve()


def _run(checkout: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(_recorder(checkout)), "--record", str(checkout)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"recording {checkout} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record is not None:
        print(json.dumps(record(args.record.resolve())))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    with checkouts(args.parent, args.change) as (parent, change):
        before, after = _run(parent), _run(change)
    keys = list(before) + [key for key in after if key not in before]
    differing = [key for key in keys if key not in before or key not in after or before[key] != after[key]]
    for key in differing:
        side = "only in change" if key not in before else "only in parent" if key not in after else "differs"
        print(f"{side}: {key}")
    if differing:
        print(f"{len(differing)} of {len(keys)} records differ")
        return 1
    print(f"same bits: {len(before)} records agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
