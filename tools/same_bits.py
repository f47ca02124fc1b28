"""Check that two checkouts of viscofix compute the same bits.

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. Each one runs in its own
interpreter, with its own src/ first on the path and one BLAS/OpenMP
thread, on the seeded benchmark inputs that its bench/inputs.py generates
(the script only reads that file). It records:

* for solve-affine and solve-nonaffine at seeds 4242, 777 and 9701: every
  solve's trace (points, implicit and fixed-point residuals, inner
  iteration counts, step deltas) and every retraction's limits;
* at the same seeds, the traces of three solves that no benchmark input
  has, built here: a two-member custom family of rotation-then-ball
  targets (one schedule plan per member), an averaged rotation-then-ball
  target (its kept piece planned like a composite's) and a mixed family
  of a plain rotation and a rotation-then-ball target (planned collapses
  and planned pieces in one schedule);
* for cli-pipeline at seed 4242: the exit code and stdout of each command,
  every file the commands write (summary.json, trace.csv,
  sweep_summary.csv) and trace.json without its wall-clock timestamps.

Floats are compared by their bits. The exit code is 0 when every record
agrees, 1 when any differs (each one that differs is named, then their
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

SOLVE_SEEDS = (4242, 777, 9701)
CLI_SEED = 4242
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_FIELDS = ("point", "implicit_residual", "fix_residual", "inner_iters", "step_delta")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_inputs(checkout: Path):
    spec = importlib.util.spec_from_file_location("bench_inputs", checkout / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve_records(prefix: str, spec: dict) -> dict:
    """The trace fields of one seeded solve, or its error."""
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
    f = operators.make_operator(spec["contraction"])
    if "family" in spec:
        target = semigroup.make_family(spec["family"])
    else:
        target = operators.make_operator(spec["target"])
    sched = spec["schedule"]
    schedule = schemes.make_schedule(sched["kind"], sched["params"], sched["n_max"])
    try:
        _, trace = schemes.viscosity_implicit_solve(f, target, schedule, schemes.SolveOptions(**kwargs))
    except ViscofixError as exc:
        return {f"{prefix}/error": f"{type(exc).__name__}: {exc}"}
    records = {}
    for name in TRACE_FIELDS:
        dtype = np.int64 if name == "inner_iters" else float
        values = np.array([getattr(step, name) for step in trace.steps], dtype=dtype)
        records[f"{prefix}/{name}"] = _digest(values.tobytes())
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


def _retraction_records(prefix: str, spec: dict) -> dict:
    from viscofix import operators, schemes

    values = schemes.retraction_eval(operators.make_operator(spec["target"]), spec["anchors"], n_max=spec["n_max"])
    records = {f"{prefix}/failures": json.dumps(values.failures, sort_keys=True)}
    for k, anchor in enumerate(spec["anchors"]):
        limit = values.limits.get(tuple(float(c) for c in anchor))
        records[f"{prefix}/limit {k}"] = None if limit is None else _digest(np.asarray(limit).tobytes())
    return records


def _artifact(path: Path) -> str:
    if path.name == "trace.json":
        data = json.loads(path.read_text())
        data.get("metadata", {}).pop("timestamps", None)
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
    inputs = _load_inputs(checkout)
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
    with tempfile.TemporaryDirectory() as work:
        records.update(_cli_records(inputs, Path(work)))
    return records


def _run(checkout: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--record", str(checkout)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"recording {checkout} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record is not None:
        print(json.dumps(record(args.record.resolve())))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    before, after = _run(args.parent.resolve()), _run(args.change.resolve())
    keys = list(before) + [key for key in after if key not in before]
    differing = [key for key in keys if key not in before or key not in after or before[key] != after[key]]
    for key in differing:
        print(f"differs: {key}")
    if differing:
        print(f"{len(differing)} of {len(keys)} records differ")
        return 1
    print(f"same bits: {len(before)} records agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
