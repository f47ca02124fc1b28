"""Command-line front end for solves, sweeps, and certification checks.

Subcommands
-----------
run           drive a viscosity or anchored solve from a JSON config and
              write the step table trace.csv, the run record trace.json,
              and summary.json
certify-na    certify norm attainment of a square matrix (JSON to stdout)
check-family  sample the composition law of an operator family
sweep         re-run one config over a list of values for a single parameter

Exit codes are 0 (completed), 1 (bad config, schedule, or input file), and
2 (non-convergence diagnostics: stagnating residual, inner budget exhausted,
a non-finite inner value, or a failed certification). Artifacts embed the
config hash (sha256 of the canonical sorted-key JSON) and the seed, and
rerunning an identical config reproduces summary.json and trace.csv byte
for byte. trace.json holds no steps: it is the run's record, the trace's
metadata with the solve's wall-clock timestamps and its stop record, and
may vary between reruns.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    ProofStepReport,
    RetractionCheck,
    build_proof_step_report,
    check_retraction_nonexpansive,
    check_step5_convergence,
    detect_no_common_fixed_point,
)
from .operators import (
    InvalidSpec,
    LinearOperator,
    NotLinear,
    NotNonexpansive,
    _numbers_only,
    fixed_points_linear,
    make_operator,
    certify_norm_attainable,
)
from .schemes import (
    InvalidSchedule,
    MaxIterExceeded,
    NonFiniteValue,
    NotAContraction,
    SolveOptions,
    _resolve_contraction,
    _step_operators,
    anchored_implicit_solve,  # noqa: F401  (bench/tracer.py wraps this binding)
    coupled_inner_tol,
    fixed_inner_tol,
    make_schedule,
    retraction_eval,
    viscosity_implicit_solve,
)
from .semigroup import (
    OperatorFamily,
    check_representation,
    common_fixed_set_linear,
    make_family,
)
from .space import DEFAULT_SEED, DimensionMismatch, TolerancePolicy, ViscofixError
from .trace import ConvergenceTrace, export_trace


class ConfigInvalid(ViscofixError):
    """Configuration file failed to load or validate."""


class _Parser(argparse.ArgumentParser):
    """Argparse parser that reports usage errors through ConfigInvalid.

    Stock argparse exits with status 2 on bad flags, which would collide
    with the non-convergence exit code.
    """

    def error(self, message):
        raise ConfigInvalid(message)


_VECTOR_SCHEMA = {"type": "array", "items": {"type": "number"}, "minItems": 1}

RUN_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["problem", "schedule", "seed"],
    "additionalProperties": False,
    "properties": {
        "problem": {
            "type": "object",
            "required": ["contraction"],
            "additionalProperties": False,
            "properties": {
                "target": {"type": "object"},
                "family": {"type": "object"},
                "contraction": {"type": "object"},
            },
            "oneOf": [{"required": ["target"]}, {"required": ["family"]}],
        },
        "schedule": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["harmonic", "geometric", "explicit", "anchored"]},
                "params": {"type": "object"},
                "n_max": {"type": "integer", "minimum": 1},
            },
        },
        "options": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "outer_tol": {"type": "number", "exclusiveMinimum": 0},
                "inner_tol": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["fixed", "coupled"]},
                        "value": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "warm_start": {"type": "boolean"},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "anchors": {"type": "array", "items": _VECTOR_SCHEMA},
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "problem_id": {"type": "string"},
    },
}


#: Draft 2020-12 `type` names over the values json.load makes: a bool is not
#: a number, and an integral float is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


#: keyword -> test(value, keyword's argument, the schema it sits in). Each
#: passes a value of a type the keyword does not apply to, as jsonschema
#: does; enum matches values of one type only, which is exact for enums of
#: strings and otherwise errs towards asking jsonschema.
_KEYWORDS = {
    "type": lambda v, name, s: _TYPES[name](v),
    "enum": lambda v, options, s: any(type(v) is type(o) and v == o for o in options),
    "required": lambda v, keys, s: not isinstance(v, dict) or all(k in v for k in keys),
    "properties": lambda v, props, s: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k, sub in props.items() if k in v),
    "additionalProperties": lambda v, extra, s: not isinstance(v, dict)
    or all(_conforms(v[k], extra) for k in v if k not in s.get("properties", ())),
    "items": lambda v, sub, s: not isinstance(v, list) or all(_conforms(x, sub) for x in v),
    "minItems": lambda v, least, s: not isinstance(v, list) or len(v) >= least,
    "minimum": lambda v, least, s: not _TYPES["number"](v) or not v < least,
    "exclusiveMinimum": lambda v, bound, s: not _TYPES["number"](v) or not v <= bound,
    "oneOf": lambda v, subs, s: sum(_conforms(v, sub) for sub in subs) == 1,
}


def _conforms(value, schema) -> bool:
    """Whether value, as json.load makes values, is valid under schema.

    Reads only the keywords of _KEYWORDS (and boolean schemas), which are
    all that RUN_CONFIG_SCHEMA uses, and decides them as jsonschema's
    draft 2020-12 validator does; any other keyword raises KeyError.
    """
    if isinstance(schema, bool):
        return schema
    return all(_KEYWORDS[key](value, arg, schema) for key, arg in schema.items())


@functools.cache
def _run_config_validator():
    """The run-config validator, built at the first rejected config.

    _conforms decides which configs are valid; jsonschema, whose import
    costs more than checking a config, is imported only to word the error
    of one it rejects. Built once, because jsonschema.validate would check
    the schema itself on every call.
    """
    from jsonschema.validators import validator_for

    return validator_for(RUN_CONFIG_SCHEMA)(RUN_CONFIG_SCHEMA)


def __getattr__(name):
    """`cli.jsonschema`: the jsonschema module itself, imported on first access.

    Kept only for bench/tracer.py, which wraps `cli.jsonschema.validate`
    and checks between passes that the binding is the original again. The
    CLI imports jsonschema at its first config check. Remove this once the
    tracer's PATCHES stop naming the binding (ROADMAP item 2).
    """
    if name == "jsonschema":
        import jsonschema

        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def config_hash(config: dict) -> str:
    """sha256 hex digest of the canonical (sorted keys, no whitespace) JSON."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from exc


def _non_finite_path(node, path=()):
    """The key path of the first number in parsed JSON that is not a finite
    float, or None.

    json reads the literals NaN and Infinity, and decimals past the float
    range such as 1e999, as such floats; an integer literal past that range
    stays an int that no float can hold.
    """
    if isinstance(node, (int, float)):
        try:
            return None if math.isfinite(node) else path
        except OverflowError:
            return path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        found = _non_finite_path(child, (*path, key))
        if found is not None:
            return found
    return None


def _require_finite(node, noun: str) -> None:
    """Raise ConfigInvalid naming the path of the first number in node that
    is not a finite float."""
    where = _non_finite_path(node)
    if where is not None:
        raise ConfigInvalid(f"{noun} invalid at {'/'.join(map(str, where)) or '<root>'}: numbers must be finite")


def _check_run_config(raw) -> None:
    """Raise ConfigInvalid naming the path of the first schema violation (the
    error jsonschema.validate(raw, RUN_CONFIG_SCHEMA) would raise) or else of
    the first number that is not a finite float.

    _conforms decides validity without jsonschema. Only a config it rejects
    imports jsonschema, whose best_match words the error; should jsonschema
    find no error there, its verdict stands and the config passes on.
    """
    if not _conforms(raw, RUN_CONFIG_SCHEMA):
        from jsonschema.exceptions import best_match

        error = best_match(_run_config_validator().iter_errors(raw))
        if error is not None:
            where = "/".join(str(p) for p in error.absolute_path) or "<root>"
            raise ConfigInvalid(f"config invalid at {where}: {error.message}")
    _require_finite(raw, "config")


def load_run_config(path, seed_override: int | None = None) -> dict:
    """Load, seed-override, and check a run configuration (see _check_run_config)."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{path} must contain a JSON object")
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = int(seed_override)
    _check_run_config(raw)
    return raw


def _build_problem(problem_cfg: dict):
    """(forcing term, target) of a problem config; a bad spec raises ConfigInvalid naming where it sits."""
    f = _build_spec(problem_cfg, "contraction", make_operator)
    if "target" in problem_cfg:
        return f, _build_spec(problem_cfg, "target", make_operator)
    return f, _build_spec(problem_cfg, "family", make_family)


def _build_spec(problem_cfg: dict, key: str, build):
    try:
        return build(problem_cfg[key])
    except InvalidSpec as exc:
        raise ConfigInvalid(f"config invalid at problem/{key}: {exc}") from exc


def _build_options(options_cfg: dict) -> SolveOptions:
    try:
        kwargs = {}
        if "outer_tol" in options_cfg:
            kwargs["outer_tol"] = float(options_cfg["outer_tol"])
        inner = options_cfg.get("inner_tol")
        if inner is not None:
            if inner["kind"] == "fixed":
                kwargs["inner_tol_rule"] = fixed_inner_tol(float(inner.get("value", 1e-10)))
            else:
                kwargs["inner_tol_rule"] = coupled_inner_tol(float(inner.get("value", 1.0)))
        if "warm_start" in options_cfg:
            kwargs["warm_start"] = bool(options_cfg["warm_start"])
        if "max_iter" in options_cfg:
            kwargs["policy"] = TolerancePolicy(max_iter=int(options_cfg["max_iter"]))
        return SolveOptions(**kwargs)
    except ValueError as exc:
        raise ConfigInvalid(f"bad options: {exc}") from exc


def _fixed_set_for(target):
    try:
        if isinstance(target, OperatorFamily):
            return common_fixed_set_linear(target)
        return fixed_points_linear(target)
    except NotLinear:
        return None


def _proof_report(trace, f, target, retraction: RetractionCheck | None) -> ProofStepReport:
    """The stage checks of a run, with its retraction check as the summary took it."""
    step_ops = _step_operators(target, f.dim)
    if len(step_ops) != 1:
        raise ValueError("proof-step report needs a single step operator")
    report = build_proof_step_report(trace, f, step_ops[0], fixed_set=_fixed_set_for(target))
    return replace(report, retraction=retraction)


def _output_dir(path: Path) -> Path:
    """path, once it is known that it is a directory or can be made one.

    A file in its place or in place of a parent fails here, before any
    solve, rather than in mkdir after it.
    """
    for node in (path, *path.parents):
        if node.exists():
            if not node.is_dir():
                raise ConfigInvalid(f"output path {path} is not a directory: {node} exists and is not one")
            break
    return path


def execute_run(
    cfg: dict, out_dir: Path, quiet: bool = True
) -> tuple[int, dict, ConvergenceTrace, float]:
    """Solve one validated config and write its artifacts into out_dir.

    Returns (exit_code, summary dict, trace, alpha), alpha being the
    forcing term's contraction modulus as the solve resolved it. Solver
    exceptions propagate; the caller maps them to exit codes. An out_dir
    that cannot be a directory fails as ConfigInvalid before the solve.
    """
    _output_dir(out_dir)
    digest = config_hash(cfg)
    seed = int(cfg["seed"])
    problem_id = cfg.get("problem_id")
    f, target = _build_problem(cfg["problem"])
    opts = _build_options(cfg.get("options", {}))
    sched_cfg = cfg["schedule"]
    if sched_cfg["kind"] == "anchored" and f.kind != "constant":
        raise ConfigInvalid("anchored schedule needs a constant contraction as the anchor")
    schedule = make_schedule(sched_cfg["kind"], sched_cfg.get("params"), sched_cfg.get("n_max"))
    # Resolved here for its modulus, which the caller reads; the solve and
    # the report take the kept outcome, as every later ask about an
    # undeclared map does, so each map of the run is probed at most once.
    forcing = _resolve_contraction(f)
    result, trace = viscosity_implicit_solve(forcing, target, schedule, opts=opts, problem_id=problem_id)
    sched_desc = {"kind": schedule.kind, "n_max": schedule.n_max}

    trace.metadata["config_hash"] = digest
    trace.metadata["seed"] = seed

    stagnation = detect_no_common_fixed_point(trace, result.converged, opts.outer_tol)

    retraction = None
    check = None
    anchors = cfg.get("anchors")
    if anchors:
        n_steps = sched_desc["n_max"]
        values = retraction_eval(target, anchors, n_max=n_steps, opts=opts)
        check = check_retraction_nonexpansive(values.limits) if len(values.limits) >= 2 else None
        retraction = {
            "passed": bool(check.passed) if check else False,
            "max_excess": float(check.max_excess) if check else None,
            "limits": [
                {"anchor": list(a), "limit": [float(c) for c in values.limits[a]]}
                for a in sorted(values.limits)
            ],
            "failures": {str(list(k)): v for k, v in sorted(values.failures.items())},
        }

    proof = None
    proof_error = None
    try:
        report = _proof_report(trace, forcing, target, check)
        proof, step5 = report.to_dict(), report.step5
    except (ViscofixError, ValueError) as exc:
        proof_error = str(exc)
        step5 = check_step5_convergence(trace)

    last = trace.last()
    exit_code = 2 if stagnation.stalled else 0
    summary = {
        "config_hash": digest,
        "seed": seed,
        "problem_id": problem_id,
        "schedule": sched_desc,
        "outer_steps": len(trace),
        "converged": bool(result.converged),
        "limit": [float(c) for c in result.point],
        "final_fix_residual": float(last.fix_residual),
        "final_implicit_residual": float(last.implicit_residual),
        "final_step_delta": float(last.step_delta),
        "tail_spread": float(step5.distance),
        "total_inner_iterations": int(sum(s.inner_iters for s in trace.steps)),
        "stagnation": {
            "stalled": bool(stagnation.stalled),
            "tail_min": float(stagnation.tail_min),
            "head_min": float(stagnation.head_min),
        },
        "proof_steps": proof,
        "proof_steps_error": proof_error,
        "retraction": retraction,
        "exit_code": exit_code,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    comment = f"config_hash={digest} seed={seed}"
    export_trace(trace, "csv", out_dir / "trace.csv", header_comment=comment)
    export_trace(trace, "json", out_dir / "trace.json")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if not quiet:
        print(
            f"run {problem_id or '(unnamed)'}: {len(trace)} outer steps, "
            f"final residual {last.fix_residual:.3e}, converged={result.converged}"
        )
    return exit_code, summary, trace, forcing.declared_class.alpha


def cmd_run(args) -> int:
    cfg = load_run_config(_config_path(args), args.seed)
    out_dir = Path(args.out or cfg.get("output_dir") or ".")
    exit_code, summary, trace, alpha = execute_run(cfg, out_dir, quiet=args.quiet)
    if exit_code == 2:
        last, stagnation = trace.last(), summary["stagnation"]
        print(
            "NoCommonFixedPoint: fixed-point residual stagnated above tolerance "
            f"(outer step n={last.n}, eps_n={last.eps:.6g}, q_n={1.0 - last.eps * (1.0 - alpha):.12g}: "
            f"tail min {stagnation['tail_min']:.6g}, head min {stagnation['head_min']:.6g})",
            file=sys.stderr,
        )
    return exit_code


def cmd_certify_na(args) -> int:
    data = _load_json(_config_path(args))
    _require_finite(data, "matrix")
    if isinstance(data, dict):
        data = data.get("matrix")
    if not _numbers_only(data):
        raise ConfigInvalid("matrix entries must be numbers (a string or a boolean is not one)")
    try:
        matrix = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"matrix data does not parse: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigInvalid(f"matrix must be square, got shape {matrix.shape}")
    try:
        cert = certify_norm_attainable(LinearOperator(matrix))
    except OverflowError as exc:
        raise ConfigInvalid(f"matrix invalid: {exc}") from exc
    payload = cert.to_dict()
    payload["tol"] = float(args.tol)
    payload["attained"] = bool(cert.residual <= args.tol)
    print(json.dumps(payload, sort_keys=True))
    return 0 if cert.residual <= args.tol else 2


def cmd_check_family(args) -> int:
    raw = _load_json(_config_path(args))
    if not isinstance(raw, dict):
        raise ConfigInvalid("family config must be a JSON object")
    _require_finite(raw, "family config")
    spec = raw.get("family", raw)
    family = make_family(spec)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = check_representation(
        family, n_pairs=args.pairs, n_vectors=args.vectors, tol=args.tol, seed=seed
    )
    payload = report.to_dict()
    payload["tol"] = float(args.tol)
    payload["seed"] = int(seed)
    payload["passed"] = bool(report.passed(args.tol))
    print(json.dumps(payload, sort_keys=True))
    return 0 if report.passed(args.tol) else 2


def _assign_param(cfg: dict, dotted: str, value: float) -> None:
    """Set a dotted config path, descending into 'params' for schedule knobs."""
    segments = dotted.split(".")
    node = cfg
    for seg in segments[:-1]:
        if seg not in node or not isinstance(node[seg], dict):
            node[seg] = {}
        node = node[seg]
    last = segments[-1]
    if last not in node and isinstance(node.get("params"), dict):
        node["params"][last] = value
    elif last not in node and "kind" in node:
        node.setdefault("params", {})[last] = value
    else:
        node[last] = value


def cmd_sweep(args) -> int:
    cfg = load_run_config(_config_path(args), args.seed)
    if not args.values:
        raise ConfigInvalid("sweep needs at least one value")
    leaf = args.param.split(".")[-1]
    names = [f"{leaf}_{value:g}" for value in args.values]
    seen = {}
    for value, name in zip(args.values, names):
        if name in seen:
            raise ConfigInvalid(
                f"sweep values {seen[name]!r} and {value!r} would both write to '{name}'"
            )
        seen[name] = value
    root = _output_dir(Path(args.out or cfg.get("output_dir") or "."))
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    any_completed = False
    for value, name in zip(args.values, names):
        sub_cfg = copy.deepcopy(cfg)
        _assign_param(sub_cfg, args.param, value)
        sub_dir = root / name
        sub_cfg["output_dir"] = str(sub_dir)
        try:
            _check_run_config(sub_cfg)
            code, summary, _, _ = execute_run(sub_cfg, sub_dir, quiet=True)
        except ViscofixError as exc:
            rows.append((value, "", "", "", f"error: {exc}"))
            continue
        status = "stalled" if code == 2 else "ok"
        if code == 0:
            any_completed = True
        rows.append(
            (
                value,
                format(summary["final_fix_residual"], ".17g"),
                format(summary["tail_spread"], ".17g"),
                summary["total_inner_iterations"],
                status,
            )
        )
        if not args.quiet:
            print(f"sweep {args.param}={value:g}: status={status}")
    with open(root / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={int(cfg['seed'])}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["value", "final_fix_residual", "step5_distance", "total_inner_iterations", "status"]
        )
        writer.writerows(rows)
    return 0 if any_completed else 2


def _tolerance(text: str) -> float:
    """A tolerance flag's value: a finite float above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _integer_from(least: int):
    """The type of an integer flag whose values start at least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return value

    return parse


#: A count flag's value: an integer of at least 1.
_count = _integer_from(1)
#: A seed flag's value: numpy's generators take no negative seed.
_seed = _integer_from(0)


def _config_path(args) -> str:
    path = args.config_flag or args.config
    if path is None:
        raise ConfigInvalid("missing config path (positional or --config)")
    return path


def _add_config_arg(parser, noun: str = "config") -> None:
    parser.add_argument("config", nargs="?", default=None, help=f"{noun} file path")
    parser.add_argument("--config", dest="config_flag", default=None, help=f"{noun} file path")


@functools.cache
def build_parser() -> _Parser:
    """The viscofix parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = _Parser(prog="viscofix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one configured problem")
    _add_config_arg(run_p)
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=cmd_run)

    na_p = sub.add_parser("certify-na", help="certify norm attainment of a square matrix")
    _add_config_arg(na_p, noun="matrix")
    na_p.add_argument("--tol", type=_tolerance, default=1e-8, help="widest norm bracket that counts as attained")
    na_p.set_defaults(func=cmd_certify_na)

    fam_p = sub.add_parser("check-family", help="sample the family composition law")
    _add_config_arg(fam_p, noun="family")
    fam_p.add_argument("--pairs", type=_count, default=40)
    fam_p.add_argument("--vectors", type=_count, default=5)
    fam_p.add_argument("--tol", type=_tolerance, default=1e-9)
    fam_p.add_argument("--seed", type=_seed, default=None)
    fam_p.set_defaults(func=cmd_check_family)

    sweep_p = sub.add_parser("sweep", help="re-run one config across parameter values")
    _add_config_arg(sweep_p)
    sweep_p.add_argument("--param", required=True, help="dotted config path, e.g. schedule.p")
    sweep_p.add_argument("--values", type=float, nargs="+", required=True)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--quiet", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxIterExceeded, NonFiniteValue) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InvalidSpec, InvalidSchedule, NotAContraction, NotNonexpansive, DimensionMismatch) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ViscofixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
