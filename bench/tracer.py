"""Outside-in layer tracing: wrap the module attributes the program calls through.

Nothing in the package is edited. While a Tracer is installed, each listed
attribute of viscofix.operators, .semigroup, .schemes and .cli is replaced
by a wrapper that records a span (name, start, end, parent span, op id) and
counts taken from the call's arguments or return value. Spans stay in
memory; per-layer metrics are computed from them after each pass, and the
originals are put back on uninstall.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from dataclasses import dataclass, field

from viscofix.operators import AffineOperator
from viscofix.schemes import MaxIterExceeded
from viscofix.space import DEFAULT_POLICY

LAYERS = ("cli", "operators", "semigroup", "schemes", "diagnostics", "trace")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_picard(args, kwargs, result, exc):
    if exc is None:
        return {"iters": result.iterations}
    if isinstance(exc, MaxIterExceeded):
        policy = _arg(args, kwargs, 3, "policy", DEFAULT_POLICY)
        return {"iters": policy.max_iter, "budget_exhausted": 1}
    return {}


def _count_blend(args, kwargs, result, exc):
    return {"affine": int(isinstance(result, AffineOperator))}


def _count_probe(args, kwargs, result, exc):
    return {"samples": int(_arg(args, kwargs, 1, "n_samples"))}


def _count_certify(args, kwargs, result, exc):
    return {"power_iters": result.iterations} if exc is None else {}


def _count_check(args, kwargs, result, exc):
    return {"samples_checked": result.samples_checked} if exc is None else {}


def _count_export(args, kwargs, result, exc):
    return {"bytes": os.path.getsize(result)} if exc is None else {}


def _count_main(args, kwargs, result, exc):
    return {"nonzero": int(exc is not None or result != 0)}


def _count_validate(args, kwargs, result, exc):
    return {"loads": 1}


#: (module, attribute, span name, counter). The same function is wrapped in
#: every module that imported it, because each import is its own binding.
PATCHES = (
    ("viscofix.operators", "make_operator", "operators.build", None),
    ("viscofix.semigroup", "make_family", "semigroup.build", None),
    ("viscofix.semigroup", "check_nonexpansive", "operators.probe", _count_probe),
    ("viscofix.schemes", "picard_solve", "schemes.inner", _count_picard),
    ("viscofix.schemes", "blend", "operators.blend", _count_blend),
    ("viscofix.schemes", "check_nonexpansive", "operators.probe", _count_probe),
    ("viscofix.schemes", "estimate_lipschitz", "operators.probe", _count_probe),
    ("viscofix.schemes", "viscosity_implicit_solve", "schemes.solve", None),
    ("viscofix.schemes", "anchored_implicit_solve", "schemes.solve", None),
    ("viscofix.schemes", "retraction_eval", "schemes.retraction", None),
    ("viscofix.cli", "main", "cli.main", _count_main),
    ("viscofix.cli", "load_run_config", "cli.load", None),
    ("viscofix.cli", "make_operator", "operators.build", None),
    ("viscofix.cli", "make_family", "semigroup.build", None),
    ("viscofix.cli", "viscosity_implicit_solve", "schemes.solve", None),
    ("viscofix.cli", "anchored_implicit_solve", "schemes.solve", None),
    ("viscofix.cli", "retraction_eval", "schemes.retraction", None),
    ("viscofix.cli", "build_proof_step_report", "diagnostics.report", None),
    ("viscofix.cli", "check_retraction_nonexpansive", "diagnostics.report", None),
    ("viscofix.cli", "check_step5_convergence", "diagnostics.report", None),
    ("viscofix.cli", "detect_no_common_fixed_point", "diagnostics.report", None),
    ("viscofix.cli", "export_trace", "trace.export", _count_export),
    ("viscofix.cli", "certify_norm_attainable", "operators.certify", _count_certify),
    ("viscofix.cli", "check_representation", "semigroup.check", _count_check),
)


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    op: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                if count is not None:
                    span.counts = count(args, kwargs, result, exc)
                spans.append(span)

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))
        # cmd_sweep validates each sweep value through cli's own jsonschema binding.
        cli = importlib.import_module("viscofix.cli")
        schema_mod = cli.jsonschema
        self._saved.append((cli, "jsonschema", schema_mod))
        cli.jsonschema = types.SimpleNamespace(
            validate=self.wrap("cli.load", schema_mod.validate, _count_validate),
            ValidationError=schema_mod.ValidationError,
        )

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded since the last take, in the order they ended."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def originals() -> list[tuple[object, str, object]]:
    """(module, attribute, value) for every attribute a Tracer replaces."""
    out = []
    for module_name, attr, _, _ in PATCHES + (("viscofix.cli", "jsonschema", None, None),):
        module = importlib.import_module(module_name)
        out.append((module, attr, getattr(module, attr)))
    return out


def require_unwrapped(saved) -> None:
    """Raise if any traced attribute is not its original: timed runs must be untraced."""
    for module, attr, original in saved:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is still wrapped in an untraced pass")


def _outermost(spans, name: str):
    """Spans of one name that have no ancestor of the same name (recursion counted once)."""
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            yield span


def _total(spans, name: str) -> float:
    return sum(s.duration for s in _outermost(spans, name))


def _count(spans, name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


#: Per-pass counts that must repeat exactly between passes and between runs at one seed.
EXACT_COUNTS = (
    "schemes.outer_steps", "schemes.inner_iters", "schemes.picard_calls",
    "schemes.budget_exhausted", "operators.blend_calls", "operators.blend_affine",
    "operators.probe_samples", "operators.power_iters", "semigroup.samples_checked",
    "cli.loads", "cli.commands", "cli.nonzero_exits",
)


def pass_metrics(spans: list[Span]) -> dict:
    """Per-layer busy times (s, keys ending in _s) and counts for one traced pass."""
    m = {
        "schemes.inner_s": _total(spans, "schemes.inner"),
        "schemes.picard_calls": sum(1 for s in spans if s.name == "schemes.inner"),
        "schemes.inner_iters": _count(spans, "schemes.inner", "iters"),
        "schemes.solve_s": _total(spans, "schemes.solve"),
        "schemes.outer_steps": sum(
            1 for s in spans
            if s.name == "schemes.inner" and s.parent is not None and s.parent.name == "schemes.solve"
        ),
        "schemes.outer_self_s": sum(s.self_s for s in spans if s.name == "schemes.solve"),
        "schemes.retraction_s": _total(spans, "schemes.retraction"),
        "schemes.budget_exhausted": _count(spans, "schemes.inner", "budget_exhausted"),
        "operators.blend_s": _total(spans, "operators.blend"),
        "operators.blend_calls": sum(1 for s in spans if s.name == "operators.blend"),
        "operators.blend_affine": _count(spans, "operators.blend", "affine"),
        "operators.probe_s": _total(spans, "operators.probe"),
        "operators.probe_samples": _count(spans, "operators.probe", "samples"),
        "operators.build_s": _total(spans, "operators.build"),
        "operators.certify_s": _total(spans, "operators.certify"),
        "operators.power_iters": _count(spans, "operators.certify", "power_iters"),
        "semigroup.build_s": _total(spans, "semigroup.build"),
        "semigroup.check_s": _total(spans, "semigroup.check"),
        "semigroup.samples_checked": _count(spans, "semigroup.check", "samples_checked"),
        "cli.load_s": _total(spans, "cli.load"),
        "cli.loads": _count(spans, "cli.load", "loads"),
        "cli.commands": sum(1 for s in spans if s.name == "cli.main"),
        "cli.nonzero_exits": _count(spans, "cli.main", "nonzero"),
        "diagnostics.report_s": _total(spans, "diagnostics.report"),
        "trace.export_s": _total(spans, "trace.export"),
        # trace.json embeds wall-clock timestamps, so its size can vary by a few bytes.
        "trace.bytes_written": _count(spans, "trace.export", "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.name.split(".")[0] == layer)
    return m
