"""The benchmark's tracer wraps module attributes by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    # The tracer's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for module_name, attr, _, _ in tracer.PATCHES:
        value = getattr(importlib.import_module(module_name), attr, None)
        assert callable(value), f"{module_name}.{attr} is not a callable binding"
    # originals() reads the same bindings on every benchmark run.
    assert len(tracer.originals()) == len(tracer.PATCHES) + 1


def test_piece_solves_keep_one_traced_inner_call_and_blend_per_outer_step(monkeypatch):
    # The tracer counts schemes.picard_solve spans as inner solves and
    # schemes.blend spans as blends; a piece solve that certifies must not
    # add to either.
    from viscofix import AffineOperator, BallProjection, CompositeOperator, PlaneRotation, schemes

    calls = {"picard_solve": [], "blend": []}
    for name in calls:
        original = getattr(schemes, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(schemes, name, counted)
    forcing = AffineOperator([[0.5, 0.0], [0.0, 0.5]], [0.1, 0.05])
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    _, trace = schemes.viscosity_implicit_solve(forcing, target, schemes.make_schedule(n_max=30))
    assert len(trace) == 30
    assert len(calls["blend"]) == 30
    # Every step took the piece (an affine operator), with no fallback on the blend.
    assert [type(args[0]) for args in calls["picard_solve"]] == [AffineOperator] * 30
