"""The benchmark's tracer wraps module attributes by name; each must exist."""

from __future__ import annotations

import importlib
import json
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
    # add to either, and neither may a lifted solve of a collapsed blend.
    from viscofix import AffineOperator, BallProjection, CompositeOperator, PlaneRotation, make_rotation_flow, schemes

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
    # An affine target collapses every blend to one affine map, solved once.
    for name in calls:
        calls[name].clear()
    flow = make_rotation_flow([1.0], [1.0, 2.0])
    _, trace = schemes.viscosity_implicit_solve(forcing, flow, schemes.make_schedule(n_max=30))
    assert len(trace) == len(calls["blend"]) == 30
    assert [type(args[0]) for args in calls["picard_solve"]] == [AffineOperator] * 30


def test_a_piece_solve_computes_the_targets_global_form_once(monkeypatch):
    # The composite's global form does not change from step to step, so it
    # is computed once per solve, not once per blend.
    from viscofix import AffineOperator, BallProjection, CompositeOperator, PlaneRotation, schemes

    global_forms = []
    original = CompositeOperator.affine_piece

    def counted(self, x=None):
        if x is None:
            global_forms.append(self)
        return original(self, x)

    monkeypatch.setattr(CompositeOperator, "affine_piece", counted)
    forcing = AffineOperator([[0.5, 0.0], [0.0, 0.5]], [0.1, 0.05])
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    _, trace = schemes.viscosity_implicit_solve(forcing, target, schemes.make_schedule(n_max=30))
    assert len(trace) == 30
    assert global_forms == [target]


def test_a_retraction_makes_one_traced_inner_call_and_blend_per_outer_step(monkeypatch):
    # solve-nonaffine's counters for its 3-anchor retraction rest on this.
    from viscofix import BallProjection, CompositeOperator, PlaneRotation, schemes

    calls = {name: _counted(monkeypatch, schemes, name) for name in ("picard_solve", "blend")}
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    values = schemes.retraction_eval(target, [[3.0, 0.0], [0.0, -3.0], [-2.0, 2.0]], n_max=50)
    assert values.failures == {}
    steps = sum(res.iterations for res in values.results.values())
    assert steps == 3 * 50
    assert len(calls["blend"]) == len(calls["picard_solve"]) == steps


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _run(tmp_path, target):
    # The tracer times trace.export_s on cli.export_trace and counts
    # operators.probe_samples on semigroup.check_nonexpansive.
    from viscofix import cli

    cfg = {
        "problem": {"target": target, "contraction": {"kind": "constant", "value": [2.0, 0.0]}},
        "schedule": {"kind": "harmonic", "n_max": 20},
        "seed": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])


def test_a_run_exports_through_the_traced_binding_once_per_format(tmp_path, monkeypatch):
    from viscofix import cli

    exports = _counted(monkeypatch, cli, "export_trace")
    ball = {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0}
    assert _run(tmp_path, ball) == 0
    assert [args[1] for args in exports] == ["csv", "json"]


def test_the_nonexpansive_probe_runs_through_the_traced_binding(tmp_path, monkeypatch):
    from viscofix import semigroup

    probes = _counted(monkeypatch, semigroup, "check_nonexpansive")
    # Declared by no catalog rule: a 2-norm of 1 + 1e-12 is past rounding.
    scaled = {"kind": "linear", "matrix": [[0.0, -(1.0 + 1e-12)], [1.0 + 1e-12, 0.0]]}
    assert _run(tmp_path, scaled) == 0
    assert len(probes) == 1
    assert probes[0][1] == semigroup.PROBE_SAMPLES
