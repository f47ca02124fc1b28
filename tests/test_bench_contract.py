"""The benchmark's tracer wraps module attributes by name; each must exist."""

from __future__ import annotations

import importlib
import json
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # The tracer's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    tracer = _load("bench_tracer", TRACER_PATH, monkeypatch)
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


def test_a_piece_schedule_builds_one_row_alone_and_plans_the_rest(monkeypatch):
    # solve-nonaffine's solve: its iterates stay inside the ball, so the
    # composite has one piece object, composed once; the plan builds the
    # first step's row alone and every later row in one batch, while the
    # tracer still sees one blend and one inner solve per outer step.
    import numpy as np

    from viscofix import AffineOperator, BallProjection, CompositeOperator, PlaneRotation, operators, schemes

    blends = _counted(monkeypatch, schemes, "blend")
    solves = _counted(monkeypatch, schemes, "picard_solve")
    composes = _counted(monkeypatch, operators, "_compose")
    built = _counted(monkeypatch, schemes, "_blend_form")
    forcing = AffineOperator([[0.5, 0.0], [0.0, 0.5]], [0.1, 0.05])
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    _, trace = schemes.viscosity_implicit_solve(forcing, target, schemes.make_schedule(n_max=30))
    assert all(sum(x * x for x in step.point) <= 1.0 for step in trace.steps)
    assert len(trace) == len(blends) == 30
    assert [type(args[0]) for args in solves] == [AffineOperator] * 30
    assert len(composes) == 1
    # One row with a scalar weight, then one batch of weights.
    assert [np.ndim(args[0]) for args in built] == [0, 1]


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


def test_a_retraction_of_a_nonaffine_target_takes_no_svd(monkeypatch):
    # solve-nonaffine's retraction: each step's piece lifts on the blend's
    # declared modulus.
    import numpy as np

    from viscofix import BallProjection, CompositeOperator, PlaneRotation, schemes

    svds = _counted(monkeypatch, np.linalg, "svd")
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    values = schemes.retraction_eval(target, [[3.0, 0.0], [0.0, -3.0], [-2.0, 2.0]], n_max=50)
    assert values.failures == {}
    assert svds == []


def test_an_affine_schedule_collapses_its_blends_a_batch_at_a_time(monkeypatch):
    # solve-affine's blend counters rest on this: one traced schemes.blend
    # call per outer step, which adopts the step's planned collapse, and the
    # batch work shows in the outer loop's own time. No blend builds its own
    # collapse (operators._blend_form is what blend() itself would call).
    import numpy as np

    from viscofix import AffineOperator, BallProjection, CompositeOperator, PlaneRotation, SolveOptions
    from viscofix import TolerancePolicy, fixed_inner_tol, make_rotation_flow, operators, schemes

    forcing = AffineOperator([[0.5, 0.0], [0.0, 0.5]], [0.1, 0.05])
    flow = make_rotation_flow([1.0], [1.0, 2.0])
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    blends = _counted(monkeypatch, schemes, "blend")
    collapses = _counted(monkeypatch, operators, "_blend_form")
    svds = _counted(monkeypatch, np.linalg, "svd")
    monkeypatch.setattr(schemes, "_PLAN_BATCH", 4 * 300)
    # solve-affine's d = 2 options: a fixed inner tolerance and a long budget.
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(1e-4), policy=TolerancePolicy(max_iter=50_000))
    _, trace = schemes.viscosity_implicit_solve(forcing, flow, schemes.make_schedule(n_max=2000), opts)
    assert len(trace) == len(blends) == 2000
    assert all(args[4] is not None for args in blends)
    assert collapses == []
    # One batched SVD per family member and batch of 300 steps, and no other SVD.
    assert [args[0].shape for args in svds] == [(150, 2, 2)] * 12 + [(100, 2, 2)] * 2
    # A target with no global affine form plans nothing: blend() gets no
    # collapse and keeps the blend, whose pieces lift on the blend's
    # declared modulus, with no SVD.
    for calls in (blends, collapses, svds):
        calls.clear()
    _, trace = schemes.viscosity_implicit_solve(forcing, target, schemes.make_schedule(n_max=30))
    assert len(trace) == len(blends) == 30
    assert all(args[4] is None for args in blends)
    assert collapses == [] and svds == []


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


def test_the_benchmark_matrix_certifies_at_its_norm(monkeypatch):
    # cli-pipeline's certify-na input: U diag(s) V^T with top singular value 2.
    # The benchmark oracle needs it attained at the default --tol of 1e-8,
    # and the tracer counts the certificate's iterations.
    import numpy as np

    from viscofix import LinearOperator, certify_norm_attainable

    inputs = _load("bench_inputs", BENCH / "inputs.py", monkeypatch)
    tracer = _load("bench_tracer", TRACER_PATH, monkeypatch)
    matrix = np.array(inputs.generate("cli-pipeline", 4242)["matrix"])
    cert = certify_norm_attainable(LinearOperator(matrix))
    assert abs(cert.sigma - 2.0) <= 1e-12
    assert cert.residual <= 1e-8
    assert tracer._count_certify((), {}, cert, None) == {"power_iters": 0}
