"""Stage-by-stage convergence checks evaluated on recorded traces."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from viscofix import (
    AffineOperator,
    BallProjection,
    BoxProjection,
    CompositeOperator,
    ConstantOperator,
    ConvergenceTrace,
    DimensionMismatch,
    FunctionOperator,
    Identity,
    LinearOperator,
    Negation,
    NotAFixedPoint,
    PlaneRotation,
    SolveOptions,
    TraceStep,
    anchored_implicit_solve,
    build_proof_step_report,
    check_retraction_nonexpansive,
    check_step2_bound,
    check_step3_residual,
    check_step4_vi,
    check_step5_convergence,
    contraction,
    detect_no_common_fixed_point,
    export_trace,
    fixed_inner_tol,
    fixed_points_linear,
    is_fixed_point,
    load_trace,
    make_schedule,
    residual,
    viscosity_implicit_solve,
)
from viscofix.diagnostics import (
    INEXACT_FACTOR,
    MIN_WINDOW,
    STEP_SLACK,
    TAIL_FRACTION,
    VI_REL_TOL,
    VI_TOL,
    Step2Report,
    Step3Report,
    Step4Report,
)
from viscofix.operators import ISOMETRY
from viscofix.space import as_vector, inner, norm

BALL_LIMIT = [1.0, 0.0]
SCALAR_LIMIT = [0.0]


def test_residual_examples():
    assert residual(Identity(2), [4.0, -1.0]) == 0.0
    assert residual(Negation(1), [1.0]) == 2.0
    assert residual(BallProjection([0.0, 0.0], 1.0), [1.25, 0.0]) == pytest.approx(0.25)


def test_is_fixed_point():
    proj = BallProjection([0.0, 0.0], 1.0)
    assert is_fixed_point(proj, [1.0, 0.0])
    assert is_fixed_point(proj, [0.2, -0.3])
    assert not is_fixed_point(proj, [1.25, 0.0])


# ---------------------------------------------------------------------------
# Step 2: boundedness


def test_step2_ball_bound(ball_run):
    report = check_step2_bound(
        ball_run.trace, ball_run.f, ball_run.alpha, BALL_LIMIT, T=ball_run.target
    )
    assert report.ok
    assert report.bound_base == pytest.approx(1.0)
    assert report.max_violation == pytest.approx(-0.5, abs=1e-6)
    assert report.worst_step == 1


def test_step2_scalar_margin_is_exactly_zero(scalar_run):
    """The first anchored step sits exactly on the bound: eps = 1 gives
    xi_1 = anchor with ||xi_1 - p|| = ||f(p) - p|| and a zero allowance."""
    report = check_step2_bound(
        scalar_run.trace, scalar_run.f, scalar_run.alpha, SCALAR_LIMIT, T=scalar_run.target
    )
    assert report.ok
    assert report.max_violation == 0.0
    assert report.worst_step == 1


def test_step2_rejects_non_fixed_reference(ball_run):
    with pytest.raises(NotAFixedPoint):
        check_step2_bound(ball_run.trace, ball_run.f, 0.0, [2.0, 0.0], T=ball_run.target)


def test_step2_without_target_skips_verification(ball_run):
    report = check_step2_bound(ball_run.trace, ball_run.f, 0.0, [2.0, 0.0])
    assert report.bound_base == pytest.approx(0.0, abs=1e-12)
    assert not report.ok


def test_step2_argument_validation(ball_run):
    with pytest.raises(ValueError):
        check_step2_bound(ball_run.trace, ball_run.f, 1.0, BALL_LIMIT)
    with pytest.raises(ValueError):
        check_step2_bound(ball_run.trace, ball_run.f, 0.0, BALL_LIMIT, deltas=[0.0, 0.0])


def test_step2_explicit_deltas(scalar_run):
    zeros = np.zeros(len(scalar_run.trace))
    report = check_step2_bound(
        scalar_run.trace, scalar_run.f, scalar_run.alpha, SCALAR_LIMIT, deltas=zeros
    )
    assert report.ok
    assert report.max_violation == 0.0


# ---------------------------------------------------------------------------
# Step 3: residual control


def test_step3_ball_residuals(ball_run):
    report = check_step3_residual(ball_run.trace, ball_run.f, ball_run.target)
    assert report.ok
    assert report.final_residual == pytest.approx(1.0 / 201.0, abs=1e-8)
    assert report.max_violation <= 1e-9


def test_step3_flags_a_tampered_trace(scalar_run):
    doctored = ConvergenceTrace()
    for step in scalar_run.trace.steps[:10]:
        doctored.append(
            TraceStep(
                n=step.n,
                eps=step.eps,
                point=step.point,
                implicit_residual=step.implicit_residual,
                fix_residual=step.fix_residual + 0.1,
                inner_iters=step.inner_iters,
                step_delta=step.step_delta,
            )
        )
    report = check_step3_residual(doctored, scalar_run.f, scalar_run.target)
    assert not report.ok
    assert report.max_violation == pytest.approx(0.1, abs=1e-6)


def test_worst_step_is_the_first_of_ties_or_the_first_nan():
    # f = 0 and T = identity at p = 0: the step-2 excess is |x_n| - 10 delta_n
    # and the step-3 excess is fix_residual_n - implicit_residual_n.
    f, T = ConstantOperator([0.0]), Identity(1)

    def doctored(points, fix_residuals):
        trace = ConvergenceTrace()
        for n, (x, fix) in enumerate(zip(points, fix_residuals), start=1):
            trace.append(TraceStep(n, 1.0 / n, (x,), 0.0, fix, 1, 0.0))
        return trace

    tied = doctored([1.0, 3.0, 3.0, 2.0], [0.0, 0.0, 0.0, 0.0])
    step2 = check_step2_bound(tied, f, 0.0, [0.0], deltas=[0.0, 0.0, 0.0, 0.0])
    assert (step2.max_violation, step2.worst_step, step2.ok) == (3.0, 2, False)
    tied = doctored([0.0, 0.0, 0.0, 0.0], [0.1, 0.3, 0.3, 0.2])
    step3 = check_step3_residual(tied, f, T)
    assert (step3.max_violation, step3.worst_step, step3.ok) == (0.3, 2, False)

    # A NaN excess fails the stage closed: the first NaN is the worst step,
    # ahead of larger numbers before or after it.
    nan_second = doctored([5.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    step2 = check_step2_bound(nan_second, f, 0.0, [0.0], deltas=[0.0, np.nan, np.nan])
    assert math.isnan(step2.max_violation) and (step2.worst_step, step2.ok) == (2, False)
    nan_first = doctored([0.0, 0.0, 0.0], [np.nan, 0.1, 0.2])
    step3 = check_step3_residual(nan_first, f, T)
    assert math.isnan(step3.max_violation) and (step3.worst_step, step3.ok) == (1, False)
    # A trace whose every excess is NaN fails too.
    step3 = check_step3_residual(doctored([0.0], [np.nan]), f, T)
    assert math.isnan(step3.max_violation) and (step3.worst_step, step3.ok) == (1, False)


class _AffineCallable(FunctionOperator):
    """x -> m x + b through a callable, with that map declared as its global form."""

    def affine_piece(self, x=None):
        return self.form


def _recorded(shapes, m, b):
    """x -> m x + b as a callable that records the shape of each argument it is given."""
    return lambda x: shapes.append(np.shape(x)) or m @ x + b


def test_a_callable_receives_only_vectors_in_a_stacked_pass():
    # Handed the whole (2, 2) stack, m @ x + b would give a (2, 2) array of
    # wrong values without any error: the pass must give it one row at a
    # time. Both maps are affine, so both steps collapse, and the target's
    # fixed-point residuals wait for the stacked pass after the loop.
    m, b = np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.5, 0.25])
    shapes = []
    target = _AffineCallable(_recorded(shapes, m, b), 2, ISOMETRY)
    target.form = (m.copy(), b.copy())
    f = AffineOperator(0.5 * m, b)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=2))
    assert len(trace) == 2 and shapes == [(2,), (2,)]
    for step in trace.steps:
        gap = np.array(step.point) - (m @ np.array(step.point) + b)
        assert step.fix_residual == math.sqrt(gap.dot(gap))
    # As f in step 3, a callable gets the rows and gives each row's bits;
    # the target takes the same pass on each side.
    shapes.clear()
    recorded = FunctionOperator(_recorded(shapes, 0.5 * m, b), 2, contraction(0.5))
    assert check_step3_residual(trace, recorded, target) == check_step3_residual(trace, f, target)
    assert shapes == [(2,)] * 6
    # A callable that returns the wrong shape is caught in the stacked pass too.
    truncating = FunctionOperator(lambda x: x[:1], 2, name="truncating")
    with pytest.raises(DimensionMismatch, match="'truncating' returned shape"):
        check_step3_residual(trace, truncating, target)
    with pytest.raises(DimensionMismatch, match="'truncating' returned shape"):
        truncating._apply(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Step 4: variational inequality gap


def test_step4_scalar_gap_decays_linearly(scalar_run):
    anchor = scalar_run.f.apply(SCALAR_LIMIT)
    report = check_step4_vi(scalar_run.trace, anchor, SCALAR_LIMIT)
    assert report.ok
    assert report.vi_value == pytest.approx(1.0 / 361.0, rel=1e-3)
    assert report.fit_coeff == pytest.approx(0.5, abs=0.05)
    assert report.fit_rel_residual <= 0.2


def test_step4_zero_gap_when_anchor_equals_limit():
    _, trace = anchored_implicit_solve([0.7], Identity(1), n_max=10)
    report = check_step4_vi(trace, [0.7], [0.7])
    assert report.ok
    assert abs(report.vi_value) <= 1e-12
    assert report.fit_rel_residual == 0.0


# ---------------------------------------------------------------------------
# Step 5: convergence of the iterates


def test_step5_with_oracle(ball_run):
    report = check_step5_convergence(ball_run.trace, oracle_limit=BALL_LIMIT, tol=1e-2)
    assert report.used_oracle
    assert report.ok
    assert report.distance == pytest.approx(1.0 / 201.0, abs=1e-8)
    strict = check_step5_convergence(ball_run.trace, oracle_limit=BALL_LIMIT)
    assert not strict.ok


def test_step5_scalar_distance(scalar_run):
    report = check_step5_convergence(scalar_run.trace, oracle_limit=SCALAR_LIMIT, tol=1e-2)
    assert report.distance == pytest.approx(1.0 / 399.0, abs=1e-8)
    assert report.ok


def test_step5_cauchy_fallback(ball_run):
    report = check_step5_convergence(ball_run.trace, tol=1e-4)
    assert not report.used_oracle
    assert report.ok
    assert report.distance == pytest.approx(1.0 / (181.0 * 182.0), rel=1e-3)


def _tiny_trace(nan_steps) -> ConvergenceTrace:
    """20 steps at (1e-9 eps_n, 0) with step_delta 1e-9; each of nan_steps has NaN in both."""
    trace = ConvergenceTrace()
    for n in range(1, 21):
        eps = 1.0 / (n + 1)
        x, delta = (math.nan, math.nan) if n in nan_steps else (1e-9 * eps, 1e-9)
        trace.append(TraceStep(n, eps, (x, 0.0), 0.0, 0.0, 1, delta))
    return trace


@pytest.mark.parametrize(
    "nan_steps", [(16,), (19,), tuple(range(1, 21))], ids=["first-in-window", "inside-window", "all"]
)
def test_a_nan_in_the_tail_window_fails_steps_4_and_5(nan_steps):
    # The tail window is the last 5 steps, 16-20. Python's max skips a NaN
    # unless it comes first, which let a NaN inside the window pass.
    trace = _tiny_trace(nan_steps)
    step4 = check_step4_vi(trace, [1.0, 0.0], [0.0, 0.0])
    assert math.isnan(step4.vi_value) and not step4.ok
    step5 = check_step5_convergence(trace)
    assert math.isnan(step5.distance) and not step5.ok
    # Without the NaN both pass.
    assert check_step4_vi(_tiny_trace(()), [1.0, 0.0], [0.0, 0.0]).ok
    assert check_step5_convergence(_tiny_trace(())).ok


def test_a_nan_loaded_from_a_csv_fails_steps_4_and_5(tmp_path):
    loaded = load_trace(export_trace(_tiny_trace((19,)), "csv", tmp_path / "trace.csv"))
    assert not check_step4_vi(loaded, [1.0, 0.0], [0.0, 0.0]).ok
    assert not check_step5_convergence(loaded).ok


# ---------------------------------------------------------------------------
# Stacked passes against the per-point reference


def _per_point_reports(trace, f, T, alpha, p, anchor, limit):
    """Steps 2-4 as they were computed one point at a time through the public apply."""

    def worst(excess):
        max_excess, at = -np.inf, 0
        for value, step in zip(excess, trace.steps):
            if math.isnan(value):
                return math.nan, step.n
            if value > max_excess:
                max_excess, at = value, step.n
        return float(max_excess), at

    points = trace.points()
    base = norm(f.apply(p) - p) / (1.0 - alpha)
    excess = [norm(x - p) for x in points] - (base + INEXACT_FACTOR * trace.implicit_residuals())
    violation, at = worst(excess)
    step2 = Step2Report(base, violation, at, violation <= STEP_SLACK)
    gaps = np.array([norm(f.apply(x) - T.apply(x)) for x in points])
    violation, at = worst(trace.fix_residuals() - (trace.eps_values() * gaps + trace.implicit_residuals()))
    step3 = Step3Report(float(trace.last().fix_residual), violation, at, violation <= STEP_SLACK)
    direction = as_vector(anchor) - limit
    values = np.array([inner(direction, x - limit) for x in points])
    eps = trace.eps_values()
    v_fit, e_fit = values[len(values) // 2:], eps[len(values) // 2:]
    coeff = float(np.dot(v_fit, e_fit) / np.dot(e_fit, e_fit))
    scale = float(np.linalg.norm(v_fit))
    rel = 0.0 if scale <= 1e-15 else float(np.linalg.norm(v_fit - coeff * e_fit) / scale)
    tail = values[-len(trace.window(TAIL_FRACTION, MIN_WINDOW)):]
    vi_value = math.nan if np.isnan(tail).any() else float(max(tail))
    ok = vi_value <= VI_TOL or (coeff >= -STEP_SLACK and rel <= VI_REL_TOL and not math.isnan(vi_value))
    return step2, step3, Step4Report(vi_value, coeff, rel, ok)


def _doctored_trace(dim, nan_cells) -> ConvergenceTrace:
    """30 seeded steps in R^dim; with nan_cells, NaN in a point coordinate and in each residual column."""
    rng = np.random.default_rng([dim, 23])
    points = 2.0 * rng.standard_normal((30, dim))
    cells = 1e-3 * rng.random((30, 3))
    if nan_cells:
        points[7, dim - 1] = np.nan
        points[27, 0] = np.nan
        cells[11, 0] = cells[13, 1] = cells[26, 2] = np.nan
    trace = ConvergenceTrace()
    for n in range(1, 31):
        implicit, fix, delta = cells[n - 1].tolist()
        trace.append(TraceStep(n, 1.0 / (n + 1), tuple(points[n - 1].tolist()), implicit, fix, 3, delta))
    return trace


def _stage_targets(dim):
    center = np.linspace(-0.5, 0.5, dim)
    ball = BallProjection(center, 1.5)
    return {
        "ball": ball,
        "box": BoxProjection(-np.ones(dim), np.linspace(0.5, 1.5, dim)),
        "rotation-ball": CompositeOperator([PlaneRotation(dim, (0, dim - 1), 0.7), ball]),
        "linear": LinearOperator(np.random.default_rng([dim, 5]).standard_normal((dim, dim))),
    }


@pytest.mark.parametrize("nan_cells", [False, True], ids=["finite", "nan-cells"])
@pytest.mark.parametrize("kind", ["ball", "box", "rotation-ball", "linear"])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_stage_checks_equal_the_per_point_reference(dim, kind, nan_cells):
    trace = _doctored_trace(dim, nan_cells)
    f, T = AffineOperator(0.5 * np.eye(dim), np.linspace(0.1, 0.3, dim)), _stage_targets(dim)[kind]
    p, limit = np.full(dim, 0.25), as_vector(np.linspace(0.3, -0.3, dim))
    anchor = f.apply(limit)
    stacked = (
        check_step2_bound(trace, f, 0.5, p),
        check_step3_residual(trace, f, T),
        check_step4_vi(trace, anchor, limit),
    )
    # repr shows each float's every bit, and a NaN as nan.
    assert repr(stacked) == repr(_per_point_reports(trace, f, T, 0.5, p, anchor, limit))


def test_stacked_stage_checks_keep_the_dimension_check_and_the_empty_trace():
    trace = _doctored_trace(3, False)
    with pytest.raises(DimensionMismatch, match="operator of dimension 2 applied to vector of shape \\(3,\\)"):
        check_step3_residual(trace, ConstantOperator([0.0, 0.0]), Identity(3))
    with pytest.raises(DimensionMismatch, match="operator of dimension 4"):
        check_step3_residual(trace, ConstantOperator([0.0, 0.0, 0.0]), Identity(4))
    empty = ConvergenceTrace()
    step2 = check_step2_bound(empty, ConstantOperator([0.0]), 0.0, [0.0])
    assert (step2.max_violation, step2.worst_step, step2.ok) == (-math.inf, 0, True)
    with pytest.raises(IndexError):
        check_step3_residual(empty, ConstantOperator([0.0]), Identity(1))
    with pytest.raises(ValueError):
        check_step4_vi(empty, [1.0], [0.0])


# ---------------------------------------------------------------------------
# Retraction nonexpansiveness


def test_retraction_check_passes_for_contracting_limits():
    limits = {
        (3.0, 0.0): [1.0, 0.0],
        (0.0, 2.0): [0.0, 1.0],
        (0.0, 0.0): [0.0, 0.0],
    }
    check = check_retraction_nonexpansive(limits)
    assert check.passed
    assert check.max_excess <= 0.0


def test_retraction_check_equality_case():
    limits = {(1.0, 0.0): [1.0, 0.0], (0.0, 1.0): [0.0, 1.0]}
    check = check_retraction_nonexpansive(limits)
    assert check.passed
    assert check.max_excess == pytest.approx(0.0, abs=1e-12)


def test_retraction_check_flags_expansion():
    limits = {(0.0, 0.0): [0.0, 0.0], (1.0, 0.0): [3.0, 0.0]}
    check = check_retraction_nonexpansive(limits)
    assert not check.passed
    assert check.max_excess == pytest.approx(2.0)
    assert set(check.worst_pair) == {(0.0, 0.0), (1.0, 0.0)}


def test_retraction_check_needs_two_anchors():
    with pytest.raises(ValueError):
        check_retraction_nonexpansive({(0.0, 0.0): [0.0, 0.0]})


# ---------------------------------------------------------------------------
# Stagnation


def test_stagnation_flags_translation():
    drift = AffineOperator(np.eye(2), [1.0, 0.0])
    result, trace = viscosity_implicit_solve(
        ConstantOperator([0.0, 0.0]), drift, make_schedule(n_max=30)
    )
    report = detect_no_common_fixed_point(trace, result.converged, 1e-8)
    assert report.stalled
    assert report.tail_min == pytest.approx(1.0, abs=1e-6)


def test_stagnation_spares_slow_but_decaying_runs(ball_run):
    report = detect_no_common_fixed_point(ball_run.trace, ball_run.result.converged, 1e-8)
    assert not report.stalled
    assert report.tail_min < 0.5 * report.head_min


def test_stagnation_short_circuits_converged_runs():
    result, trace = viscosity_implicit_solve(
        ConstantOperator([1.0, 2.0]), Identity(2), make_schedule(n_max=20)
    )
    report = detect_no_common_fixed_point(trace, result.converged, 1e-8)
    assert not report.stalled
    assert report.tail_min == 0.0


def _residual_trace(residuals) -> ConvergenceTrace:
    """A trace whose fixed-point residuals are the given values, steps 1, 2, ... in turn."""
    trace = ConvergenceTrace()
    for n, fix in enumerate(residuals, start=1):
        trace.append(TraceStep(n, 1.0 / n, (0.0,), 0.0, fix, 1, 0.0))
    return trace


def test_stagnation_flags_an_all_nan_tail():
    # Python's min over the tail window skipped these NaNs and left the run unflagged.
    report = detect_no_common_fixed_point(_residual_trace([1.0] * 15 + [math.nan] * 5), False, 1e-8)
    assert report.stalled
    assert math.isnan(report.tail_min)
    assert report.head_min == 1.0


def test_stagnation_flags_one_nan_inside_a_decayed_tail():
    # Without the NaN the tail best, 0.1, is below half the head best and the run decays.
    residuals = [1.0] * 15 + [0.1] * 5
    assert not detect_no_common_fixed_point(_residual_trace(residuals), False, 1e-8).stalled
    residuals[17] = math.nan
    report = detect_no_common_fixed_point(_residual_trace(residuals), False, 1e-8)
    assert report.stalled
    assert math.isnan(report.tail_min)


def test_stagnation_flags_a_nan_head_above_tolerance():
    # A NaN head best shows no decay, so a tail above the tolerance stalls; one below it does not.
    residuals = [1.0, 1.0, math.nan] + [1.0] * 12 + [0.1] * 5
    report = detect_no_common_fixed_point(_residual_trace(residuals), False, 1e-8)
    assert report.stalled
    assert math.isnan(report.head_min)
    assert report.tail_min == 0.1
    assert not detect_no_common_fixed_point(_residual_trace(residuals), False, 0.5).stalled


# ---------------------------------------------------------------------------
# Bundled reports


def test_full_report_on_the_scalar_run(scalar_run):
    report = build_proof_step_report(
        scalar_run.trace,
        scalar_run.f,
        scalar_run.target,
        fixed_point=SCALAR_LIMIT,
        oracle_limit=SCALAR_LIMIT,
        step5_tol=1e-2,
    )
    assert report.ok
    assert report.retraction is None
    payload = report.to_dict()
    json.dumps(payload)
    assert set(payload) == {"step2", "step3", "step4", "step5", "retraction", "ok"}
    assert payload["ok"] is True


def test_report_with_projected_fixed_set():
    axis_shift = AffineOperator(0.5 * np.eye(3), [0.0, 0.0, 1.0])
    rot = PlaneRotation(3, (0, 1), 0.9)
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(1e-11))
    _, trace = viscosity_implicit_solve(axis_shift, rot, make_schedule(n_max=60), opts)
    report = build_proof_step_report(
        trace,
        axis_shift,
        rot,
        fixed_set=fixed_points_linear(rot),
        oracle_limit=[0.0, 0.0, 2.0],
        step5_tol=1e-6,
    )
    assert report.ok


def test_report_includes_retraction_when_limits_are_given(scalar_run):
    limits = {(1.0,): [0.0025], (-1.0,): [-0.0025], (0.0,): [0.0]}
    report = build_proof_step_report(
        scalar_run.trace,
        scalar_run.f,
        scalar_run.target,
        fixed_point=SCALAR_LIMIT,
        oracle_limit=SCALAR_LIMIT,
        step5_tol=1e-2,
        retraction_limits=limits,
    )
    assert report.retraction is not None
    assert report.retraction.passed
    assert report.ok


def test_report_survives_trace_round_trips(scalar_run, tmp_path):
    def grade(trace):
        return build_proof_step_report(
            trace,
            scalar_run.f,
            scalar_run.target,
            fixed_point=SCALAR_LIMIT,
            oracle_limit=SCALAR_LIMIT,
            step5_tol=1e-2,
        ).to_dict()

    direct = grade(scalar_run.trace)
    # trace.csv is the one step table a run writes.
    csv_path = export_trace(scalar_run.trace, "csv", tmp_path / "t.csv")
    assert grade(load_trace(csv_path)) == direct


def test_report_builder_validation(scalar_run):
    with pytest.raises(ValueError):
        build_proof_step_report(ConvergenceTrace(), scalar_run.f, scalar_run.target)
    with pytest.raises(ValueError):
        build_proof_step_report(scalar_run.trace, Negation(1), scalar_run.target)


def test_report_without_references_still_grades_the_trace(ball_run):
    report = build_proof_step_report(ball_run.trace, ball_run.f, ball_run.target)
    assert report.step2.ok
    assert report.step3.ok
    assert not report.step5.used_oracle
