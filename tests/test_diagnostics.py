"""Stage-by-stage convergence checks evaluated on recorded traces."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from viscofix import (
    AffineOperator,
    BallProjection,
    ConstantOperator,
    ConvergenceTrace,
    Identity,
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
    csv_path = export_trace(scalar_run.trace, "csv", tmp_path / "t.csv")
    assert grade(load_trace(csv_path)) == direct
    json_path = export_trace(scalar_run.trace, "json", tmp_path / "t.json")
    assert grade(load_trace(json_path)) == direct


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
