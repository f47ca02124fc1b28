"""Acceptance suite: the eight headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (echoed again in the terminal
summary) and pins its tolerances as constants below. These tests run last so
the wall-clock budget in criterion 8 covers the whole suite.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import conftest
from oracles import (
    ball_iterate_oracle,
    charpoly_sigma,
    rotation_step_oracle,
    scalar_iterate_oracle,
)
from viscofix import (
    AffineOperator,
    BallProjection,
    LinearOperator,
    Negation,
    PlaneRotation,
    certify_norm_attainable,
    check_representation,
    check_retraction_nonexpansive,
    check_step2_bound,
    check_step4_vi,
    make_custom_family,
    make_power_family,
    make_rotation_flow,
    retraction_eval,
)
from viscofix.cli import main

ITERATE_TOL = 1e-8
SCALAR_ITERATE_TOL = 1e-10
ROTATION_LIMIT_TOL_200 = 1e-2
ROTATION_LIMIT_TOL_2000 = 1e-3
CONTRACTION_FACTOR_SLACK = 1e-12
# One rounding of an O(1) iterate is ~2.8e-17; once inner deltas fall below
# ~1e-4 of the iterate scale that noise exceeds the relative slack times d0,
# so the factor check needs an absolute floor well under the slack scale.
FLOAT_NOISE_ABS = 1e-15
PAIRWISE_SLACK = 1e-5
CERT_RESIDUAL_TOL = 1e-8
SIGMA_ORACLE_TOL = 1e-8
DEFECT_TOL = 1e-12
PLANTED_DEFECT_MIN = 0.09
SHORT_RUN_BUDGET = 1.0
ROTATION_BUDGET = 5.0
CERT_BUDGET = 10.0
SUITE_BUDGET = 60.0
#: Inner Picard iterations of the two rotation runs, summed over outer steps.
#: Exact counts, as the benchmark's counters are: a change of solver
#: mechanics must not move them.
ROTATION_INNER_ITERS_200 = 387_098
ROTATION_INNER_ITERS_2000 = 6_664_057


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        line = f"[acceptance {number}] FAIL {label}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"[acceptance {number}] PASS {label}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_ball_iterates_follow_the_closed_form(ball_run):
    with criterion(1, "ball iterates follow the closed form"):
        for step in ball_run.trace.steps:
            gap = np.linalg.norm(np.array(step.point) - ball_iterate_oracle(step.eps))
            assert gap <= ITERATE_TOL
        final_gap = np.linalg.norm(np.array(ball_run.trace.last().point) - [1.0, 0.0])
        assert abs(final_gap - 1.0 / 201.0) <= ITERATE_TOL
        assert ball_run.duration < SHORT_RUN_BUDGET


def test_criterion_2_anchored_scalar_closed_form_and_bounds(scalar_run):
    with criterion(2, "anchored scalar matches 1/(2n-1) with clean stage margins"):
        for step in scalar_run.trace.steps:
            assert abs(step.point[0] - scalar_iterate_oracle(step.n)) <= SCALAR_ITERATE_TOL
        bound = check_step2_bound(
            scalar_run.trace, scalar_run.f, scalar_run.alpha, [0.0], T=scalar_run.target
        )
        assert bound.max_violation <= 0.0
        gap = check_step4_vi(scalar_run.trace, scalar_run.f.apply([0.0]), [0.0])
        assert gap.ok
        assert gap.fit_rel_residual <= 0.2
        assert gap.fit_coeff >= 0.0
        assert scalar_run.duration < SHORT_RUN_BUDGET


def test_criterion_3_rotation_iterates_match_the_inverse_oracle(
    rotation_run, rotation_long_run
):
    with criterion(3, "rotation iterates match the 2x2 inverse oracle"):
        for step in rotation_run.trace.steps:
            gap = np.linalg.norm(np.array(step.point) - rotation_step_oracle(step.eps))
            assert gap <= ITERATE_TOL
        assert np.linalg.norm(rotation_run.result.point) <= ROTATION_LIMIT_TOL_200
        assert np.linalg.norm(rotation_long_run.result.point) <= ROTATION_LIMIT_TOL_2000
        assert rotation_run.duration + rotation_long_run.duration < ROTATION_BUDGET


def test_rotation_runs_keep_their_exact_inner_iteration_counts(rotation_run, rotation_long_run):
    assert sum(step.inner_iters for step in rotation_run.trace.steps) == ROTATION_INNER_ITERS_200
    assert sum(step.inner_iters for step in rotation_long_run.trace.steps) == ROTATION_INNER_ITERS_2000


def test_criterion_4_inner_steps_contract_at_the_blended_modulus(
    ball_run, scalar_run, rotation_run
):
    with criterion(4, "inner steps contract at the blended modulus"):
        for run in (ball_run, scalar_run, rotation_run):
            for _, eps, picard in run.inner:
                q = 1.0 - eps * (1.0 - run.alpha)
                for d0, d1 in zip(picard.step_norms, picard.step_norms[1:]):
                    if d0 == 0.0:
                        continue
                    assert d1 <= (q + CONTRACTION_FACTOR_SLACK) * d0 + FLOAT_NOISE_ABS
            rule = run.opts.inner_tol_rule
            for step in run.trace.steps:
                assert step.implicit_residual <= rule.delta(step.eps, run.opts.outer_tol)


def test_criterion_5_anchored_limits_are_pairwise_nonexpansive():
    with criterion(5, "anchored limits are pairwise nonexpansive"):
        problems = [
            (
                BallProjection([0.0, 0.0], 1.0),
                [[3.0, 0.0], [0.0, -2.0], [2.0, 2.0], [0.5, 0.0], [-1.0, -1.0]],
            ),
            (Negation(1), [[1.0], [-1.0], [0.5], [2.0], [0.0]]),
            (
                PlaneRotation(2, (0, 1), 1.0),
                [[1.0, 0.0], [0.0, 1.0], [-1.0, 2.0], [2.0, 2.0], [0.3, -0.7]],
            ),
        ]
        for target, anchors in problems:
            values = retraction_eval(target, anchors, n_max=200)
            assert not values.failures
            assert len(values.limits) >= 5
            check = check_retraction_nonexpansive(values.limits, tol=PAIRWISE_SLACK)
            assert check.passed


def test_criterion_6_norm_certificates_hold_on_random_matrices():
    with criterion(6, "norm certificates hold on seeded random matrices"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for i in range(100):
            d = 2 + i % 49
            matrix = rng.standard_normal((d, d))
            cert = certify_norm_attainable(LinearOperator(matrix))
            assert cert.residual <= CERT_RESIDUAL_TOL
            assert abs(np.linalg.norm(cert.vector) - 1.0) <= 1e-10
            if d <= 3:
                assert abs(cert.sigma - charpoly_sigma(matrix)) <= SIGMA_ORACLE_TOL
        clustered = LinearOperator(np.diag([k / (k + 1) for k in range(1, 21)]))
        cert = certify_norm_attainable(clustered)
        assert abs(cert.sigma - 20.0 / 21.0) <= SIGMA_ORACLE_TOL
        assert abs(cert.vector[19]) >= 1.0 - 1e-8
        assert time.perf_counter() - start < CERT_BUDGET


def test_criterion_7_composition_law_verified_and_violation_detected():
    with criterion(7, "composition law verified, planted violation detected"):
        powers = make_power_family(PlaneRotation(2, (0, 1), 0.9))
        report = check_representation(powers, n_pairs=40, n_vectors=5, tol=DEFECT_TOL)
        assert report.samples_checked >= 100
        assert report.max_defect <= DEFECT_TOL

        flow = make_rotation_flow([1.0], [0.3, 0.7, 1.0])
        report = check_representation(flow, n_pairs=40, n_vectors=5, tol=DEFECT_TOL)
        assert report.samples_checked >= 100
        assert report.max_defect <= DEFECT_TOL

        import math

        table = {k: PlaneRotation(2, (0, 1), k * math.pi / 5.0) for k in range(7)}
        nudged = PlaneRotation(2, (0, 1), 3.0 * math.pi / 5.0)
        table[3] = AffineOperator(nudged.linear_matrix(), [0.1, 0.0])
        planted = check_representation(
            make_custom_family(table), n_pairs=100, n_vectors=3, tol=DEFECT_TOL
        )
        assert planted.max_defect >= PLANTED_DEFECT_MIN


def test_criterion_8_reruns_are_byte_identical_and_the_suite_is_fast(tmp_path):
    with criterion(8, "reruns are byte-identical and the suite fits its budget"):
        cfg = {
            "problem": {
                "target": {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
                "contraction": {"kind": "constant", "value": [2.0, 0.0]},
            },
            "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 200},
            "seed": 42,
            "problem_id": "ball",
        }
        cfg_path = tmp_path / "ball.json"
        cfg_path.write_text(json.dumps(cfg))
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", str(cfg_path), "--out", str(first), "--quiet"]) == 0
        assert main(["run", str(cfg_path), "--out", str(second), "--quiet"]) == 0
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
        assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
        assert time.monotonic() - conftest.SESSION_START < SUITE_BUDGET
