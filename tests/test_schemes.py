"""Schedules, the inner Picard solver, and the outer implicit iterations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viscofix import (
    AffineOperator,
    AveragedOperator,
    BallProjection,
    BoxProjection,
    CompositeOperator,
    ConstantOperator,
    DimensionMismatch,
    EpsilonSchedule,
    FunctionOperator,
    Identity,
    InnerTolRule,
    InvalidSchedule,
    IteratedOperator,
    LinearOperator,
    MaxIterExceeded,
    Negation,
    NonDecreasingSchedule,
    NonFiniteValue,
    NotAContraction,
    NotNonexpansive,
    PlaneRotation,
    SolveOptions,
    TolerancePolicy,
    anchored_implicit_solve,
    contraction,
    coupled_inner_tol,
    fixed_inner_tol,
    implicit_step,
    make_rotation_flow,
    make_schedule,
    picard_solve,
    retraction_eval,
    viscosity_implicit_solve,
)
from viscofix.operators import NONEXPANSIVE, BlendOperator
from viscofix.schemes import _PLAIN_STEPS

from oracles import bisect_increasing

COS_FIXED_POINT = 0.7390851332151607


# ---------------------------------------------------------------------------
# Schedules


def test_harmonic_schedule_values():
    sched = make_schedule("harmonic", {"p": 1.0}, n_max=4)
    assert sched.values == (1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0)
    assert sched.eps(1) == 0.5
    assert sched.eps(4) == 0.2
    assert len(sched) == 4


def test_harmonic_schedule_sublinear_exponent():
    sched = make_schedule("harmonic", {"p": 0.5}, n_max=100)
    assert sched.eps(100) == pytest.approx(1.0 / math.sqrt(101.0), rel=1e-12)


def test_geometric_schedule_values():
    sched = make_schedule("geometric", {"r": 0.5}, n_max=3)
    assert sched.values == (0.5, 0.25, 0.125)


def test_explicit_schedule_round_trip():
    sched = make_schedule("explicit", {"values": [0.9, 0.5, 0.1]})
    assert sched.values == (0.9, 0.5, 0.1)
    assert sched.n_max == 3


def test_schedule_defaults():
    sched = make_schedule()
    assert sched.kind == "harmonic"
    assert sched.n_max == 200
    assert sched.eps(1) == 0.5


def test_explicit_schedule_must_decrease():
    with pytest.raises(NonDecreasingSchedule, match="schedule not strictly decreasing"):
        make_schedule("explicit", {"values": [0.5, 0.6]})
    assert issubclass(NonDecreasingSchedule, InvalidSchedule)


def test_schedule_validation():
    with pytest.raises(InvalidSchedule):
        make_schedule("explicit", {"values": [0.5, 0.0]})
    with pytest.raises(InvalidSchedule):
        make_schedule("explicit", {"values": [1.0, 0.5]})
    with pytest.raises(InvalidSchedule):
        make_schedule("explicit", {"values": []})
    with pytest.raises(InvalidSchedule):
        make_schedule("explicit")
    with pytest.raises(InvalidSchedule):
        make_schedule("explicit", {"values": [0.5, 0.4]}, n_max=3)
    with pytest.raises(InvalidSchedule):
        make_schedule("harmonic", {"p": -1.0})
    with pytest.raises(InvalidSchedule):
        make_schedule("harmonic", n_max=0)
    with pytest.raises(InvalidSchedule):
        make_schedule("geometric", {"r": 1.0})
    with pytest.raises(InvalidSchedule):
        make_schedule("staircase")


def test_anchored_schedule_values():
    sched = make_schedule("anchored", n_max=4)
    assert sched.values == (1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)
    assert sched.kind == "anchored" and sched.n_max == 4
    assert make_schedule("anchored").n_max == 200
    with pytest.raises(InvalidSchedule):
        make_schedule("anchored", n_max=0)


def test_only_anchored_schedules_start_at_one():
    anchor, target = ConstantOperator([1.0]), Negation(1)
    result, _ = viscosity_implicit_solve(anchor, target, EpsilonSchedule("anchored", 2, (1.0, 0.5)))
    assert result.iterations == 2
    for kind in ("harmonic", "geometric", "explicit"):
        with pytest.raises(InvalidSchedule):
            viscosity_implicit_solve(anchor, target, EpsilonSchedule(kind, 2, (1.0, 0.5)))


def test_inner_tol_rules():
    assert fixed_inner_tol(1e-6).delta(0.5, 1e-8) == 1e-6
    coupled = coupled_inner_tol(1.0)
    assert coupled.delta(0.5, 1e-8) == 1e-8
    assert coupled.delta(1e-5, 1e-8) == pytest.approx(1e-10)
    with pytest.raises(ValueError):
        InnerTolRule("adaptive", 1.0)
    with pytest.raises(ValueError):
        fixed_inner_tol(0.0)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(outer_tol=0.0)


# ---------------------------------------------------------------------------
# Inner Picard solver


def test_picard_affine_line():
    res = picard_solve(AffineOperator([[0.5]], [1.0]), [0.0], 1e-10)
    assert res.converged
    assert res.point[0] == pytest.approx(2.0, abs=1e-10)
    assert res.residual <= 1e-10
    assert len(res.step_norms) == res.iterations


def test_picard_constant_returns_after_one_application():
    res = picard_solve(ConstantOperator([3.0, 1.0]), [0.0, 0.0], 1e-10)
    assert res.iterations == 1
    assert res.residual == 0.0
    assert res.converged
    np.testing.assert_array_equal(res.point, [3.0, 1.0])
    assert res.step_norms == (math.sqrt(10.0),)


def test_picard_cosine_against_bisection():
    cos_map = FunctionOperator(lambda x: np.cos(x), 1, contraction(math.sin(1.0)))
    res = picard_solve(cos_map, [0.5], 1e-8)
    assert res.point[0] == pytest.approx(COS_FIXED_POINT, abs=1e-8)
    root = bisect_increasing(lambda x: x - math.cos(x), 0.0, 1.0)
    assert res.point[0] == pytest.approx(root, abs=1e-8)


def test_picard_fast_path_matches_generic_loop():
    matrix = [[0.3, 0.1], [0.0, 0.4]]
    offset = [1.0, -1.0]
    fast = picard_solve(AffineOperator(matrix, offset, contraction(0.5)), [0.0, 0.0], 1e-9)
    m = np.array(matrix)
    b = np.array(offset)
    generic = picard_solve(
        FunctionOperator(lambda x: m @ x + b, 2, contraction(0.5)), [0.0, 0.0], 1e-9
    )
    assert fast.iterations == generic.iterations
    np.testing.assert_array_equal(fast.point, generic.point)


#: Blend weights whose absolute values sum to exactly 1 in floating point, so
#: every generated tree keeps a declared Lipschitz bound of at most 1.
BLEND_WEIGHTS = ((0.5, 0.5), (0.25, 0.75), (-0.5, 0.5), (0.75, -0.25))


def _public(op):
    """The same map as op, reached only through op's checked public apply."""
    return FunctionOperator(op.apply, op.dim, op.declared_class, name=op.kind)


def _twins(build, *children):
    """(tree on the bare children, public wrapper of the tree on their public twins)."""
    return build(*(c[0] for c in children)), _public(build(*(c[1] for c in children)))


def _nonexpansive_twins(dim):
    """Nested composite/averaged/iterated/blend trees over catalog leaves.

    Each example is a pair: the tree itself, whose solve runs the unchecked
    _apply at every level, and a twin in which every node is wrapped in a
    FunctionOperator, so that every level goes through a public apply.
    """
    vectors = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    leaves = st.one_of(
        st.builds(PlaneRotation, st.just(dim), st.just((0, dim - 1)), st.floats(-3.0, 3.0)),
        st.builds(BallProjection, vectors, st.floats(0.25, 2.0)),
        vectors.map(lambda c: BoxProjection([v - 1.0 for v in c], [v + 1.0 for v in c])),
        st.just(Negation(dim)),
        st.just(Identity(dim)),
    ).map(lambda leaf: (leaf, _public(leaf)))

    def nodes(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                lambda cs: _twins(lambda *ops: CompositeOperator(ops), *cs)
            ),
            st.builds(
                lambda c, lam: _twins(lambda op: AveragedOperator(op, lam), c),
                children, st.sampled_from((0.25, 0.5, 1.0)),
            ),
            st.builds(
                lambda c, n: _twins(lambda op: IteratedOperator(op, n), c),
                children, st.integers(0, 3),
            ),
            st.builds(
                lambda w, c1, c2: _twins(lambda s1, s2: BlendOperator(w[0], s1, w[1], s2), c1, c2),
                st.sampled_from(BLEND_WEIGHTS), children, children,
            ),
        )

    return st.recursive(leaves, nodes, max_leaves=6)


@st.composite
def _inner_problems(draw):
    dim = draw(st.sampled_from((2, 3, 5)))
    target = draw(_nonexpansive_twins(dim))
    anchor = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    # Half a ball projection plus a constant: a 0.5-contraction with no affine
    # form, so picard_solve always takes the generic loop.
    forcing = BlendOperator(0.5, BallProjection(np.zeros(dim), 1.0), 1.0, ConstantOperator(anchor))
    eps = draw(st.sampled_from((0.1, 0.3, 0.7)))
    problem = _twins(lambda f, t: BlendOperator(eps, f, 1.0 - eps, t), (forcing, _public(forcing)), target)
    start = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    return problem, np.array(start)


@settings(max_examples=60, deadline=None)
@given(problems=_inner_problems())
def test_picard_unchecked_path_matches_public_apply(problems):
    (op, public), start = problems
    assert op.declared_class == public.declared_class
    assert op.declared_class.kind == "contraction"
    direct = picard_solve(op, start, 1e-9)
    checked = picard_solve(public, start, 1e-9)
    assert direct.iterations == checked.iterations
    assert direct.step_norms == checked.step_norms
    np.testing.assert_array_equal(direct.point, checked.point)


def test_picard_three_dim_fast_path_agrees():
    matrix = np.array([[0.25, 0.125, 0.0], [0.0, 0.25, 0.0625], [0.125, 0.0, 0.25]])
    offset = np.array([1.0, -2.0, 0.5])
    fast = picard_solve(AffineOperator(matrix, offset, contraction(0.5)), np.zeros(3), 1e-9)
    generic = picard_solve(
        FunctionOperator(lambda x: matrix @ x + offset, 3, contraction(0.5)), np.zeros(3), 1e-9
    )
    np.testing.assert_allclose(fast.point, generic.point, atol=5e-9)
    exact = np.linalg.solve(np.eye(3) - matrix, offset)
    np.testing.assert_allclose(fast.point, exact, atol=1e-8)


def test_picard_estimates_undeclared_contractions():
    res = picard_solve(FunctionOperator(lambda x: 0.4 * x + 1.0, 1), [0.0], 1e-9)
    assert res.point[0] == pytest.approx(1.0 / 0.6, abs=1e-8)


def test_picard_rejects_non_contractions():
    with pytest.raises(NotAContraction):
        picard_solve(Identity(2), [0.0, 0.0], 1e-8)
    with pytest.raises(NotAContraction):
        picard_solve(BallProjection([0.0, 0.0], 1.0), [0.0, 0.0], 1e-8)
    with pytest.raises(NotAContraction):
        picard_solve(FunctionOperator(lambda x: 2.0 * x, 1), [0.0], 1e-8)


def test_picard_budget_failure_reports_modulus():
    tight = TolerancePolicy(max_iter=3)
    with pytest.raises(MaxIterExceeded, match="q=0.9"):
        picard_solve(AffineOperator([[0.9]], [1.0]), [0.0], 1e-12, policy=tight)


def test_picard_fails_fast_on_non_finite_values():
    poisoned = FunctionOperator(lambda x: x * math.nan, 2, contraction(0.5))
    with pytest.raises(NonFiniteValue, match=r"step 1 .*operator kind 'function'"):
        picard_solve(poisoned, [1.0, 0.0], 1e-8)
    # An infinite value is caught too, however late it appears.
    late = FunctionOperator(lambda x: 0.5 * x + 1.0 if x[0] < 1.5 else x * math.inf, 1, contraction(0.5))
    with pytest.raises(NonFiniteValue, match=r"step \d+ produced a non-finite value"):
        picard_solve(late, [0.0], 1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_rejects_an_undeclared_non_finite_map():
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'function'"):
        picard_solve(FunctionOperator(lambda x: x * math.nan, 2), [1.0, 0.0], 1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_survives_an_overflowing_step_norm():
    # The first step's norm overflows to inf, but every iterate is finite.
    huge = FunctionOperator(lambda x: 0.5 * x + 1e200, 2, contraction(0.5))
    res = picard_solve(huge, [0.0, 0.0], 1.0)
    assert res.step_norms[0] == math.inf
    np.testing.assert_allclose(res.point, [2e200, 2e200])


def test_picard_argument_validation():
    with pytest.raises(ValueError):
        picard_solve(AffineOperator([[0.5]], [1.0]), [0.0], 0.0)
    with pytest.raises(DimensionMismatch):
        picard_solve(AffineOperator([[0.5]], [1.0]), [0.0, 0.0], 1e-8)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_picard_affine_overflow_is_a_non_finite_value(dim):
    # x = x/2 + c has the fixed point 2c, past the float range, so the
    # iterates reach inf and then NaN inside the plain first block.
    overflowing = AffineOperator(0.5 * np.eye(dim), [1.7e308] * dim)
    with pytest.raises(NonFiniteValue, match=r"steps 1-\d+ .*operator kind 'affine'"):
        picard_solve(overflowing, np.zeros(dim), 1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_picard_affine_survives_an_overflowing_step_norm(dim):
    # The first step norms overflow to inf, but every iterate is finite.
    huge = AffineOperator(0.5 * np.eye(dim), [1e200] * dim)
    res = picard_solve(huge, np.zeros(dim), 1.0)
    assert res.step_norms[0] == math.inf
    np.testing.assert_allclose(res.point, [2e200] * dim)


def _affine_twins(seed, dim, alpha, declared=None):
    """An affine contraction with ||M|| = alpha, and the same map on the generic loop.

    M = alpha Q diag(u) with Q orthogonal and max u = 1, so the spectral
    radius stays near alpha and inner solves run long. Both twins declare
    the same modulus (||M|| unless given), hence the same stopping threshold.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    u = rng.uniform(0.5, 1.0, dim)
    u[0] = 1.0
    m = alpha * q @ np.diag(u)
    c = rng.uniform(-1.0, 1.0, dim)
    declared = contraction(float(np.linalg.norm(m, 2)) if declared is None else declared)
    twin = FunctionOperator(lambda x: m @ x + c, dim, declared)
    return AffineOperator(m, c, declared), twin, rng.uniform(-10.0, 10.0, dim)


def _blocked_ratios(res, dim):
    """Ratios of consecutive step norms computed in blocks.

    The plain first block (d <= 4) carries the rounding of its iterate in
    every step, so its ratios only respect alpha above a noise floor, as in
    acceptance criterion 4; blocked steps are powers of M applied to one
    step and carry no such floor.
    """
    norms = np.array(res.step_norms)
    ratios = norms[1:] / norms[:-1]
    return ratios[_PLAIN_STEPS:] if dim <= 4 else ratios


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2, 3, 5, 8)),
    alpha=st.floats(0.95, 0.995),
    tol=st.floats(1e-9, 1e-5),
)
def test_picard_blocked_affine_matches_the_generic_loop(seed, dim, alpha, tol):
    affine, twin, start = _affine_twins(seed, dim, alpha)
    blocked = picard_solve(affine, start, tol)
    generic = picard_solve(twin, start, tol)
    assume(generic.iterations > _PLAIN_STEPS)
    assert abs(blocked.iterations - generic.iterations) <= 1
    assert len(blocked.step_norms) == blocked.iterations
    # The certified bounds, plus a few roundings of the O(100) iterates.
    gap = np.linalg.norm(blocked.point - generic.point)
    assert gap <= blocked.residual + generic.residual + 1e-12 * (1.0 + np.linalg.norm(generic.point))
    assert np.all(_blocked_ratios(blocked, dim) <= affine.declared_class.alpha + 1e-12)


@pytest.mark.parametrize(
    "seed, dim, alpha, declared",
    [(1, 1, 0.99, None), (2, 2, 0.995, None), (3, 3, 0.99, None), (4, 4, 0.98, None),
     (5, 5, 0.99, None), (6, 8, 0.995, None), (7, 2, 0.99, 0.999), (8, 3, 0.999, 0.99),
     (9, 8, 0.99, 0.9)],
)
def test_picard_blocked_affine_keeps_the_iteration_count(seed, dim, alpha, declared):
    # A declared modulus above ||M|| oversizes the first block, one below it
    # undersizes it so that later blocks carry the stop; neither may move it.
    affine, twin, start = _affine_twins(seed, dim, alpha, declared)
    blocked = picard_solve(affine, start, 1e-8)
    generic = picard_solve(twin, start, 1e-8)
    assert blocked.iterations > _PLAIN_STEPS
    assert blocked.iterations == generic.iterations
    np.testing.assert_allclose(blocked.step_norms, generic.step_norms, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 5])
def test_picard_blocked_budget_matches_the_plain_loop(dim):
    affine, twin, start = _affine_twins(11, dim, 0.99)
    needed = picard_solve(twin, start, 1e-8).iterations
    assert needed > _PLAIN_STEPS + 1
    exact = picard_solve(affine, start, 1e-8, TolerancePolicy(max_iter=needed))
    assert exact.iterations == needed
    # One step short, the budget runs out inside a blocked block.
    with pytest.raises(MaxIterExceeded, match=rf"budget of {needed - 1} steps.*q="):
        picard_solve(affine, start, 1e-8, TolerancePolicy(max_iter=needed - 1))


def test_picard_first_block_is_bit_identical_to_the_generic_loop():
    line = picard_solve(AffineOperator([[0.7]], [0.3]), [5.0], 1e-9)
    line_twin = picard_solve(FunctionOperator(lambda x: 0.7 * x + 0.3, 1, contraction(0.7)), [5.0], 1e-9)
    assert line.iterations == line_twin.iterations <= _PLAIN_STEPS
    assert line.step_norms == line_twin.step_norms
    np.testing.assert_array_equal(line.point, line_twin.point)

    matrix = [[0.3, 0.1, -0.2], [0.05, 0.4, 0.1], [-0.1, 0.2, 0.25]]
    offset = [1.0, -2.0, 0.5]
    alpha = float(np.linalg.norm(matrix, 2))

    def ordered(x):
        # The plain loop's order of operations, so bit identity is a fair demand.
        return np.array([sum(row[j] * x[j] for j in range(3)) + b for row, b in zip(matrix, offset)])

    cube = picard_solve(AffineOperator(matrix, offset, contraction(alpha)), np.zeros(3), 1e-9)
    cube_twin = picard_solve(FunctionOperator(ordered, 3, contraction(alpha)), np.zeros(3), 1e-9)
    assert cube.iterations == cube_twin.iterations <= _PLAIN_STEPS
    np.testing.assert_array_equal(cube.point, cube_twin.point)


# ---------------------------------------------------------------------------
# Single implicit steps


def test_implicit_step_negation():
    f = AffineOperator([[0.5]], [1.0])
    xi = implicit_step(f, Negation(1), 0.5, [0.0], 1e-12)
    assert xi[0] == pytest.approx(0.4, abs=1e-10)


def test_implicit_step_identity_collapses_to_forcing_fixed_point():
    f = AffineOperator([[0.5]], [1.0])
    xi = implicit_step(f, Identity(1), 0.5, [0.0], 1e-12)
    assert xi[0] == pytest.approx(2.0, abs=1e-10)


def test_implicit_step_ball():
    f = ConstantOperator([2.0, 0.0])
    xi = implicit_step(f, BallProjection([0.0, 0.0], 1.0), 0.25, [0.0, 0.0], 1e-9)
    np.testing.assert_allclose(xi, [1.25, 0.0], atol=1e-8)


def test_implicit_step_eps_validation():
    f = AffineOperator([[0.5]], [1.0])
    with pytest.raises(ValueError):
        implicit_step(f, Negation(1), 0.0, [0.0], 1e-9)
    with pytest.raises(ValueError):
        implicit_step(f, Negation(1), 1.2, [0.0], 1e-9)
    xi = implicit_step(f, Negation(1), 1.0, [0.0], 1e-9)
    assert xi[0] == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Outer viscosity iteration


def test_viscosity_stops_early_on_identity_target():
    f = ConstantOperator([1.0, 2.0])
    result, trace = viscosity_implicit_solve(f, Identity(2), make_schedule(n_max=50))
    assert result.converged
    assert result.iterations == 2
    assert len(trace) == 2
    np.testing.assert_allclose(result.point, [1.0, 2.0], atol=1e-7)


def test_viscosity_requires_materialized_schedule():
    with pytest.raises(InvalidSchedule):
        viscosity_implicit_solve(ConstantOperator([0.0]), Negation(1), [0.5, 0.25])


def test_viscosity_rejects_expanding_forcing():
    with pytest.raises(NotAContraction):
        viscosity_implicit_solve(Identity(1), Negation(1), make_schedule(n_max=5))


def test_viscosity_rejects_expanding_target():
    with pytest.raises(NotNonexpansive):
        viscosity_implicit_solve(
            ConstantOperator([0.0]), LinearOperator([[2.0]]), make_schedule(n_max=5)
        )


def test_viscosity_rejects_garbage_target():
    with pytest.raises(TypeError):
        viscosity_implicit_solve(ConstantOperator([0.0]), "negation", make_schedule(n_max=5))


def test_viscosity_dimension_checks():
    with pytest.raises(DimensionMismatch):
        viscosity_implicit_solve(ConstantOperator([0.0]), Negation(2), make_schedule(n_max=5))
    with pytest.raises(DimensionMismatch):
        viscosity_implicit_solve(
            ConstantOperator([0.0]), make_rotation_flow([1.0], [1.0]), make_schedule(n_max=5)
        )


def test_viscosity_accepts_undeclared_nonexpansive_target():
    flipped = FunctionOperator(lambda x: -x, 1)
    result, _ = viscosity_implicit_solve(
        ConstantOperator([1.0]), flipped, make_schedule(n_max=30)
    )
    assert result.iterations == 30
    assert abs(result.point[0]) < 0.02


def test_non_finite_target_fails_in_the_probe():
    poisoned = FunctionOperator(lambda x: x * math.nan, 2)
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'function'"):
        viscosity_implicit_solve(ConstantOperator([1.0, 0.0]), poisoned, make_schedule(n_max=5))


def test_inner_failures_name_the_outer_step():
    tight = SolveOptions(policy=TolerancePolicy(max_iter=3))
    f = AffineOperator([[0.5]], [1.0])
    with pytest.raises(MaxIterExceeded, match=r"^outer step n=1, eps_n=0\.5: .*budget of 3 steps"):
        viscosity_implicit_solve(f, Negation(1), make_schedule(n_max=5), opts=tight)
    # The anchored first step (eps = 1) lands on the anchor in one application.
    with pytest.raises(MaxIterExceeded, match=r"^outer step n=2, eps_n=0\.5: .*budget of 3 steps"):
        anchored_implicit_solve([1.0], Negation(1), n_max=5, opts=tight)
    poisoned = FunctionOperator(lambda x: x * math.nan, 1, NONEXPANSIVE)
    with pytest.raises(NonFiniteValue, match=r"^outer step n=1, eps_n=0\.5: Picard step 1 "):
        viscosity_implicit_solve(f, poisoned, make_schedule(n_max=5))


def test_translation_never_converges():
    drift = AffineOperator(np.eye(2), [1.0, 0.0])
    result, trace = viscosity_implicit_solve(
        ConstantOperator([0.0, 0.0]), drift, make_schedule(n_max=30)
    )
    assert not result.converged
    assert len(trace) == 30
    assert result.residual == pytest.approx(1.0, abs=1e-6)


def test_inner_monitor_sees_every_step():
    seen = []
    sched = make_schedule(n_max=8)
    viscosity_implicit_solve(
        ConstantOperator([1.0]),
        Negation(1),
        sched,
        inner_monitor=lambda n, eps, res: seen.append((n, eps, res.iterations)),
    )
    assert [n for n, _, _ in seen] == list(range(1, 9))
    assert [eps for _, eps, _ in seen] == list(sched.values)
    assert all(iters >= 1 for _, _, iters in seen)


def test_trace_metadata_and_timestamps():
    _, trace = viscosity_implicit_solve(
        ConstantOperator([1.0]), Negation(1), make_schedule(n_max=5), problem_id="neg-demo"
    )
    assert trace.metadata["problem_id"] == "neg-demo"
    assert trace.metadata["schedule"] == "harmonic"
    stamps = trace.metadata["timestamps"]
    assert stamps["started"] <= stamps["finished"]


def test_warm_and_cold_starts_agree_at_the_end():
    f = AffineOperator(0.5 * np.eye(2), [1.0, 0.0])
    rot = PlaneRotation(2, (0, 1), 1.0)
    sched = make_schedule(n_max=50)
    opts_warm = SolveOptions(warm_start=True)
    opts_cold = SolveOptions(warm_start=False)
    warm_result, warm_trace = viscosity_implicit_solve(f, rot, sched, opts_warm)
    cold_result, cold_trace = viscosity_implicit_solve(f, rot, sched, opts_cold)
    gap = np.linalg.norm(warm_result.point - cold_result.point)
    assert gap <= 10.0 * opts_warm.outer_tol
    warm_inner = sum(s.inner_iters for s in warm_trace.steps)
    cold_inner = sum(s.inner_iters for s in cold_trace.steps)
    assert warm_inner <= cold_inner


def test_implicit_residuals_respect_the_inner_rule(ball_run):
    rule = ball_run.opts.inner_tol_rule
    for step in ball_run.trace.steps:
        assert step.implicit_residual <= rule.delta(step.eps, ball_run.opts.outer_tol) + 1e-15


def test_fix_residuals_settle_in_the_tail(ball_run, scalar_run):
    for run in (ball_run, scalar_run):
        tail = [s.fix_residual for s in run.trace.window()]
        assert max(tail) <= 2.0 * min(tail)


# ---------------------------------------------------------------------------
# Anchored iteration and retraction values


def test_anchored_negation_closed_form():
    # Tight inner solves so the 1e-10 comparison tests the scheme, not the
    # default inner stopping rule (which only guarantees ~1e-8 here).
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(1e-12))
    result, trace = anchored_implicit_solve([1.0], Negation(1), n_max=50, opts=opts)
    for step in trace.steps:
        assert step.point[0] == pytest.approx(1.0 / (2.0 * step.n - 1.0), abs=1e-10)
    assert result.iterations == 50


def test_anchored_first_step_is_the_anchor():
    _, trace = anchored_implicit_solve([1.0], Negation(1), n_max=3)
    assert trace.steps[0].eps == 1.0
    assert trace.steps[0].point == (1.0,)
    assert trace.steps[0].inner_iters == 1


def test_anchored_identity_returns_the_anchor_everywhere():
    result, trace = anchored_implicit_solve([0.7], Identity(1), n_max=20)
    for step in trace.steps:
        assert step.point[0] == pytest.approx(0.7, abs=1e-9)
    assert result.converged


def test_anchored_ball_approach_along_the_ray():
    _, trace = anchored_implicit_solve([3.0, 0.0], BallProjection([0.0, 0.0], 1.0), n_max=50)
    for step in trace.steps:
        assert step.point[0] == pytest.approx(1.0 + 2.0 / step.n, abs=2e-8)
        assert step.point[1] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "anchor, target",
    [
        ([1.0], Negation(1)),
        ([3.0, 1.0], BallProjection([0.0, 0.0], 1.0)),
        ([3.0, 1.0], make_rotation_flow([1.0], [1.0, 2.0])),
    ],
    ids=["negation", "ball", "rotation-family"],
)
def test_anchored_solve_is_the_viscosity_solve_on_the_anchored_schedule(anchor, target):
    anchored, a_trace = anchored_implicit_solve(anchor, target, n_max=40)
    viscous, v_trace = viscosity_implicit_solve(
        ConstantOperator(anchor), target, make_schedule("anchored", n_max=40)
    )
    assert anchored.point.tobytes() == viscous.point.tobytes()
    assert anchored.residual == viscous.residual
    assert [(s.point, s.implicit_residual, s.fix_residual, s.inner_iters) for s in a_trace.steps] == [
        (s.point, s.implicit_residual, s.fix_residual, s.inner_iters) for s in v_trace.steps
    ]


def test_anchored_validation():
    with pytest.raises(ValueError):
        anchored_implicit_solve([1.0], Negation(1), n_max=0)
    with pytest.raises(ValueError):
        anchored_implicit_solve([float("nan")], Negation(1))


def test_retraction_eval_ball_anchors():
    proj = BallProjection([0.0, 0.0], 1.0)
    values = retraction_eval(proj, [[3.0, 0.0], [0.0, -2.0]], n_max=200)
    assert not values.failures
    far = values.limits[(3.0, 0.0)]
    assert far[0] == pytest.approx(1.0 + 2.0 / 200.0, abs=2e-8)
    below = values.limits[(0.0, -2.0)]
    assert below[1] == pytest.approx(-(1.0 + 1.0 / 200.0), abs=2e-8)
    assert values.results[(3.0, 0.0)].iterations == 200


def test_retraction_eval_collects_failures_per_anchor():
    values = retraction_eval(LinearOperator(2.0 * np.eye(2)), [[1.0, 0.0], [0.0, 1.0]], n_max=10)
    assert not values.limits
    assert set(values.failures) == {(1.0, 0.0), (0.0, 1.0)}
    for message in values.failures.values():
        assert message.startswith("NotNonexpansive")
