"""Schedules, the inner Picard solver, and the outer implicit iterations."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viscofix import (
    AffineOperator,
    AveragedOperator,
    BallProjection,
    BoxProjection,
    CompositeOperator,
    ConstantOperator,
    DeclaredWrapper,
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
    Operator,
    PlaneRotation,
    SolveOptions,
    TolerancePolicy,
    anchored_implicit_solve,
    contraction,
    coupled_inner_tol,
    fixed_inner_tol,
    implicit_step,
    make_custom_family,
    make_rotation_flow,
    make_schedule,
    picard_solve,
    retraction_eval,
    viscosity_implicit_solve,
)
from viscofix import operators, schemes, semigroup
from viscofix.operators import NONEXPANSIVE, BlendOperator, DeclaredClass, InvalidSpec, blend
from viscofix.trace import TraceStep

from oracles import bisect_increasing, exact_affine_step, exact_squared_distance

COS_FIXED_POINT = 0.7390851332151607

#: Inner solves longer than this many steps count as long ones in these tests.
_LONG_SOLVE = 64


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


@pytest.mark.parametrize(
    "kind, params, reads",
    [
        ("harmonic", {"p": 1.0, "q": 2.0}, "'p'"),
        ("geometric", {"p": 0.5}, "'r'"),
        ("explicit", {"values": [0.5, 0.25], "p": 1.0}, "'values'"),
        ("anchored", {"p": 1.0}, "none"),
    ],
)
def test_a_schedule_rejects_params_its_kind_does_not_read(kind, params, reads):
    key = next(k for k in params if f"'{k}'" != reads)
    with pytest.raises(InvalidSchedule) as raised:
        make_schedule(kind, params, n_max=2)
    assert str(raised.value) == f"unknown schedule param '{key}' for kind '{kind}', which reads {reads}"


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


def test_a_schedule_checks_its_values_when_it_is_built():
    schedule = EpsilonSchedule("anchored", 2, [1, 0.5])
    assert schedule.values == (1.0, 0.5) and [type(v) for v in schedule.values] == [float, float]
    with pytest.raises(NonDecreasingSchedule, match="schedule not strictly decreasing"):
        EpsilonSchedule("harmonic", 2, (0.5, 0.6))
    with pytest.raises(InvalidSchedule, match="schedule is empty"):
        EpsilonSchedule("harmonic", 0, ())
    # Value errors come before a count that does not match n_max.
    with pytest.raises(InvalidSchedule, match="must lie in"):
        make_schedule("explicit", {"values": [0.5, 0.0]}, n_max=3)


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
    return st.recursive(leaves, _composed_twins, max_leaves=6)


def _composed_twins(children):
    """Composite, averaged, iterated and blend nodes over pairs of twins."""
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


def _count_estimates(monkeypatch) -> list:
    estimates = []
    original = schemes.estimate_lipschitz
    monkeypatch.setattr(schemes, "estimate_lipschitz", lambda *args, **kw: estimates.append(args) or original(*args, **kw))
    return estimates


def test_picard_estimates_an_undeclared_contraction_once(monkeypatch):
    estimates = _count_estimates(monkeypatch)
    G = FunctionOperator(lambda x: 0.4 * x + 1.0, 1)
    first, second = (picard_solve(G, [0.0], 1e-9) for _ in range(2))
    assert len(estimates) == 1
    assert first.point.tobytes() == second.point.tobytes()
    # A map that fails the estimate keeps its failure, with the same message.
    H = FunctionOperator(lambda x: 2.0 * x, 1)
    messages = []
    for _ in range(2):
        with pytest.raises(NotAContraction) as failed:
            picard_solve(H, [0.0], 1e-8)
        messages.append(str(failed.value))
    assert len(estimates) == 2 and messages[0] == messages[1]


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
    # Modulus 0 takes one step, and names it too.
    for value in (math.nan, math.inf):
        at_once = FunctionOperator(lambda x: np.full(1, value), 1, contraction(0.0))
        with pytest.raises(NonFiniteValue, match=r"^Picard step 1 produced a non-finite value \(operator kind 'function'\)$"):
            picard_solve(at_once, [0.0], 1e-8)


def test_picard_rejects_an_undeclared_non_finite_map():
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'function'"):
        picard_solve(FunctionOperator(lambda x: x * math.nan, 2), [1.0, 0.0], 1e-8)


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
    # lifted iterate reaches inf and then NaN.
    overflowing = AffineOperator(0.5 * np.eye(dim), [1.7e308] * dim)
    with pytest.raises(NonFiniteValue, match=r"steps 1-\d+ .*operator kind 'affine'"):
        picard_solve(overflowing, np.zeros(dim), 1e-8)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_picard_affine_survives_an_overflowing_step_norm(dim):
    # The first step norms overflow to inf, but every iterate is finite.
    huge = AffineOperator(0.5 * np.eye(dim), [1e200] * dim)
    res = picard_solve(huge, np.zeros(dim), 1.0)
    assert res.step_norms[0] == math.inf
    np.testing.assert_allclose(res.point, [2e200] * dim)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_picard_rounding_floor_survives_an_iterate_past_the_square_range(dim):
    # ||x*||^2 = d 4e400 overflows; ||x*|| = 2e200 sqrt(d) does not.
    res = picard_solve(AffineOperator(0.5 * np.eye(dim), [1e200] * dim), np.zeros(dim), 1.0)
    np.testing.assert_allclose(res.point, [2e200] * dim)
    size = math.hypot(*res.point)
    assert math.isfinite(res.residual)
    assert res.residual >= np.finfo(float).eps * size / (1.0 - 0.5)


def test_picard_rounding_floor_keeps_its_bits_in_range():
    # On the step-by-step loop the residual comes from the last step norm itself.
    m = np.array([[0.3, 0.1], [0.0, 0.4]])
    alpha = float(np.linalg.norm(m, 2))
    stepped = FunctionOperator(lambda x: m @ x + np.array([1e3, -2e3]), 2, contraction(alpha))
    res = picard_solve(stepped, [0.0, 0.0], 1e-6)
    last = res.step_norms[-1]
    floor = np.finfo(float).eps * math.sqrt(res.point.dot(res.point)) / (1.0 - alpha)
    assert res.residual == last * alpha / (1.0 - alpha) + floor


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


def _contract_at(res, alpha):
    """Whether every step norm is at most alpha times the one before, above a noise floor.

    Each step is taken from a rounded iterate, so, as in acceptance
    criterion 4, a ratio only respects alpha above the rounding of the point.
    """
    norms = np.array(res.step_norms)
    noise = 8.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(res.point))
    return bool(np.all(norms[1:] <= (alpha + 1e-12) * norms[:-1] + noise))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2, 3, 4, 5, 8)),
    alpha=st.floats(0.5, 0.995),
    tol=st.floats(1e-9, 1e-5),
)
# Short solves, stopping within _LONG_SOLVE steps, at every small dimension.
@example(seed=1, dim=1, alpha=0.5, tol=1e-5)
@example(seed=2, dim=2, alpha=0.6, tol=1e-6)
@example(seed=3, dim=3, alpha=0.5, tol=1e-9)
@example(seed=4, dim=4, alpha=0.7, tol=1e-5)
def test_picard_blocked_affine_matches_the_generic_loop(seed, dim, alpha, tol):
    affine, twin, start = _affine_twins(seed, dim, alpha)
    blocked = picard_solve(affine, start, tol)
    generic = picard_solve(twin, start, tol)
    assert abs(blocked.iterations - generic.iterations) <= 1
    assert len(blocked.step_norms) == blocked.iterations
    # The certified bounds, plus a few roundings of the O(100) iterates.
    gap = np.linalg.norm(blocked.point - generic.point)
    assert gap <= blocked.residual + generic.residual + 1e-12 * (1.0 + np.linalg.norm(generic.point))
    assert _contract_at(blocked, affine.declared_class.alpha)


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
    assert blocked.iterations > _LONG_SOLVE
    assert blocked.iterations == generic.iterations
    np.testing.assert_allclose(blocked.step_norms, generic.step_norms, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 5])
def test_picard_blocked_budget_matches_the_plain_loop(dim):
    affine, twin, start = _affine_twins(11, dim, 0.99)
    needed = picard_solve(twin, start, 1e-8).iterations
    assert needed > _LONG_SOLVE + 1
    exact = picard_solve(affine, start, 1e-8, TolerancePolicy(max_iter=needed))
    assert exact.iterations == needed
    # One step short, the budget runs out inside a blocked block.
    with pytest.raises(MaxIterExceeded, match=rf"budget of {needed - 1} steps.*q="):
        picard_solve(affine, start, 1e-8, TolerancePolicy(max_iter=needed - 1))


def test_picard_first_block_is_bit_identical_to_the_generic_loop():
    # Short lifted solves keep the step-by-step loop's count, and their
    # points lie within both certified bounds of its points.
    line = picard_solve(AffineOperator([[0.7]], [0.3]), [5.0], 1e-9)
    line_twin = picard_solve(FunctionOperator(lambda x: 0.7 * x + 0.3, 1, contraction(0.7)), [5.0], 1e-9)
    assert line.iterations == line_twin.iterations <= _LONG_SOLVE
    assert line.step_norms == line_twin.step_norms
    assert np.linalg.norm(line.point - line_twin.point) <= line.residual + line_twin.residual

    matrix = [[0.3, 0.1, -0.2], [0.05, 0.4, 0.1], [-0.1, 0.2, 0.25]]
    offset = [1.0, -2.0, 0.5]
    alpha = float(np.linalg.norm(matrix, 2))

    def ordered(x):
        return np.array([sum(row[j] * x[j] for j in range(3)) + b for row, b in zip(matrix, offset)])

    cube = picard_solve(AffineOperator(matrix, offset, contraction(alpha)), np.zeros(3), 1e-9)
    cube_twin = picard_solve(FunctionOperator(ordered, 3, contraction(alpha)), np.zeros(3), 1e-9)
    assert cube.iterations == cube_twin.iterations <= _LONG_SOLVE
    assert np.linalg.norm(cube.point - cube_twin.point) <= cube.residual + cube_twin.residual


def test_picard_residual_covers_the_rounding_of_the_iterate():
    # Below the rounding floor of (10, 30) the step norms alone certify a
    # distance far smaller than the point's true error.
    res = picard_solve(AffineOperator(0.9 * np.eye(2), [1.0, 3.0]), [0.0, 0.0], 1e-18)
    assert res.residual >= np.linalg.norm(res.point - np.array([10.0, 30.0]))


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


def test_implicit_step_resolves_its_maps_as_a_solve_does():
    # An undeclared T with no affine form: the blend's declared modulus is
    # 0.1 * 0.5 + 0.9 = 0.95, its sampled estimate only about 0.535.
    def problem():
        return AffineOperator(0.5 * np.eye(2), [50.0, 0.0]), FunctionOperator(BallProjection([100.0, 0.0], 50.0).apply, 2)

    xi = implicit_step(*problem(), 0.1, [0.0, 0.0], 1e-8)
    assert np.linalg.norm(xi - [100.0, 0.0]) <= 1e-8
    steps = []
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(1e-8))
    viscosity_implicit_solve(
        *problem(), make_schedule("explicit", {"values": [0.1]}), opts, inner_monitor=lambda n, eps, res: steps.append(res)
    )
    assert xi.tobytes() == steps[0].point.tobytes()


def test_implicit_step_fails_as_a_solve_does():
    f = AffineOperator([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0])
    with pytest.raises(NotNonexpansive):
        implicit_step(f, LinearOperator(2.0 * np.eye(2)), 0.5, [0.0, 0.0], 1e-9)
    with pytest.raises(DimensionMismatch, match="operator dimension 3 does not match forcing dimension 2"):
        implicit_step(f, FunctionOperator(lambda x: x, 3), 0.5, [0.0, 0.0], 1e-9)


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


def test_the_trace_records_why_the_run_stopped():
    # The stop test met at step 100 of 300, then a drift that meets it at no step of 30.
    f = AffineOperator(0.5 * np.eye(2), [0.6, -0.8])
    opts = SolveOptions(outer_tol=1e-2)
    result, trace = viscosity_implicit_solve(f, make_rotation_flow([1.0], [1.0]), make_schedule(n_max=300), opts)
    assert result.converged and trace.metadata["stop"] == {"reason": "outer_tol", "n": 100}
    drift = AffineOperator(np.eye(2), [1.0, 0.0])
    result, trace = viscosity_implicit_solve(ConstantOperator([0.0, 0.0]), drift, make_schedule(n_max=30))
    assert not result.converged and trace.metadata["stop"] == {"reason": "n_max", "n": 30}


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


def _count_probes(monkeypatch) -> list:
    probes = []
    original = semigroup.check_nonexpansive
    monkeypatch.setattr(semigroup, "check_nonexpansive", lambda *args, **kw: probes.append(args) or original(*args, **kw))
    return probes


def test_retraction_eval_probes_an_undeclared_target_once(monkeypatch):
    # A norm of 1 + 1e-12 lies past rounding but within the probe's tolerance.
    T = LinearOperator([[1.000000000001, 0.0], [0.0, 0.5]])
    anchors = [[2.0, 1.0], [1.0, 0.0], [0.0, 3.0]]
    probes = _count_probes(monkeypatch)
    values = retraction_eval(T, anchors, n_max=50)
    assert len(probes) == 1 and not values.failures
    resolved = semigroup.resolve_nonexpansive(T)
    for anchor in anchors:
        alone, _ = anchored_implicit_solve(anchor, resolved, n_max=50)
        assert values.limits[tuple(anchor)].tobytes() == alone.point.tobytes()
    # Anchors that fail before the probe, or none at all, make no probe.
    probes.clear()
    for anchors in ([], [[1.0, 2.0, 3.0]]):
        retraction_eval(T, anchors, n_max=50)
    assert probes == []


def test_retraction_eval_reports_one_failed_probe_for_each_anchor_that_reaches_it(monkeypatch):
    T = LinearOperator(2.0 * np.eye(2))
    anchors = [[1.0, 2.0, 3.0], [1.0, 0.0], [0.0, 1.0], [4.0]]
    expected = {}
    for anchor in anchors:
        with pytest.raises((NotNonexpansive, DimensionMismatch)) as failed:
            anchored_implicit_solve(anchor, T, n_max=10)
        expected[tuple(anchor)] = f"{type(failed.value).__name__}: {failed.value}"
    probes = _count_probes(monkeypatch)
    # A fresh map: the solves above settled T's class, which T keeps.
    values = retraction_eval(LinearOperator(2.0 * np.eye(2)), anchors, n_max=10)
    assert len(probes) == 1
    assert values.failures == expected and not values.limits
    assert [message.split(":")[0] for message in expected.values()] == [
        "DimensionMismatch", "NotNonexpansive", "NotNonexpansive", "DimensionMismatch"
    ]


def test_two_solves_on_one_undeclared_target_probe_it_once(monkeypatch):
    probes = _count_probes(monkeypatch)
    # A norm of 1 + 1e-12 lies past rounding but within the probe's tolerance.
    T = LinearOperator([[1.000000000001, 0.0], [0.0, 0.5]])
    f = ConstantOperator([1.0, 2.0])
    first, second = (viscosity_implicit_solve(f, T, make_schedule(n_max=20))[0] for _ in range(2))
    assert len(probes) == 1
    assert first.point.tobytes() == second.point.tobytes()


def test_two_solves_on_one_expanding_target_probe_it_once(monkeypatch):
    probes = _count_probes(monkeypatch)
    T = LinearOperator(2.0 * np.eye(2))
    failures = []
    for _ in range(2):
        with pytest.raises(NotNonexpansive) as failed:
            viscosity_implicit_solve(ConstantOperator([1.0, 2.0]), T, make_schedule(n_max=20))
        failures.append((type(failed.value), str(failed.value)))
    assert len(probes) == 1
    assert failures[0] == failures[1]
    assert "ratio 2 at the first pair past 1 + 1e-09" in failures[0][1]


def test_retraction_eval_probes_an_expanding_family_member_once(monkeypatch):
    probes = _count_probes(monkeypatch)
    family = make_custom_family({1: LinearOperator(2.0 * np.eye(2))})
    anchors = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
    values = retraction_eval(family, anchors, n_max=10)
    assert len(probes) == 1 and not values.limits
    assert sorted(values.failures) == sorted(tuple(a) for a in anchors)
    for message in values.failures.values():
        assert message.startswith("NotNonexpansive: ")


# ---------------------------------------------------------------------------
# Implicit steps solved on the blend's affine piece


def _count_picard_calls(monkeypatch) -> list:
    calls = []
    original = schemes.picard_solve

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes, "picard_solve", counted)
    return calls


def _piecewise_twins(dim):
    """Trees over balls and rotations, with no box: the leaves with pieces.

    Balls near the origin and wide enough that the iterates of the problems
    below often start inside them, and often end outside.
    """
    vectors = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    balls = st.builds(BallProjection, vectors, st.floats(0.5, 3.0))
    leaves = st.one_of(
        balls,
        balls,
        st.builds(PlaneRotation, st.just(dim), st.just((0, dim - 1)), st.floats(-3.0, 3.0)),
        st.just(Negation(dim)),
    ).map(lambda leaf: (leaf, _public(leaf)))
    return st.recursive(leaves, _composed_twins, max_leaves=4)


@st.composite
def _viscosity_problems(draw):
    dim = draw(st.sampled_from((2, 3)))
    target, twin = draw(_piecewise_twins(dim))
    # A target with a global affine form never reaches the piece solve.
    assume(target.affine_parts() is None)
    offset = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    return AffineOperator(0.5 * np.eye(dim), offset), target, twin


@settings(max_examples=40, deadline=None)
@given(problem=_viscosity_problems())
def test_piece_solves_agree_with_the_generic_solve(problem):
    # The twin hides the target behind a FunctionOperator, which has no
    # piece, so its blends always take the generic Picard loop.
    f, target, twin = problem
    sched = make_schedule(n_max=8)
    opts = SolveOptions()
    _, trace = viscosity_implicit_solve(f, target, sched, opts)
    _, twin_trace = viscosity_implicit_solve(f, twin, sched, opts)
    # Either solve may stop early on its own step; compare the steps both ran.
    for step, twin_step in zip(trace.steps, twin_trace.steps):
        delta = opts.inner_tol_rule.delta(step.eps, opts.outer_tol)
        gap = np.linalg.norm(np.subtract(step.point, twin_step.point))
        assert gap <= 2.0 * delta
        assert step.implicit_residual <= delta
        assert twin_step.implicit_residual <= delta


def test_piece_fallback_is_bit_identical_to_the_generic_solve(monkeypatch):
    # The warm start 0 lies inside the ball, where the piece is the
    # identity, but every step's fixed point lies outside it: the piece
    # solve lands on the anchor, the certificate rejects it, and g runs.
    f = ConstantOperator([2.0, 0.0])
    ball = BallProjection([0.0, 0.0], 1.0)
    g = blend(0.25, f, 0.75, ball)
    generic = picard_solve(g, [0.0, 0.0], 1e-9)
    calls = _count_picard_calls(monkeypatch)
    xi = implicit_step(f, ball, 0.25, [0.0, 0.0], 1e-9)
    assert [type(G).__name__ for G in calls] == ["AffineOperator", "BlendOperator"]
    assert xi.tobytes() == generic.point.tobytes()
    # Later warm starts lie outside the ball and have no piece, so the whole
    # solve matches the one on a twin that never has a piece.
    twin = FunctionOperator(ball.apply, 2, ball.declared_class)
    _, trace = viscosity_implicit_solve(f, ball, make_schedule(n_max=20))
    _, twin_trace = viscosity_implicit_solve(f, twin, make_schedule(n_max=20))
    assert trace.steps == twin_trace.steps


def test_piece_budget_failure_falls_back_and_raises_todays_message(monkeypatch):
    f = AffineOperator(0.5 * np.eye(2), [0.2, 0.1])
    ball = BallProjection([0.0, 0.0], 1.0)
    tight = TolerancePolicy(max_iter=3)
    with pytest.raises(MaxIterExceeded) as direct:
        picard_solve(blend(0.25, f, 0.75, ball), [0.0, 0.0], 1e-12, tight)
    calls = _count_picard_calls(monkeypatch)
    with pytest.raises(MaxIterExceeded) as stepped:
        implicit_step(f, ball, 0.25, [0.0, 0.0], 1e-12, tight)
    assert str(stepped.value) == str(direct.value)
    assert [type(G).__name__ for G in calls] == ["AffineOperator", "BlendOperator"]
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(1e-12), policy=tight)
    with pytest.raises(MaxIterExceeded) as outer:
        viscosity_implicit_solve(f, ball, make_schedule(n_max=3), opts)
    with pytest.raises(MaxIterExceeded) as first:
        picard_solve(blend(0.5, f, 0.5, ball), [0.0, 0.0], 1e-12, tight)
    assert str(outer.value) == f"outer step n=1, eps_n=0.5: {first.value}"


def test_a_piece_is_solved_on_its_own_arrays_and_a_non_finite_one_is_rejected(monkeypatch):
    f = AffineOperator(0.5 * np.eye(2), [0.2, 0.1])
    ball = BallProjection([0.0, 0.0], 1.0)
    pieces = []
    original = BlendOperator.affine_piece

    def recorded(self, x=None):
        pieces.append(original(self, x))
        return pieces[-1]

    monkeypatch.setattr(BlendOperator, "affine_piece", recorded)
    calls = _count_picard_calls(monkeypatch)
    implicit_step(f, ball, 0.25, [0.0, 0.0], 1e-9)
    ((matrix, offset),) = pieces
    # The piece's fresh arrays are frozen in place, not copied.
    assert [G.matrix is matrix and G.offset is offset for G in calls] == [True]
    assert not matrix.flags.writeable and not offset.flags.writeable
    for bad, message in (
        ((np.full((2, 2), np.nan), np.zeros(2)), "piece matrix has non-finite entries"),
        ((np.eye(2), np.array([np.inf, 0.0])), "piece offset has non-finite coordinates"),
    ):
        monkeypatch.setattr(BlendOperator, "affine_piece", lambda self, x=None, bad=bad: bad)
        with pytest.raises(InvalidSpec, match=message):
            implicit_step(f, ball, 0.25, [0.0, 0.0], 1e-9)


def _evaluations_outside_picard(monkeypatch, *targets, cut_at_picard=True) -> list:
    """The points at which any of targets, all of one class, is evaluated outside picard_solve from now on.

    An evaluation is a call of its class's _apply or of the one-pass
    _apply_piece, whichever comes first; what that call runs inside is not
    counted again. With cut_at_picard false, the evaluations inside
    picard_solve count too. Each point is the array the target got, which
    the solvers never write into.
    """
    points, depth = [], [0]
    cls = type(targets[0])

    def counted(original):
        def hook(self, x):
            if any(self is target for target in targets) and depth[0] == 0:
                points.append(x)
            depth[0] += 1
            try:
                return original(self, x)
            finally:
                depth[0] -= 1

        return hook

    original_solve = schemes.picard_solve

    def solve(*args, **kwargs):
        depth[0] += 1
        try:
            return original_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cls, "_apply", counted(cls._apply))
    # A class without a one-pass _apply_piece of its own evaluates through
    # _apply there, and the base class's affine_piece tells the two apart.
    if cls._apply_piece is not Operator._apply_piece:
        monkeypatch.setattr(cls, "_apply_piece", counted(cls._apply_piece))
    if cut_at_picard:
        monkeypatch.setattr(schemes, "picard_solve", solve)
    return points


def test_a_step_without_a_piece_asks_for_one_once(monkeypatch):
    # Every warm start lies outside the ball. The plan asks the target for
    # step 1's piece at the origin; every later step's piece (none) comes
    # from the one pass of the last step's certificate over the target at
    # the point the step starts from, so each point is evaluated once.
    asked = []
    original = BallProjection.affine_piece
    monkeypatch.setattr(BallProjection, "affine_piece", lambda self, x=None: asked.append(x) or original(self, x))
    f, target = ConstantOperator([8.0, 0.0]), BallProjection([5.0, 0.0], 1.0)
    points = _evaluations_outside_picard(monkeypatch, target)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=30))
    assert len(trace) == 30
    assert [tuple(x) for x in asked if x is not None] == [(0.0, 0.0)]
    assert [tuple(x.tolist()) for x in points] == [(0.0, 0.0)] + [step.point for step in trace.steps]


def _half_and_shift(offset) -> FunctionOperator:
    """x -> 0.5 x + offset as a callable: a forcing term with no global affine form."""
    offset = np.array(offset)
    return FunctionOperator(lambda x: 0.5 * x + offset, 2, contraction(0.5))


def _image_is_kept(f, T, eps, warm, delta) -> tuple[np.ndarray, bool]:
    """(x1, whether a handed-on step keeps it): x1 = g(warm) for g = eps f + (1 - eps) T.

    The step keeps x1 when Picard would not stop there on its own threshold
    and the blend's bound on the distance to its fixed point, plus the
    rounding floor, is at most delta.
    """
    g = blend(eps, f, 1.0 - eps, T)
    q = g.declared_class.alpha
    x1 = g.apply(warm)
    bound = (np.linalg.norm(x1 - g.apply(x1)) + np.finfo(float).eps * np.linalg.norm(x1)) / (1.0 - q)
    return x1, np.linalg.norm(x1 - warm) > delta * (1.0 - q) / q and bound <= delta


@pytest.mark.parametrize("path", ["generic", "piece", "function-forcing"])
def test_each_outer_step_applies_the_target_once_outside_picard(monkeypatch, path):
    if path == "generic":
        # Every iterate and warm start lies outside the ball: no piece. f is
        # constant and T a projection, so from step 2 on the image handed on
        # is the step's solution up to rounding, and the blend certifies it.
        f, target = ConstantOperator([8.0, 0.0]), BallProjection([5.0, 0.0], 1.0)
    else:
        # A forcing term without a global form plans nothing, and its blend
        # has no piece: each step runs Picard on the blend, from an image
        # that the blend does not certify.
        f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05]) if path == "piece" else _half_and_shift([0.1, 0.05])
        target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    calls = _count_picard_calls(monkeypatch)
    points = _evaluations_outside_picard(monkeypatch, target)
    ran = []
    sched = make_schedule(n_max=30)
    _, trace = viscosity_implicit_solve(f, target, sched, inner_monitor=lambda *_: ran.append(len(calls)))
    per_step = np.diff([0] + ran).tolist()
    points = [tuple(x.tolist()) for x in points]
    if path == "piece":
        assert [type(G) for G in calls] == [AffineOperator] * 30
        assert points == [(0.0, 0.0)] + [step.point for step in trace.steps]
        return
    assert [type(G) for G in calls] == [BlendOperator] * len(calls)
    # Step 1 has no image handed on; each later step runs no Picard solve
    # if and only if its image certifies, and then its point is that image.
    expected, kept = [(0.0, 0.0), trace.steps[0].point], []
    for before, step, calls_made in zip(trace.steps, trace.steps[1:], per_step[1:]):
        delta = SolveOptions().inner_tol_rule.delta(step.eps, SolveOptions().outer_tol)
        x1, keeps = _image_is_kept(f, target, step.eps, np.array(before.point), delta)
        kept.append(keeps)
        assert calls_made == (0 if keeps else 1)
        if keeps:
            assert step.point == tuple(x1.tolist()) and step.inner_iters == 1
        # One pass over T_n at the image, kept or not, and one at the
        # step's point when it is another: T is evaluated once at each point.
        expected += [step.point] if keeps else [tuple(x1.tolist()), step.point]
    assert kept == [path == "generic"] * 29
    assert per_step[0] == 1
    assert points == expected


@st.composite
def _handed_on_steps(draw):
    """A blend step from the point of the step before, with that step's pass handed on.

    The forcing term is constant or affine, and the target one of
    _piecewise_twins with no global form. The warm start is the point of a
    solve at a larger eps, as the last step's point is.
    """
    dim = draw(st.sampled_from((2, 3)))
    target, _ = draw(_piecewise_twins(dim))
    assume(target.affine_parts() is None)
    offset = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    f = draw(st.sampled_from((ConstantOperator(offset), AffineOperator(0.5 * np.eye(dim), offset))))
    eps = draw(st.floats(0.05, 0.6))
    warm = picard_solve(blend(1.25 * eps, f, 1.0 - 1.25 * eps, target), np.zeros(dim), 1e-10).point
    # delta within a factor of 10 below to 1000 above the image's own bound,
    # so that steps on both sides of the rule, and near it, are drawn.
    g = blend(eps, f, 1.0 - eps, target)
    x1 = g.apply(warm)
    bound = (np.linalg.norm(x1 - g.apply(x1)) + np.finfo(float).eps * np.linalg.norm(x1)) / (1.0 - g.declared_class.alpha)
    delta = max(bound, 1e-13) * 10.0 ** draw(st.floats(-1.0, 3.0))
    max_iter = draw(st.sampled_from((1, 2, 5, TolerancePolicy().max_iter)))
    return f, target, eps, warm, delta, TolerancePolicy(max_iter=max_iter)


def _handed_on_step(f, T, eps, warm, delta, policy):
    """A stepper's step from warm with the pass at warm handed on, where T has no piece."""
    stepper = schemes._Stepper(f, T, (eps,), policy=policy, hand_on=True, planned=False)
    stepper.last = (warm, f._apply(warm), T._apply(warm), None)
    return stepper.step(eps, warm, delta)


@settings(max_examples=40, deadline=None)
@given(problem=_handed_on_steps())
def test_a_handed_on_step_keeps_a_certified_image_or_has_picards_bits(problem):
    f, target, eps, warm, delta, policy = problem
    g = blend(eps, f, 1.0 - eps, target)
    q = g.declared_class.alpha
    x1 = g.apply(warm)
    try:
        expected = picard_solve(g, warm, delta, policy, _first=(x1,))
    except (MaxIterExceeded, NonFiniteValue) as exc:
        expected = exc
    try:
        step = _handed_on_step(f, target, eps, warm, delta, policy)
    except (MaxIterExceeded, NonFiniteValue) as exc:
        # A step that does not keep its image fails as Picard fails.
        assert type(exc) is type(expected) and str(exc) == str(expected)
        return
    def bits(result):
        return result.point.tobytes(), *result[1:4], result.step_norms

    res = step.solved or schemes.FixedPointResult(step.point, step.bound, 1, True, (step.moved,))
    if isinstance(expected, schemes.FixedPointResult) and bits(res) == bits(expected):
        assert step.path == "picard" and step.moved is None
        return
    # Otherwise the step kept its image, which the blend certifies.
    assert step.path == "image" and step.point is res.point
    assert res.point.tobytes() == x1.tobytes() and not res.point.flags.writeable
    assert np.linalg.norm(x1 - g.apply(x1)) <= delta * (1.0 - q)
    assert step.implicit <= delta * (1.0 - q)
    assert res.iterations == 1 and res.converged and res.residual <= delta
    assert res.step_norms == (step.moved,) == (math.sqrt(np.vdot(x1 - warm, x1 - warm)),)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("where", ["image", "after-image"])
def test_a_handed_on_step_whose_picard_fails_raises_what_picard_raises(where):
    # A forcing term that overflows where T's values lie: at the warm start
    # itself, so that the image is not finite, or only at the image, so
    # that Picard's second iterate, which the pass at the image gives, is not.
    scale = 1e308 if where == "image" else 1.0
    f = FunctionOperator(lambda x: scale * np.exp(1000.0 * x), 2, contraction(0.5))
    ball = BallProjection([0.0, 0.0], 1.0)
    warm = np.array([0.0, 0.0]) if where == "after-image" else np.array([0.5, 0.5])
    g = blend(0.5, f, 0.5, ball)
    for policy in (TolerancePolicy(), TolerancePolicy(max_iter=1)):
        with pytest.raises((NonFiniteValue, MaxIterExceeded)) as direct:
            picard_solve(g, warm, 1e-9, policy)
        with pytest.raises(type(direct.value)) as stepped:
            _handed_on_step(f, ball, 0.5, warm, 1e-9, policy)
        assert str(stepped.value) == str(direct.value)


def test_a_handed_on_step_out_of_budget_at_one_iteration_raises_todays_message():
    # The rotated ball's image is not certified: Picard goes on from it, and
    # a budget of one step runs out at it.
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    target = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    warm = picard_solve(blend(0.5, f, 0.5, target), [0.0, 0.0], 1e-9).point
    tight = TolerancePolicy(max_iter=1)
    with pytest.raises(MaxIterExceeded) as direct:
        picard_solve(blend(0.25, f, 0.75, target), warm, 1e-9, tight)
    with pytest.raises(MaxIterExceeded) as stepped:
        _handed_on_step(f, target, 0.25, warm, 1e-9, tight)
    assert str(stepped.value) == str(direct.value)


@pytest.mark.parametrize("schedule", ["anchored", "harmonic"])
@pytest.mark.parametrize("target", [BallProjection([0.0, 0.0, 0.0], 1.0), BoxProjection([-1.0, 0.0, -1.0], [1.0, 1.0, 0.5])])
def test_constant_forcing_with_a_projection_keeps_each_handed_on_image(monkeypatch, schedule, target):
    # x_n = eps_n u + (1 - eps_n) P_C(u) solves the step exactly: P_C is
    # constant on the segment from P_C(u) to u. From step 2 on, the image
    # handed on is that point up to rounding, and each step evaluates T once.
    u = np.array([3.0, -2.0, 4.0])
    projected = target.apply(u)
    opts = SolveOptions()
    points = _evaluations_outside_picard(monkeypatch, target, cut_at_picard=False)
    counts = []
    _, trace = viscosity_implicit_solve(
        ConstantOperator(u), target, make_schedule(schedule, n_max=200), opts,
        inner_monitor=lambda *_: counts.append(len(points)),
    )
    assert len(trace) == 200
    for step in trace.steps:
        exact = step.eps * u + (1.0 - step.eps) * projected
        assert np.linalg.norm(np.subtract(step.point, exact)) <= opts.inner_tol_rule.delta(step.eps, opts.outer_tol)
    assert np.diff(counts).tolist() == [1] * 199
    assert [step.inner_iters for step in trace.steps[1:]] == [1] * 199


@pytest.mark.parametrize("case", ["handed-on", "cold-starts", "two-members"])
def test_each_point_is_evaluated_once_inside_and_outside_picard(monkeypatch, case):
    # Every iterate and warm start lies outside the balls: no piece, and
    # every step runs Picard on the blend. Handed on, step n's first Picard
    # iterate comes from the f and T values that step n - 1's certificate
    # computed at xi_(n-1), so each step evaluates T at its later Picard
    # iterates and at its point; only step 1's origin is evaluated twice,
    # by the plan's query and by the first iterate. (On the ray from the
    # center through f's value, where the points lie, the projection is
    # constant, so iterates may repeat a value: points count as arrays.)
    f = ConstantOperator([8.0, 3.0])
    ball, other = BallProjection([5.0, 0.0], 1.0), BallProjection([5.0, 0.0], 1.0)
    target, opts = ball, SolveOptions()
    if case == "cold-starts":
        opts = SolveOptions(warm_start=False)
    elif case == "two-members":
        target = make_custom_family({1: ball, 2: other})
    points = _evaluations_outside_picard(monkeypatch, ball, other, cut_at_picard=False)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=30), opts)
    assert len(trace) == 30
    iterations = sum(step.inner_iters for step in trace.steps)
    at_origin = sum(x.tolist() == [0.0, 0.0] for x in points)
    if case == "handed-on":
        assert len(points) == iterations + 2
        assert at_origin == 2
        assert len({id(x) for x in points}) == len(points) - 1
        return
    # Nothing is handed on: each step's plan asks its T for a piece at the
    # warm start, Picard evaluates g there for its first iterate, and the
    # certificate evaluates T at the step's point.
    assert len(points) == iterations + 60
    if case == "cold-starts":
        assert at_origin == 60
    else:
        # The last step's certificate evaluated its own member at each later warm start.
        assert at_origin == 2
        assert [sum(x is point for x in points) for point in trace._points[:-1]] == [3] * 29


@pytest.mark.parametrize("case", ["two-members", "cold-starts"])
def test_a_step_that_does_not_start_on_the_last_ones_point_and_target_asks_the_plan(monkeypatch, case):
    # A two-member family's next step has another member, and without warm
    # starts every step starts from the origin: no certificate holds the
    # piece such a step needs, so the plan asks its target for it.
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    turned = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    if case == "two-members":
        other = CompositeOperator([PlaneRotation(2, (0, 1), 0.5), BallProjection([0.0, 0.0], 1.0)])
        target, opts = make_custom_family({1: turned, 2: other}), SolveOptions()
    else:
        target, opts = turned, SolveOptions(warm_start=False)
    asked, passes = [], []
    original_piece, original_pass = CompositeOperator.affine_piece, CompositeOperator._apply_piece

    def query(self, x=None):
        if x is not None:
            asked.append(np.array(x))
        return original_piece(self, x)

    monkeypatch.setattr(CompositeOperator, "affine_piece", query)
    monkeypatch.setattr(CompositeOperator, "_apply_piece", lambda self, x: passes.append(x) or original_pass(self, x))
    calls = _count_picard_calls(monkeypatch)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=30), opts)
    assert len(trace) == 30
    assert [type(G) for G in calls] == [AffineOperator] * 30
    if case == "two-members":
        warms = [(0.0, 0.0)] + [step.point for step in trace.steps[:-1]]
    else:
        warms = [(0.0, 0.0)] * 30
    assert [tuple(x.tolist()) for x in asked] == warms
    # Each query is one pass, and no certificate takes a piece.
    assert len(passes) == len(asked)


def test_a_piece_lifted_past_its_declared_bound_is_kept_only_if_certified():
    # f declares 0.5 for a matrix with ||M||_2 > 1, so each piece
    # eps_n M + (1 - eps_n) I inside the ball has a norm above the modulus
    # q_n it carries, and its steps can grow before they decay.
    m = _growing(2)[0].matrix
    ball = BallProjection([0.0, 0.0], 100.0)
    delta = 1e-3
    opts = SolveOptions(inner_tol_rule=fixed_inner_tol(delta))
    certified = set()
    # A tiny offset stops the first piece solve after one step, whose point
    # the blend does not certify.
    for offset in ([0.0, 2e-3 / 3.5], [1.0, -1.0]):
        f = AffineOperator(m, offset, contraction(0.5))
        _, trace = viscosity_implicit_solve(f, ball, make_schedule(n_max=12), opts)
        warm = np.zeros(2)
        for step in trace.steps:
            g = blend(step.eps, f, 1.0 - step.eps, ball)
            q = g.declared_class.alpha
            assert np.linalg.norm(g.affine_piece(warm)[0], 2) > q
            point = np.array(step.point)
            kept = step.implicit_residual <= delta * (1.0 - q)
            assert kept or point.tobytes() == picard_solve(g, warm, delta).point.tobytes()
            certified.add(kept)
            warm = point
    assert certified == {True, False}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "offset, policy, error",
    [
        ([1.0, -1.0], TolerancePolicy(max_iter=5), MaxIterExceeded),
        ([1.7e308, 0.0], TolerancePolicy(), NonFiniteValue),
    ],
)
def test_a_failing_step_past_the_declared_bound_raises_what_the_blend_raises(monkeypatch, offset, policy, error):
    f = AffineOperator(_growing(2)[0].matrix, offset, contraction(0.5))
    ball = BallProjection([0.0, 0.0], 100.0)
    with pytest.raises(error) as direct:
        picard_solve(blend(0.5, f, 0.5, ball), [0.0, 0.0], 1e-9, policy)
    calls = _count_picard_calls(monkeypatch)
    with pytest.raises(error) as stepped:
        implicit_step(f, ball, 0.5, [0.0, 0.0], 1e-9, policy)
    assert [type(G) for G in calls] == [AffineOperator, BlendOperator]
    assert str(stepped.value) == str(direct.value)


def test_implicit_step_is_the_outer_loops_first_step(monkeypatch):
    f = AffineOperator(0.5 * np.eye(2), [0.3, -0.2])
    ball = BallProjection([0.0, 0.0], 2.0)
    sched = make_schedule(n_max=3)
    opts = SolveOptions()
    _, trace = viscosity_implicit_solve(f, ball, sched, opts)
    eps = sched.eps(1)
    calls = _count_picard_calls(monkeypatch)
    xi = implicit_step(f, ball, eps, np.zeros(2), opts.inner_tol_rule.delta(eps, opts.outer_tol))
    assert [type(G).__name__ for G in calls] == ["AffineOperator"]
    assert xi.tobytes() == np.array(trace.steps[0].point).tobytes()


def _gap_size(x, y) -> float:
    gap = x - y
    return math.sqrt(gap.dot(gap))


@pytest.mark.parametrize("case", ["stops-early", "cold-starts", "two-members", "small-batches"])
def test_a_planned_affine_solve_replays_step_by_step(monkeypatch, case):
    # Each step of a planned affine solve, redone alone: implicit_step from
    # the step's warm start gives its point, and the residuals taken one at
    # a time give the trace's columns, which the solver fills in for most
    # steps in stacked passes. With outer_tol 1e-2 the first steps move by
    # more than outer_tol, and the solve stops at step 100 of 300. Plan
    # batches of 7 steps fill the implicit residuals 7 steps at a time and
    # then for the last 2.
    if case == "small-batches":
        monkeypatch.setattr(schemes, "_PLAN_BATCH", 7 * 2 * 2)
    f = AffineOperator(0.5 * np.eye(2), [0.6, -0.8])
    target = make_rotation_flow([1.0], [1.0, 2.0] if case == "two-members" else [1.0])
    opts = SolveOptions(outer_tol=1e-2, warm_start=case != "cold-starts")
    result, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=300), opts)
    assert result.converged and len(trace) == result.iterations == 100
    members = [target.evaluate(t) for t in target.sample_indices()]
    mf, cf = f.matrix, f.offset
    x_prev = np.zeros(2)
    moved = []
    for step in trace.steps:
        T = members[(step.n - 1) % len(members)]
        warm = x_prev if opts.warm_start else np.zeros(2)
        x = implicit_step(f, T, step.eps, warm, opts.inner_tol_rule.delta(step.eps, opts.outer_tol))
        assert x.tobytes() == np.array(step.point).tobytes()
        mt, ct = T.affine_parts()
        m, c = step.eps * mf + (1.0 - step.eps) * mt, step.eps * cf + (1.0 - step.eps) * ct
        assert _gap_size(x, m @ x + c) == step.implicit_residual
        assert _gap_size(x, T.matrix @ x) == step.fix_residual
        assert _gap_size(x, x_prev) == step.step_delta
        moved.append(step.step_delta > opts.outer_tol)
        x_prev = x
    assert True in moved and False in moved
    assert result.residual == trace.last().fix_residual
    assert result.point.tobytes() == x_prev.tobytes()


@st.composite
def _affine_flows(draw):
    """An affine contraction f, a rotation flow of one or two planes (d = 2 or 4), and a schedule."""
    planes = draw(st.sampled_from((1, 2)))
    dim = 2 * planes
    rates = draw(st.lists(st.floats(0.1, 3.0), min_size=planes, max_size=planes))
    flow = make_rotation_flow(rates, draw(st.sampled_from(([1.0], [1.0, 2.5]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = rng.standard_normal((dim, dim))
    f = AffineOperator(draw(st.floats(0.1, 0.9)) / np.linalg.norm(matrix, 2) * matrix, rng.standard_normal(dim))
    if draw(st.booleans()):
        schedule = make_schedule("harmonic", {"p": draw(st.sampled_from((1.0, 2.0)))}, n_max=30)
    else:
        schedule = make_schedule("geometric", {"r": draw(st.sampled_from((0.5, 0.8)))}, n_max=30)
    return f, flow, schedule


@settings(max_examples=30, deadline=None)
@given(problem=_affine_flows())
def test_each_affine_step_lies_within_its_bound_of_the_exact_step_solution(problem):
    # The exact solution of the step's blend, with a = eps_n and b =
    # fl(1 - eps_n) and every float read exactly, against the bound that
    # inner_monitor receives. Picard's stop rule leaves the rounding floor
    # out, so the bound may exceed delta_n by up to the floor, and not only
    # where delta_n comes near it: a geometric step with delta_n 2e5 times
    # its floor has reported 5.82079e-11 for delta_n = 5.82077e-11.
    f, flow, schedule = problem
    members = [flow.evaluate(t) for t in flow.sample_indices()]
    opts = SolveOptions(policy=TolerancePolicy(max_iter=10**12))
    seen = []
    viscosity_implicit_solve(f, flow, schedule, opts, inner_monitor=lambda *step: seen.append(step))
    for n, eps, res in seen:
        T = members[(n - 1) % len(members)]
        exact = exact_affine_step(eps, f.affine_parts(), 1.0 - eps, T.affine_parts())
        assert exact_squared_distance(res.point, exact) <= Fraction(res.residual) ** 2
        q = blend(eps, f, 1.0 - eps, T).declared_class.alpha
        floor = np.finfo(float).eps * np.linalg.norm(res.point) / (1.0 - q)
        delta = opts.inner_tol_rule.delta(eps, opts.outer_tol)
        assert res.residual <= (delta + floor) * (1.0 + 1e-12)


def _work_per_step(monkeypatch, f, target, n_max) -> list:
    """(f evaluations, target evaluations, FixedPointResults built) in each step of a solve without a monitor.

    A step's counts run from its blend() call to the next step's, and the
    last step's to the end of the solve, which builds the outer result.
    """
    f_points, built, marks = [], [], []
    apply = f._apply
    f._apply = lambda x: f_points.append(x) or apply(x)
    t_points = _evaluations_outside_picard(monkeypatch, target, cut_at_picard=False)
    original_blend, original_new = schemes.blend, schemes.FixedPointResult.__new__

    def blended(*args):
        marks.append((len(f_points), len(t_points), len(built)))
        return original_blend(*args)

    def counted(cls, *args):
        built.append(args)
        return original_new(cls, *args)

    monkeypatch.setattr(schemes, "blend", blended)
    monkeypatch.setattr(schemes.FixedPointResult, "__new__", counted)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=n_max))
    assert len(trace) == len(marks) == n_max
    marks.append((len(f_points), len(t_points), len(built)))
    return [tuple(b - a for a, b in zip(before, after)) for before, after in zip(marks, marks[1:])]


@pytest.mark.parametrize(
    "target, anchor",
    [
        (BallProjection([0.3, -0.2], 1.0), [2.5, 1.0]),
        (BoxProjection([-1.0, -0.9, -1.1], [1.0, 1.1, 0.9]), [2.0, -3.0, 1.5]),
    ],
)
def test_a_kept_image_step_does_only_its_numeric_work(monkeypatch, target, anchor):
    # Every step after step 1 keeps its handed-on image: one blend() call,
    # one evaluation of f and of T, and no inner solve result built, as no
    # inner_monitor asks for one. The last step's count has the outer result.
    per_step = _work_per_step(monkeypatch, ConstantOperator(anchor), target, 200)
    assert per_step[1:] == [(1, 1, 0)] * 198 + [(1, 1, 1)]


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_the_stacked_residual_pass_has_each_steps_bits(dim):
    # Read-only views, as a schedule plan's rows and the solver's points
    # are; the pass fills in every other step, each stack built as the
    # solver builds it.
    rng = np.random.default_rng([dim, 22])
    held = [rng.standard_normal(shape) for shape in ((502, dim, dim), (502, dim), (502, dim))]
    for array in held:
        array.setflags(write=False)
    matrices, offsets, points = (array[1:-1] for array in held)
    steps = list(range(0, 500, 2))
    stacked = [np.array([stack[k] for k in steps]) for stack in (matrices, offsets)]
    column = [None] * 500
    schemes._fill_gaps(column, steps, list(points), type(None), lambda X, _: operators._stacked_product(stacked[0], X) + stacked[1])
    assert column[1::2] == [None] * 250
    for m, c, x, size in zip(matrices[steps], offsets[steps], points[steps], column[::2]):
        assert size == _gap_size(x, m @ x + c)
    # One matrix for every row, as a linear step operator takes it.
    shared = operators._stacked_product(matrices[0], points)
    assert [row.tobytes() for row in shared] == [(matrices[0] @ x).tobytes() for x in points]


# ---------------------------------------------------------------------------
# Affine solves whose stop is found by binary lifting


def _lifted(seed, dim, alpha):
    """An undeclared affine contraction, whose ||M|| = alpha comes from an SVD, and a start."""
    affine, _, start = _affine_twins(seed, dim, alpha)
    lifted = AffineOperator(affine.matrix, affine.offset)
    assert lifted.matrix_norm == affine.declared_class.alpha
    return lifted, start


def _scanned(op, start, tol, max_iter=10_000):
    """op solved by the step-by-step loop that picard_solve keeps for maps it cannot
    lift, with picard_solve's stopping rule and residual."""
    alpha = op.declared_class.alpha
    threshold = tol * (1.0 - alpha) / alpha
    point, steps = schemes._picard_generic(op, np.asarray(start, dtype=float), threshold, max_iter)
    assert steps[-1] <= threshold
    floor = np.finfo(float).eps * np.linalg.norm(point) / (1.0 - alpha)
    return schemes.FixedPointResult(point, steps[-1] * alpha / (1.0 - alpha) + floor, len(steps), True, tuple(steps))


def _growing(dim):
    """A declared affine contraction whose steps grow before they decay, and its generic twin.

    M = I/2 + 2 N, N the shift: the spectral radius is 1/2, so Picard
    converges, but ||M||_2 > 1, so ||s_(k+1)|| may exceed ||s_k||.
    """
    m = 0.5 * np.eye(dim) + 2.0 * np.eye(dim, k=1)
    c = np.linspace(1.0, -1.0, dim)
    declared = contraction(0.9)
    return AffineOperator(m, c, declared), FunctionOperator(lambda x: m @ x + c, dim, declared)


def _count_calls(monkeypatch, name: str) -> list:
    """The positional arguments of every call to schemes.<name> from now on."""
    calls = []
    original = getattr(schemes, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes, name, counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2, 3, 4, 5, 8)),
    alpha=st.floats(0.5, 0.995),
    tol=st.floats(1e-9, 1e-5),
)
# Short solves, stopping within _LONG_SOLVE steps, at every small dimension.
@example(seed=1, dim=1, alpha=0.5, tol=1e-5)
@example(seed=2, dim=2, alpha=0.6, tol=1e-6)
@example(seed=3, dim=3, alpha=0.5, tol=1e-9)
@example(seed=4, dim=4, alpha=0.7, tol=1e-5)
def test_lifted_affine_matches_the_blocked_scan(seed, dim, alpha, tol):
    lifted, start = _lifted(seed, dim, alpha)
    fast = picard_solve(lifted, start, tol)
    scan = _scanned(lifted, start, tol)
    # The lifted steps are products of squared powers M^(2^j), the scanned
    # ones steps from rounded iterates: they round differently, so a step
    # norm within rounding of the threshold may fall on either side of it.
    assert abs(fast.iterations - scan.iterations) <= 1
    assert len(fast.step_norms) == fast.iterations
    # A lifted solve's norms are the scan's, run for exactly its own count.
    shared = min(fast.iterations, scan.iterations)
    assert fast.step_norms[:shared] == scan.step_norms[:shared]
    gap = np.linalg.norm(fast.point - scan.point)
    assert gap <= fast.residual + scan.residual


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_lifted_budget_matches_the_blocked_scan(dim):
    lifted, start = _lifted(11, dim, 0.99)
    needed = _scanned(lifted, start, 1e-8).iterations
    assert needed > _LONG_SOLVE + 1
    exact = picard_solve(lifted, start, 1e-8, TolerancePolicy(max_iter=needed))
    assert exact.iterations == needed
    with pytest.raises(MaxIterExceeded, match=rf"budget of {needed - 1} steps.*q="):
        picard_solve(lifted, start, 1e-8, TolerancePolicy(max_iter=needed - 1))


def test_lifted_step_norms_are_computed_when_read(monkeypatch):
    lifted, start = _lifted(4, 2, 0.99)
    scan = _scanned(lifted, start, 1e-8)
    calls = _count_calls(monkeypatch, "_picard_generic")
    res = picard_solve(lifted, start, 1e-8)
    assert res.iterations == scan.iterations
    with pytest.raises(AttributeError):
        res.step_norms = ()
    assert calls == []
    assert res.step_norms == scan.step_norms
    assert len(calls) == 1
    assert res.step_norms is res.step_norms
    assert len(calls) == 1
    # An unread result pickles with its replay and reads the same norms back.
    unread = pickle.loads(pickle.dumps(picard_solve(lifted, start, 1e-8)))
    assert len(calls) == 1
    assert unread.step_norms == scan.step_norms


@pytest.mark.parametrize("dim", [2, 3])
def test_lifted_step_norms_replay_the_start_as_it_was(dim):
    lifted, start = _lifted(4, dim, 0.99)
    expected = _scanned(lifted, start, 1e-8).step_norms
    # A writeable start, and a read-only view of a writeable array: the
    # caller can still change both after the solve.
    data = start.copy()
    view = data.view()
    view.setflags(write=False)
    for given in (data, view):
        res = picard_solve(lifted, given, 1e-8)
        data[:] = 0.0
        assert res.step_norms == expected
        data[:] = start


def test_viscosity_solves_on_affine_blends_read_no_step_norms(monkeypatch):
    scans = _count_calls(monkeypatch, "_picard_generic")
    lifts = _count_calls(monkeypatch, "_lift")
    f = AffineOperator(0.5 * np.eye(2), [1.0, 0.0])
    _, trace = viscosity_implicit_solve(f, make_rotation_flow([1.0], [1.0]), make_schedule(n_max=50))
    short_steps = [step for step in trace.steps if step.inner_iters <= _LONG_SOLVE]
    # Every step lifts, short ones too, and none takes or replays a step.
    assert len(lifts) == len(trace.steps) == 50 and short_steps
    assert scans == []


def test_short_lifted_solves_keep_the_plain_loops_bits():
    (m00, m01), (m10, m11) = matrix = [[0.7, 0.1], [-0.1, 0.6]]
    alpha = float(np.linalg.norm(matrix, 2))
    lifted = picard_solve(AffineOperator(matrix, [0.3, -1.0]), [5.0, 1.0], 1e-9)
    declared = picard_solve(AffineOperator(matrix, [0.3, -1.0], contraction(alpha)), [5.0, 1.0], 1e-9)

    def ordered(x):
        return np.array([m00 * x[0] + m01 * x[1] + 0.3, m10 * x[0] + m11 * x[1] - 1.0])

    generic = picard_solve(FunctionOperator(ordered, 2, contraction(alpha)), [5.0, 1.0], 1e-9)
    assert lifted.iterations == generic.iterations <= _LONG_SOLVE
    assert lifted.step_norms == declared.step_norms
    assert np.linalg.norm(lifted.point - generic.point) <= lifted.residual + generic.residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_lifted_overflow_raises_without_runtime_warnings(dim):
    # 2c lies past the float range; 2e200 does not, but its step norms overflow.
    with pytest.raises(NonFiniteValue, match=r"steps 1-\d+ .*operator kind 'affine'"):
        picard_solve(AffineOperator(0.5 * np.eye(dim), [1.7e308] * dim), np.zeros(dim), 1e-8)
    # The lifted loop alone: picard_solve's rounding floor squares ||x|| too.
    huge = AffineOperator(0.5 * np.eye(dim), np.full(dim, 1e200))
    point, iterations, _, _ = schemes._picard_affine(huge, huge.affine_parts(), np.zeros(dim), 1.0, 10_000)
    assert iterations > _LONG_SOLVE
    np.testing.assert_allclose(point, [2e200] * dim)


def test_lifted_non_finite_values_name_the_operator_kind():
    overflowing = CompositeOperator(
        [LinearOperator(0.5 * np.eye(2)), AffineOperator(np.eye(2), [1.7e308] * 2, contraction(0.99))]
    )
    with pytest.raises(NonFiniteValue, match=r"steps 1-\d+ .*operator kind 'declared'"):
        picard_solve(DeclaredWrapper(overflowing, contraction(0.9)), [0.0, 0.0], 1e-8)


def test_lifting_needs_a_modulus_from_an_svd(monkeypatch):
    calls = _count_calls(monkeypatch, "_lift")
    m = np.array([[0.9, 0.0], [0.0, 0.5]])
    picard_solve(AffineOperator(m, [1.0, 1.0]), [0.0, 0.0], 1e-8)
    # A declared modulus may lie above or below ||M|| = 0.9; the solve takes
    # ||M|| from one SVD, and lifts on it.
    picard_solve(AffineOperator(m, [1.0, 1.0], contraction(0.95)), [0.0, 0.0], 1e-8)
    picard_solve(AffineOperator(m, [1.0, 1.0], contraction(0.85)), [0.0, 0.0], 1e-8)
    assert len(calls) == 3
    # With ||M|| >= 1 the steps may grow, whatever the declaration: no lift.
    picard_solve(_growing(2)[0], [0.0, 0.0], 1e-8)
    assert len(calls) == 3
    assert blend(0.5, AffineOperator(m, [1.0, 1.0]), 0.5, Identity(2)).matrix_norm == 0.95


@pytest.mark.parametrize("dim", [2, 5])
def test_maps_whose_steps_can_grow_match_the_generic_loop(monkeypatch, dim):
    affine, twin = _growing(dim)
    assert np.linalg.norm(affine.matrix, 2) >= 1.0
    assert max(abs(np.linalg.eigvals(affine.matrix))) < 1.0
    calls = _count_calls(monkeypatch, "_lift")
    res = picard_solve(affine, np.zeros(dim), 1e-9)
    generic = picard_solve(twin, np.zeros(dim), 1e-9)
    assert calls == []
    # The steps do grow, and the first one at the threshold comes after the growth.
    assert any(b > a for a, b in zip(res.step_norms, res.step_norms[1:]))
    assert res.iterations == generic.iterations == len(res.step_norms)
    np.testing.assert_allclose(res.step_norms, generic.step_norms, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.point, generic.point, rtol=1e-12)
    # An iterate past the float range ends the scan a step or two later.
    huge = AffineOperator(affine.matrix, np.full(dim, 1.7e308), affine.declared_class)
    with pytest.raises(NonFiniteValue, match=r"^Picard steps? (1-)?[1-9] produced a non-finite value"):
        picard_solve(huge, np.zeros(dim), 1e-9)


def _affine_family(dim, count):
    """count affine members x -> 0.9 Q x + c, Q orthogonal, as a custom family."""
    rng = np.random.default_rng(100 * dim + count)
    table = {}
    for k in range(1, count + 1):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        table[k] = AffineOperator(0.9 * q, rng.standard_normal(dim))
    return make_custom_family(table)


_ROTATION_RATES = {2: [1.0], 8: [1.0, 0.7, 1.3, 0.4]}


@pytest.mark.parametrize(
    "kind, dim, count",
    [("affine", dim, count) for dim in (1, 2, 3, 8) for count in (1, 2, 3, 4)]
    + [("rotation", dim, count) for dim in _ROTATION_RATES for count in (1, 2, 3, 4)],
)
def test_planned_collapses_equal_blends_own_bit_for_bit(monkeypatch, kind, dim, count):
    if kind == "rotation":
        family = make_rotation_flow(_ROTATION_RATES[dim], [0.25, 1.0, 3.0, 5.5][:count])
    else:
        family = _affine_family(dim, count)
    f = AffineOperator(0.5 * np.eye(dim), np.linspace(-1.0, 1.0, dim))
    step_ops = schemes._step_operators(family, dim)
    values = make_schedule(n_max=500).values
    # A batch of 7 steps puts batch edges inside the cycle of step operators.
    monkeypatch.setattr(schemes, "_PLAN_BATCH", 7 * dim * dim)
    blends = _count_calls(monkeypatch, "blend")
    # An outer_tol no step meets runs every step of the schedule.
    opts = SolveOptions(1e-300, fixed_inner_tol(1e-6), policy=TolerancePolicy(max_iter=10**9))
    viscosity_implicit_solve(f, family, make_schedule(n_max=500), opts)
    assert len(blends) == len(values)
    for n, (eps, args) in enumerate(zip(values, blends)):
        T = args[3]
        assert args[:3] == (eps, f, 1.0 - eps)
        assert T.affine_parts()[0].tobytes() == step_ops[n % count].affine_parts()[0].tobytes()
        planned = blend(*args)
        own = blend(eps, f, 1.0 - eps, T)
        assert planned.matrix.tobytes() == own.matrix.tobytes()
        assert planned.offset.tobytes() == own.offset.tobytes()
        assert planned.matrix_norm == own.matrix_norm
        assert planned.declared_class == own.declared_class
        assert not planned.matrix.flags.writeable and not planned.offset.flags.writeable


class _Planted(Operator):
    """The identity, declared nonexpansive, with a NaN planted in its affine form."""

    kind = "planted"

    def __init__(self, dim, entry=math.nan):
        super().__init__(dim, NONEXPANSIVE)
        self.entry = entry

    def _apply(self, x):
        return x.copy()

    def affine_piece(self, x=None):
        matrix = np.eye(self.dim)
        matrix[0, 0] = self.entry
        return matrix, np.zeros(self.dim)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_plan_batch_raises_at_its_own_step(monkeypatch):
    monkeypatch.setattr(schemes, "_PLAN_BATCH", 7 * 4)
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    rotations = [PlaneRotation(2, (0, 1), angle) for angle in (0.5, 1.0)]
    family = make_custom_family({1: rotations[0], 2: rotations[1], 3: _Planted(2)})
    blends = _count_calls(monkeypatch, "blend")
    steps = []
    with pytest.raises(InvalidSpec, match="collapsed matrix has non-finite entries"):
        viscosity_implicit_solve(
            f, family, make_schedule(n_max=20), inner_monitor=lambda n, eps, res: steps.append(n)
        )
    # Each rotation's rows are planned, and the steps before the planted
    # member's run on their planned collapses; the planted member's form is
    # rejected when its stepper first plans it, at its own step, before its blend.
    assert steps == [1, 2]
    assert [args[4].everywhere for args in blends] == [True, True]
    # A non-finite forcing form is rejected the same way, without a warning.
    with pytest.raises(InvalidSpec, match="collapsed matrix has non-finite entries"):
        viscosity_implicit_solve(
            DeclaredWrapper(_Planted(2, -math.inf), contraction(0.5)),
            _Planted(2, math.inf),
            make_schedule(n_max=20),
        )


def test_blend_moduli_are_none_without_affine_forms(monkeypatch):
    ball = BallProjection([0.0, 0.0], 1.0)
    f = AffineOperator(0.5 * np.eye(2), [1.0, 0.0])
    blends = _count_calls(monkeypatch, "blend")
    viscosity_implicit_solve(f, ball, make_schedule(n_max=5), SolveOptions(outer_tol=1e-300))
    assert [args[4] for args in blends] == [None] * 5


def _solved_pieces(monkeypatch) -> list:
    """[blend's arguments, the piece the step's piece solve took or None] for each outer step from now on."""
    steps = []
    original_blend, original_affine = schemes.blend, schemes._affine

    def blended(*args):
        steps.append([args, None])
        return original_blend(*args)

    def affine(piece, *args):
        steps[-1][1] = piece
        return original_affine(piece, *args)

    monkeypatch.setattr(schemes, "blend", blended)
    monkeypatch.setattr(schemes, "_affine", affine)
    return steps


def _steppers_with(monkeypatch, **attributes):
    """Every stepper built from now on, with the given attributes set over what its init set."""
    init = schemes._Stepper.__init__

    def built(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for name, value in attributes.items():
            setattr(self, name, value)

    monkeypatch.setattr(schemes._Stepper, "__init__", built)


def _unplanned(monkeypatch):
    """Steppers that plan nothing from now on, so that every step builds its own blend and piece."""
    _steppers_with(monkeypatch, forcing=None)


def _trace_bits(trace) -> bytes:
    rows = [
        (*step.point, step.implicit_residual, step.fix_residual, step.inner_iters, step.step_delta)
        for step in trace.steps
    ]
    return np.array(rows, dtype=float).tobytes()


def _turned_ball(angle=1.0):
    return CompositeOperator([PlaneRotation(2, (0, 1), angle), BallProjection([0.0, 0.0], 1.0)])


@pytest.mark.parametrize("case", ["rotation-ball", "averaged-rotation-ball", "retraction", "function-forcing"])
def test_a_handed_on_piece_gives_the_bits_of_one_the_plan_asks_for(monkeypatch, case):
    # The benchmark's nonaffine solves and one with a forcing term without
    # a global form, each run twice: once as it is, with each certificate's
    # piece handed on to the plan or the step's own query, and once with
    # the piece dropped: each solve hands on its point in the piece's
    # place, the next step's warm start, where the target is asked again.
    def traces():
        if case == "retraction":
            return [
                anchored_implicit_solve(anchor, _turned_ball(), n_max=50)[1]
                for anchor in ([3.0, 0.0], [0.0, -3.0], [-2.0, 2.0])
            ]
        target = AveragedOperator(_turned_ball(), 0.5) if case == "averaged-rotation-ball" else _turned_ball()
        if case == "function-forcing":
            f = _half_and_shift([0.6, -0.8])
        else:
            f = AffineOperator(0.5 * np.eye(2), [0.6, -0.8])
        return [viscosity_implicit_solve(f, target, make_schedule(n_max=100))[1]]

    queries = []
    for cls in (CompositeOperator, AveragedOperator):
        original = cls.affine_piece
        monkeypatch.setattr(
            cls, "affine_piece", lambda self, x=None, _original=original: queries.append(x) or _original(self, x)
        )
    handed = traces()
    asked_once = sum(x is not None for x in queries)
    queries.clear()
    # Steppers that hand nothing on: no pass serves the next step, whose
    # plan or own query asks its target again at the warm start.
    _steppers_with(monkeypatch, hand_on=False)
    dropped = traces()
    # Handed on, the plan asks only for each solve's first piece.
    assert asked_once == len(handed)
    assert sum(x is not None for x in queries) == sum(len(trace) for trace in dropped)
    assert [_trace_bits(trace) for trace in handed] == [_trace_bits(trace) for trace in dropped]


def _piece_target(kind, dim, angle):
    """A target with no global affine form whose pieces are stable objects."""
    ball = BallProjection(np.zeros(dim), 1.0)
    turn = PlaneRotation(dim, (0, dim - 1), angle) if dim > 1 else Negation(1)
    if kind == "ball":
        return ball
    if kind == "rotation-ball":
        return CompositeOperator([turn, ball])
    if kind == "iterated-ball":
        return IteratedOperator(ball, 3)
    return make_custom_family({1: CompositeOperator([turn, ball]), 2: CompositeOperator([ball, turn])})


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 5]),
    kind=st.sampled_from(["ball", "rotation-ball", "iterated-ball", "family"]),
    angle=st.floats(0.1, 3.0),
    reach=st.floats(0.05, 3.0),
    n_max=st.integers(2, 40),
    window=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_planned_pieces_equal_the_blends_own_bit_for_bit(dim, kind, angle, reach, n_max, window, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    f = AffineOperator(0.5 * np.eye(dim), reach * direction / np.linalg.norm(direction))
    target = _piece_target(kind, dim, angle)
    schedule = make_schedule(n_max=n_max)
    with pytest.MonkeyPatch.context() as mp:
        # Batches of `window` steps put batch edges inside the run.
        mp.setattr(schemes, "_PLAN_BATCH", window * dim * dim)
        built = []
        original = schemes._blend_form
        mp.setattr(schemes, "_blend_form", lambda *args: built.append(np.ndim(args[0])) or original(*args))
        steps = _solved_pieces(mp)
        _, trace = viscosity_implicit_solve(f, target, schedule)
        mp.undo()
        mp.setattr(schemes, "_PLAN_BATCH", window * dim * dim)
        _unplanned(mp)
        _, unplanned = viscosity_implicit_solve(f, target, schedule)
    assert _trace_bits(trace) == _trace_bits(unplanned)
    warms = [np.zeros(dim)] + [np.array(step.point) for step in trace.steps[:-1]]
    assert len(steps) == len(warms)
    entries = [entry for _, entry in steps]
    for (args, entry), warm in zip(steps, warms):
        assert args[4] is None
        own = blend(*args[:4]).affine_piece(warm)
        if own is None:
            assert entry is None
            continue
        assert entry.matrix.tobytes() == own[0].tobytes()
        assert entry.offset.tobytes() == own[1].tobytes()
        assert not entry.everywhere
        assert not entry.matrix.flags.writeable and not entry.offset.flags.writeable
    if all(entry is not None for entry in entries):
        # Each member's first piece is built alone (one blend form with a
        # scalar weight); every later row is planned.
        assert built.count(0) == min(len(schemes._step_operators(target, dim)), len(entries))


class _PlainPairs(Operator):
    """A map, declared nonexpansive, whose hook hands out its pieces as plain (matrix, offset) pairs."""

    kind = "plain-pairs"

    def __init__(self, inner):
        super().__init__(inner.dim, NONEXPANSIVE)
        self.inner = inner

    def _apply(self, x):
        return self.inner._apply(x)

    def affine_piece(self, x=None):
        piece = self.inner.affine_piece(x)
        return None if piece is None else tuple(piece)


def _planned_rows(monkeypatch) -> list:
    """The index of every row a schedule plan takes from a stacked piece from now on."""
    rows = []
    original = operators._Piece.row

    def counted(self, index):
        rows.append(index)
        return original(self, index)

    monkeypatch.setattr(operators._Piece, "row", counted)
    return rows


def test_a_target_with_fresh_pieces_plans_nothing(monkeypatch):
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    # A plain pair is checked into a new piece on every call.
    turned = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    target = _PlainPairs(turned)
    _unplanned(monkeypatch)
    _, unplanned = viscosity_implicit_solve(f, target, make_schedule(n_max=30))
    monkeypatch.undo()
    built = _count_calls(monkeypatch, "_blend_form")
    rows = _planned_rows(monkeypatch)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=30))
    # Every step has a piece, each a new object, so each row is built alone.
    assert [np.ndim(args[0]) for args in built] == [0] * len(trace) and len(trace) == 30
    assert rows == []
    assert _trace_bits(trace) == _trace_bits(unplanned)


def test_an_averaged_piece_schedule_builds_one_row_alone_and_plans_the_rest(monkeypatch):
    # An averaged map keeps its piece while its inner piece is the same
    # object, so its schedule plans like a composite's.
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    turned = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    target = AveragedOperator(turned, 0.5)
    _unplanned(monkeypatch)
    _, unplanned = viscosity_implicit_solve(f, target, make_schedule(n_max=100))
    monkeypatch.undo()
    built = _count_calls(monkeypatch, "_blend_form")
    rows = _planned_rows(monkeypatch)
    _, trace = viscosity_implicit_solve(f, target, make_schedule(n_max=100))
    assert all(sum(x * x for x in step.point) <= 1.0 for step in trace.steps)
    assert len(trace) == 100
    # Step 1's row is built alone, and step 2 stacks the other 99 in one batch.
    assert [np.ndim(args[0]) for args in built] == [0, 1]
    assert rows == list(range(99))
    assert _trace_bits(trace) == _trace_bits(unplanned)


def test_a_mixed_family_plans_both_members_bit_for_bit(monkeypatch):
    # An affine member and a member with local pieces: the rotation's steps
    # take planned collapses, with their norms from one batched SVD, and the
    # composite's take planned pieces.
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    turned = CompositeOperator([PlaneRotation(2, (0, 1), 1.0), BallProjection([0.0, 0.0], 1.0)])
    family = make_custom_family({1: PlaneRotation(2, (0, 1), 0.5), 2: turned})
    schedule = make_schedule(n_max=100)
    _unplanned(monkeypatch)
    _, unplanned = viscosity_implicit_solve(f, family, schedule)
    monkeypatch.undo()
    blends = _count_calls(monkeypatch, "blend")
    built = _count_calls(monkeypatch, "_blend_form")
    svds = []
    original_svd = np.linalg.svd

    def svd(matrix, *args, **kwargs):
        svds.append(matrix.shape)
        return original_svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    _, trace = viscosity_implicit_solve(f, family, schedule)
    assert len(trace) == 100
    assert _trace_bits(trace) == _trace_bits(unplanned)
    assert all(args[4] is not None and args[4].everywhere for args in blends[0::2])
    assert all(args[4] is None for args in blends[1::2])
    # No per-step SVD: one for the rotation's 50 rows, none for the pieces.
    assert svds == [(50, 2, 2)]
    # Two stacks, and one row built alone: the composite's first.
    assert [np.ndim(args[0]) for args in built] == [1, 0, 1]


class _Stored(Operator):
    """A plane rotation, declared nonexpansive, whose local piece is one stored piece of read-only views."""

    kind = "stored"

    def __init__(self, angle):
        super().__init__(2, NONEXPANSIVE)
        self.rotation = PlaneRotation(2, (0, 1), angle)
        self.base = self.rotation.affine_parts()[0].copy()
        self.piece = operators._Piece(self.base.view(), np.zeros(2), False)

    def _apply(self, x):
        return self.rotation._apply(x)

    def affine_piece(self, x=None):
        return None if x is None else self.piece


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_planned_piece_batch_raises_at_its_own_step(monkeypatch):
    # Four steps per batch at d = 2.
    monkeypatch.setattr(schemes, "_PLAN_BATCH", 4 * 4)
    f = AffineOperator(0.5 * np.eye(2), [0.1, 0.05])
    target = _Stored(1.0)
    built = _count_calls(monkeypatch, "_blend_form")
    rows = _planned_rows(monkeypatch)
    steps = []

    def monitor(n, eps, res):
        steps.append(n)
        if n == 4:
            # The stored piece is spoiled behind its read-only view.
            target.base[0, 0] = math.nan

    with pytest.raises(InvalidSpec, match="piece matrix has non-finite entries"):
        viscosity_implicit_solve(f, target, make_schedule(n_max=20), inner_monitor=monitor)
    # Step 1 is built alone and steps 2-4 are planned; step 5's batch is not
    # planned, and its own row raises.
    assert steps == [1, 2, 3, 4]
    assert [np.ndim(args[0]) for args in built] == [0, 1, 1, 0]
    assert rows == [0, 1, 2]


def test_rotation_inner_solves_keep_real_step_norms(rotation_run):
    # Criterion 4 reads these norms; they must be Picard's, one per step.
    for _, _, picard in rotation_run.inner:
        assert len(picard.step_norms) == picard.iterations > 0


# ---------------------------------------------------------------------------
# The per-step fixed cost: the unrolled d = 2 lift, frozen points, wide norms


def _reference_pair_lift(matrix, step, threshold, max_iter):
    """_lift at d = 2 as it was written on tuples through five small helpers.

    Kept as the reference of the unrolled loop: same levels, same
    expressions, same order of operations.
    """

    def make_level(m):
        (m00, m01), (m10, m11) = m.tolist()
        return m00, m01, m10, m11, 1.0, 0.0, 0.0, 1.0

    def apply(level, v):
        p00, p01, p10, p11, s00, s01, s10, s11 = level
        a, b = v
        return (p00 * a + p01 * b, p10 * a + p11 * b), (s00 * a + s01 * b, s10 * a + s11 * b)

    def square(level):
        p00, p01, p10, p11, s00, s01, s10, s11 = level
        return (
            p00 * p00 + p01 * p10, p00 * p01 + p01 * p11,
            p10 * p00 + p11 * p10, p10 * p01 + p11 * p11,
            s00 + (s00 * p00 + s01 * p10), s01 + (s00 * p01 + s01 * p11),
            s10 + (s10 * p00 + s11 * p10), s11 + (s10 * p01 + s11 * p11),
        )

    def add(u, v):
        return u[0] + v[0], u[1] + v[1]

    def size(v):
        return math.sqrt(v[0] * v[0] + v[1] * v[1])

    step = tuple(step.tolist())
    first = size(step)
    if first <= threshold:
        return 1, step, first
    p, v, total, last = 1, step, (0.0, 0.0), None
    levels = []
    while 2 * p <= max_iter:
        level = square(levels[-1]) if levels else make_level(matrix)
        nxt, seg = apply(level, v)
        h = size(nxt)
        if h <= threshold:
            last = nxt, h
            break
        levels.append(level)
        p, v, total = 2 * p, nxt, add(total, seg)
    for j in range(len(levels) - 1, -1, -1):
        if p + (1 << j) > max_iter:
            continue
        nxt, seg = apply(levels[j], v)
        h = size(nxt)
        if h <= threshold:
            last = nxt, h
        else:
            p, v, total = p + (1 << j), nxt, add(total, seg)
    total = add(total, v)
    if last is None:
        return None, total, None
    return p + 1, add(total, last[0]), last[1]


def _lift_bits(found, total, last):
    """(k, total, last) with every float as its bytes, so that NaNs and -0.0 compare exactly."""
    return found, np.array(total, dtype=float).tobytes(), None if last is None else np.float64(last).tobytes()


def _assert_lift_matches_the_reference(matrix, step, threshold, max_iter):
    matrix, step = np.array(matrix, dtype=float), np.array(step, dtype=float)
    lifted = schemes._lift(matrix, step, threshold, max_iter)
    assert isinstance(lifted[1], tuple)
    assert _lift_bits(*lifted) == _lift_bits(*_reference_pair_lift(matrix, step, threshold, max_iter))
    return lifted


@st.composite
def _pair_contractions(draw):
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))).reshape(2, 2)
    size = float(np.linalg.norm(raw, 2))
    assume(size > 1e-3)
    return draw(st.floats(0.3, 0.9999)) / size * raw


@settings(max_examples=300, deadline=None)
@given(
    matrix=_pair_contractions(),
    step=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    threshold=st.floats(1e-12, 10.0),
    max_iter=st.integers(1, 200_000),
)
def test_unrolled_pair_lift_is_bit_identical_to_the_helper_formulation(matrix, step, threshold, max_iter):
    _assert_lift_matches_the_reference(matrix, step, threshold, max_iter)


def test_unrolled_pair_lift_matches_on_a_budget_cut_and_a_nan_step():
    rotation = 0.999 * np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    # ||s_k|| = 0.999^(k-1) first falls to 1e-3 at k - 1 = 6905 > log(1e-3) / log(0.999).
    found, _, last = _assert_lift_matches_the_reference(rotation, [1.0, 0.0], 1e-3, 100_000)
    assert found == 6906 and last <= 1e-3
    for budget in (1, 2, 3, 1000, 6905):
        found, total, last = _assert_lift_matches_the_reference(rotation, [1.0, 0.0], 1e-3, budget)
        assert found is None and last is None and all(math.isfinite(t) for t in total)
    found, total, last = _assert_lift_matches_the_reference(rotation, [math.nan, 1.0], 1e-3, 100_000)
    assert found is None and all(math.isnan(t) for t in total)


_ROTATION_2 = np.array([[0.7, 0.1], [-0.1, 0.6]])


@pytest.mark.parametrize(
    "name, lifts",
    [("plain", False), ("generic, d = 5", False), ("declared, d = 2", True), ("declared, d = 5", True),
     ("lifted, d = 2", True), ("lifted, d = 3", True), ("lifted, short, d = 2", True)],
)
def test_affine_picard_points_are_fresh_and_read_only(monkeypatch, name, lifts):
    operators = {
        "plain": (_growing(2)[0], 1e-9),
        "generic, d = 5": (_growing(5)[0], 1e-9),
        "declared, d = 2": (_affine_twins(1, 2, 0.99)[0], 1e-8),
        "declared, d = 5": (_affine_twins(2, 5, 0.99)[0], 1e-8),
        "lifted, d = 2": (_lifted(1, 2, 0.99)[0], 1e-8),
        "lifted, d = 3": (_lifted(2, 3, 0.99)[0], 1e-8),
        "lifted, short, d = 2": (AffineOperator(_ROTATION_2, [0.3, -1.0]), 1e-9),
    }
    op, tol = operators[name]
    calls = _count_calls(monkeypatch, "_lift")
    start = np.linspace(-1.0, 1.0, op.dim)
    res = picard_solve(op, start, tol)
    assert len(calls) == int(lifts)
    assert res.iterations > 1
    assert not res.point.flags.writeable
    assert not np.shares_memory(res.point, start)
    with pytest.raises(ValueError):
        res.point[0] = 0.0


@pytest.mark.parametrize("declared", [contraction(0.5), contraction(0.0)])
def test_generic_picard_points_are_copies_of_what_the_callable_returned(declared):
    held = []

    def kept(x):
        # Every array returned is one this callable still holds.
        held.append(declared.alpha * x + 1.0)
        return held[-1]

    res = picard_solve(FunctionOperator(kept, 2, declared), [0.0, 0.0], 1e-9)
    assert held and not res.point.flags.writeable
    assert not any(np.shares_memory(res.point, y) for y in held)
    np.testing.assert_array_equal(res.point, held[-1])
    held[-1][0] = 99.0
    assert res.point[0] != 99.0


@pytest.mark.parametrize(
    "target", [make_rotation_flow([1.0], [1.0]), BallProjection([0.0, 0.0], 0.5)], ids=["affine", "ball"]
)
def test_trace_points_are_the_inner_points_as_python_floats(target):
    points = []
    f = AffineOperator(0.5 * np.eye(2), [1.0, -0.5])
    _, trace = viscosity_implicit_solve(
        f, target, make_schedule(n_max=30), inner_monitor=lambda n, eps, res: points.append(res.point)
    )
    assert len(points) == len(trace.steps) == 30
    for step, xi in zip(trace.steps, points):
        assert step.point == tuple(float(c) for c in xi)
        assert all(type(c) is float for c in step.point)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [5, 8])
def test_declared_affine_past_the_square_range_sizes_its_blocks_without_warnings(dim):
    # ||s_1|| = 1e200 sqrt(d) squares past the float range; the iterates do not.
    res = picard_solve(AffineOperator(0.5 * np.eye(dim), [1e200] * dim, contraction(0.5)), np.zeros(dim), 1.0)
    np.testing.assert_allclose(res.point, [2e200] * dim)
    assert math.isfinite(res.residual)
    assert res.step_norms[0] == math.inf
    assert len(res.step_norms) == res.iterations


# ---------------------------------------------------------------------------
# Per-step values


_PER_STEP_VALUES = {
    "TraceStep": (
        TraceStep,
        ("n", "eps", "point", "implicit_residual", "fix_residual", "inner_iters", "step_delta"),
        (3, 0.25, (1.0, -2.0), 1e-9, 2e-8, 17, 0.5),
    ),
    "FixedPointResult": (
        schemes.FixedPointResult,
        ("point", "residual", "iterations", "converged", "step_norms"),
        (np.array([1.0, -2.0]), 1e-9, 2, True, (0.5, 0.25)),
    ),
    "DeclaredClass": (DeclaredClass, ("kind", "alpha"), ("contraction", 0.5)),
}


@pytest.mark.parametrize("name", list(_PER_STEP_VALUES))
def test_per_step_values_are_immutable_and_built_by_position(name):
    cls, names, values = _PER_STEP_VALUES[name]
    value = cls(*values)
    assert value._fields == names
    by_name = cls(**dict(zip(names, values)))
    for field, given in zip(names, values):
        assert getattr(value, field) is given
        assert getattr(by_name, field) is given
        with pytest.raises(AttributeError):
            setattr(value, field, given)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
