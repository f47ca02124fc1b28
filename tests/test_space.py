"""Vector primitives and the properties that make R^d a usable Hilbert space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscofix import DimensionMismatch, TolerancePolicy, inner, norm
from viscofix.space import (
    DEFAULT_POLICY,
    as_vector,
    check_same_dim,
    convex_combine,
    make_rng,
    sample_ball,
    sample_sphere,
)

ABS_TOL = 1e-10
REL_TOL = 1e-8
DIM = 4

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = arrays(np.float64, (DIM,), elements=coords)


def test_inner_examples():
    assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert inner([3.0, 4.0], [3.0, 4.0]) == 25.0
    assert inner([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


def test_norm_examples():
    assert norm([0.0, 0.0, 0.0]) == 0.0
    assert norm([3.0, 4.0]) == 5.0
    assert norm([1.0, 1.0, 1.0, 1.0]) == 2.0


@given(
    arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(-1e150, 1e150),
    )
)
def test_norm_has_the_bits_of_numpy_norm(v):
    assert norm(v) == float(np.linalg.norm(v))
    assert norm(v.tolist()) == float(np.linalg.norm(v))


def test_convex_combine_examples():
    np.testing.assert_allclose(convex_combine(0.5, [2.0, 0.0], 0.5, [0.0, 2.0]), [1.0, 1.0])
    u = np.array([1.5, -2.0])
    np.testing.assert_allclose(convex_combine(1.0, u, 0.0, [9.0, 9.0]), u)
    np.testing.assert_allclose(convex_combine(0.25, [4.0, 8.0], 0.75, [0.0, 0.0]), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        convex_combine(0.5, [1.0], 0.5, [1.0, 2.0])


def test_as_vector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector(3.0)


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


def test_as_vector_is_a_read_only_copy():
    src = np.array([1.0, 2.0])
    v = as_vector(src)
    src[0] = 99.0
    assert v[0] == 1.0
    with pytest.raises(ValueError):
        v[0] = 5.0


def test_check_same_dim():
    check_same_dim(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        check_same_dim(np.zeros(3), np.ones(2))


def test_tolerance_policy_defaults_and_validation():
    assert DEFAULT_POLICY.abs_tol == 1e-10
    assert DEFAULT_POLICY.rel_tol == 1e-8
    assert DEFAULT_POLICY.max_iter == 10_000
    with pytest.raises(ValueError):
        TolerancePolicy(abs_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(rel_tol=-1.0)
    with pytest.raises(ValueError):
        TolerancePolicy(max_iter=0)


def test_make_rng_is_deterministic():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen


def test_samplers_stay_in_their_sets():
    rng = make_rng(123)
    for _ in range(50):
        assert norm(sample_ball(rng, 3, 2.5)) <= 2.5 + ABS_TOL
        assert norm(sample_sphere(rng, 3)) == pytest.approx(1.0, abs=1e-12)


@given(u=vectors, v=vectors)
def test_cauchy_schwarz(u, v):
    assert abs(inner(u, v)) <= norm(u) * norm(v) + ABS_TOL


@given(u=vectors, v=vectors)
def test_parallelogram_law(u, v):
    left = norm(u + v) ** 2 + norm(u - v) ** 2
    right = 2.0 * norm(u) ** 2 + 2.0 * norm(v) ** 2
    assert left == pytest.approx(right, rel=REL_TOL, abs=ABS_TOL)


@given(u=vectors, v=vectors, lam=st.floats(min_value=0.0, max_value=1.0))
def test_convex_combination_norm_bound(u, v, lam):
    combined = convex_combine(lam, u, 1.0 - lam, v)
    assert norm(combined) <= lam * norm(u) + (1.0 - lam) * norm(v) + ABS_TOL
