"""Operator catalog, empirical Lipschitz probes, norm certificates, fixed-point sets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscofix import (
    AffineOperator,
    AveragedOperator,
    BallProjection,
    BoxProjection,
    CompositeOperator,
    ConstantOperator,
    DimensionMismatch,
    FunctionOperator,
    Identity,
    InvalidSpec,
    IteratedOperator,
    LinearOperator,
    Negation,
    NonFiniteValue,
    NotLinear,
    NotNonexpansive,
    PlaneRotation,
    certify_norm_attainable,
    check_nonexpansive,
    contraction,
    estimate_lipschitz,
    fixed_points_linear,
    make_operator,
    operator_norm,
)
from viscofix import operators, semigroup
from viscofix.operators import NONEXPANSIVE, BlendOperator, DeclaredWrapper, Operator, blend, nullspace_basis

from oracles import ALL_ONES_FALLS_SHORT, brute_force_nullity, charpoly_sigma

CATALOG_TOL = 1e-9
ORACLE_TOL = 1e-8
CERT_TOL = 1e-12

coords3 = arrays(np.float64, (3,), elements=st.floats(min_value=-10.0, max_value=10.0))


# ---------------------------------------------------------------------------
# apply() on the worked catalog cases


def test_ball_projection_apply():
    proj = BallProjection([0.0, 0.0], 1.0)
    np.testing.assert_allclose(proj.apply([2.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(proj.apply([0.5, 0.0]), [0.5, 0.0])
    np.testing.assert_allclose(proj.apply([3.0, 4.0]), [0.6, 0.8])


def test_box_projection_apply():
    proj = BoxProjection([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(proj.apply([2.0, -1.0]), [1.0, 0.0])
    np.testing.assert_allclose(proj.apply([0.3, 0.7]), [0.3, 0.7])


def test_rotation_apply():
    rot = PlaneRotation(2, (0, 1), math.pi / 2)
    np.testing.assert_allclose(rot.apply([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_rotation_leaves_other_coordinates_alone():
    rot = PlaneRotation(3, (0, 1), 0.7)
    out = rot.apply([0.0, 0.0, 5.0])
    np.testing.assert_allclose(out, [0.0, 0.0, 5.0])


def test_constant_and_negation_and_identity():
    c = ConstantOperator([1.0, 2.0])
    np.testing.assert_array_equal(c.apply([9.0, 9.0]), [1.0, 2.0])
    assert c.declared_class.kind == "contraction"
    assert c.declared_class.alpha == 0.0
    np.testing.assert_array_equal(Negation(2).apply([1.0, -3.0]), [-1.0, 3.0])
    np.testing.assert_array_equal(Identity(2).apply([4.0, 5.0]), [4.0, 5.0])


def test_averaged_apply_and_class():
    half_neg = AveragedOperator(Negation(2), 0.5)
    np.testing.assert_array_equal(half_neg.apply([2.0, 4.0]), [0.0, 0.0])
    assert half_neg.declared_class.lipschitz_bound() == 1.0


def test_composite_applies_left_to_right():
    shift = AffineOperator(np.eye(2), [1.0, 0.0])
    double = LinearOperator(2.0 * np.eye(2))
    comp = CompositeOperator([shift, double])
    np.testing.assert_array_equal(comp.apply([0.0, 0.0]), [2.0, 0.0])


def test_iterated_matches_repeated_apply():
    base = AffineOperator(0.5 * np.eye(2), [1.0, 0.0])
    it = IteratedOperator(base, 3)
    x = np.array([4.0, -2.0])
    expected = base.apply(base.apply(base.apply(x)))
    np.testing.assert_allclose(it.apply(x), expected)
    m, c = it.affine_parts()
    np.testing.assert_allclose(m @ x + c, expected)
    assert IteratedOperator(base, 0).apply(x) == pytest.approx(list(x))


def test_a_zero_fold_iterate_is_the_identity_everywhere():
    # The empty composition holds everywhere, whatever the base's pieces.
    zero = IteratedOperator(BallProjection([0.0, 0.0], 1.0), 0)
    form = zero.affine_parts()
    assert form.everywhere
    np.testing.assert_array_equal(form.matrix, np.eye(2))
    np.testing.assert_array_equal(form.offset, np.zeros(2))
    with pytest.raises(ValueError):
        form.matrix[0, 0] = 2.0
    with pytest.raises(ValueError):
        form.offset[0] = 1.0
    assert isinstance(blend(0.5, AffineOperator(0.5 * np.eye(2), [1.0, 0.0]), 0.5, zero), AffineOperator)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_form_that_overflows_is_rejected_when_built():
    steep = AffineOperator(np.diag([1e200, 0.0]), [0.0, 0.0])
    twice = CompositeOperator([steep, steep])
    with pytest.raises(InvalidSpec, match="collapsed matrix has non-finite entries"):
        twice.affine_parts()
    with pytest.raises(InvalidSpec, match="collapsed matrix has non-finite entries"):
        estimate_lipschitz(twice, 5, 1.0)


def test_dimension_mismatch_on_apply():
    with pytest.raises(DimensionMismatch):
        Identity(2).apply([1.0, 2.0, 3.0])


#: One operator of every catalog kind, plus nested and wrapped forms: inner
#: levels run unchecked, so the public apply must reject bad shapes itself.
SHAPE_CHECKED = {
    "linear": LinearOperator(0.5 * np.eye(2)),
    "affine": AffineOperator(0.5 * np.eye(2), [1.0, 0.0]),
    "identity": Identity(2),
    "negation": Negation(2),
    "constant": ConstantOperator([0.5, 0.5]),
    "projection_ball": BallProjection([1.0, -1.0], 2.0),
    "projection_box": BoxProjection([-1.0, 0.0], [1.0, 2.0]),
    "rotation": PlaneRotation(2, (0, 1), 0.9),
    "averaged": AveragedOperator(Negation(2), 0.5),
    "composite-nested": CompositeOperator(
        [CompositeOperator([PlaneRotation(2, (0, 1), 0.4), Negation(2)]), BallProjection([0.0, 0.0], 1.0)]
    ),
    "iterated": IteratedOperator(PlaneRotation(2, (0, 1), 0.4), 2),
    "blend": BlendOperator(0.5, ConstantOperator([1.0, 0.0]), 0.5, BallProjection([0.0, 0.0], 1.0)),
    "function": FunctionOperator(lambda x: 0.5 * x, 2),
    "declared": DeclaredWrapper(FunctionOperator(lambda x: 0.5 * x, 2), contraction(0.5)),
}


@pytest.mark.parametrize("op", SHAPE_CHECKED.values(), ids=SHAPE_CHECKED.keys())
@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], 1.0], ids=["long", "short", "matrix", "scalar"])
def test_public_apply_rejects_bad_shapes(op, bad):
    with pytest.raises(DimensionMismatch):
        op.apply(bad)
    with pytest.raises(DimensionMismatch):
        op(bad)


def test_blend_checks_the_shape_a_wrapped_callable_returns():
    truncating = FunctionOperator(lambda x: x[:1], 2, name="truncating")
    mixed = BlendOperator(0.5, Identity(2), 0.5, CompositeOperator([Negation(2), truncating]))
    with pytest.raises(DimensionMismatch, match="'truncating' returned shape"):
        mixed.apply([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="'truncating' returned shape"):
        mixed([1.0, 2.0])


# ---------------------------------------------------------------------------
# Declared classes and constructor validation


def test_linear_class_from_matrix_norm():
    assert LinearOperator(0.5 * np.eye(2)).declared_class.kind == "contraction"
    assert LinearOperator(np.eye(2)).declared_class.kind == "nonexpansive"
    assert LinearOperator(2.0 * np.eye(2)).declared_class.kind == "unknown"


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("angle", [0.1, 0.3, 1.0, math.pi / 3, 2.0, 3.0])
def test_rotations_are_nonexpansive_by_their_svd_bound(angle):
    # The computed 2-norm of the 0.1 rad rotation is 1 + 2^-52.
    assert LinearOperator(_rotation(angle)).declared_class.kind == "nonexpansive"


def test_random_orthogonal_maps_need_no_probe():
    rng = np.random.default_rng(11)
    for dim in range(2, 6):
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            # An SVD may also round the norm below 1, to a contraction modulus.
            for op in (LinearOperator(q), AffineOperator(q, np.ones(dim))):
                assert op.declared_class.kind in ("nonexpansive", "contraction")


def test_rounding_slack_for_svd_bounds_stays_far_below_the_probe_tolerance():
    slack = operators._BOUND_ONE - 1.0
    assert 0.0 < slack <= 16 * np.finfo(float).eps
    assert slack < 1e-5 * operators.NONEXPANSIVE_TOL


@pytest.mark.parametrize("matrix", [2.0 * np.eye(2), (1.0 + 1e-9) * _rotation(0.1)])
def test_bounds_past_rounding_stay_unknown_and_are_probed(matrix, monkeypatch):
    probes = []
    original = semigroup.check_nonexpansive

    def counted(*args, **kwargs):
        probes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semigroup, "check_nonexpansive", counted)
    op = LinearOperator(matrix)
    assert op.declared_class.kind == "unknown"
    try:
        semigroup.resolve_nonexpansive(op)
    except NotNonexpansive:
        pass
    assert len(probes) == 1


def test_contraction_modulus_validation():
    with pytest.raises(InvalidSpec):
        contraction(1.0)
    with pytest.raises(InvalidSpec):
        contraction(-0.1)
    assert contraction(0.25).alpha == 0.25


def test_constructor_validation():
    with pytest.raises(InvalidSpec):
        BallProjection([0.0, 0.0], 0.0)
    with pytest.raises(InvalidSpec):
        BoxProjection([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidSpec):
        PlaneRotation(2, (0, 0), 0.5)
    with pytest.raises(InvalidSpec):
        PlaneRotation(2, (0, 3), 0.5)
    with pytest.raises(InvalidSpec):
        AveragedOperator(Negation(2), 0.0)
    with pytest.raises(InvalidSpec):
        AveragedOperator(Negation(2), 1.5)
    with pytest.raises(InvalidSpec):
        IteratedOperator(Identity(2), -1)
    with pytest.raises(InvalidSpec):
        LinearOperator([[1.0, 2.0, 3.0]])
    with pytest.raises(InvalidSpec):
        AffineOperator(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidSpec):
        CompositeOperator([])


def test_not_linear_paths():
    with pytest.raises(NotLinear):
        BallProjection([0.0, 0.0], 1.0).linear_matrix()
    with pytest.raises(NotLinear):
        AffineOperator(np.eye(2), [1.0, 0.0]).linear_matrix()
    np.testing.assert_array_equal(Negation(2).linear_matrix(), -np.eye(2))


# ---------------------------------------------------------------------------
# Serialized specs


ROUND_TRIP_SPECS = [
    {"kind": "linear", "matrix": [[0.5, 0.0], [0.0, 0.25]]},
    {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 0.0]},
    {"kind": "identity", "dim": 3},
    {"kind": "negation", "dim": 2},
    {"kind": "constant", "value": [2.0, 0.0]},
    {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
    {"kind": "projection_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 1.0},
    {
        "kind": "averaged",
        "inner": {"kind": "negation", "dim": 2},
        "lambda": 0.5,
    },
    {
        "kind": "composite",
        "operators": [
            {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.5},
            {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
    },
    {
        "kind": "iterated",
        "base": {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.5},
        "n": 4,
    },
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=lambda s: s["kind"])
def test_make_operator_round_trip(spec):
    op = make_operator(spec)
    assert op.to_spec() == spec
    assert make_operator(op.to_spec()).to_spec() == spec


def test_make_operator_rejects_unknown_kind():
    with pytest.raises(InvalidSpec, match="unknown operator kind"):
        make_operator({"kind": "teleport"})
    with pytest.raises(InvalidSpec):
        make_operator(["not", "a", "dict"])


def test_make_operator_rejects_missing_keys():
    with pytest.raises(InvalidSpec, match="missing"):
        make_operator({"kind": "projection_ball", "center": [0.0, 0.0]})
    with pytest.raises(InvalidSpec):
        make_operator({"kind": "rotation", "dim": 2, "plane": [0], "angle": 1.0})
    with pytest.raises(InvalidSpec):
        make_operator({"kind": "linear", "matrix": [[1.0, 2.0]]})


#: Spec fields that count or index: a fraction in them is not a whole number.
WHOLE_FIELDS = ("dim", "plane", "n")


@pytest.mark.parametrize(
    "spec, bad",
    [
        pytest.param(spec, bad, id=f"{name}-{spec['kind']}")
        for name, bad in [("string", "0.5"), ("boolean", True), ("null", None), ("fraction", 1.5)]
        for spec in ROUND_TRIP_SPECS
        if name != "fraction" or set(spec) & set(WHOLE_FIELDS)
    ],
)
def test_make_operator_rejects_fields_that_are_not_numbers(spec, bad):
    # Each numeric field in turn gets a non-number, alone or as an entry, and
    # each field that counts or indexes a fraction, which int() would truncate.
    fraction = isinstance(bad, float)
    numeric = [key for key in spec if key not in ("kind", "inner", "operators", "base")]
    for key in [key for key in numeric if key in WHOLE_FIELDS] if fraction else numeric:
        broken = dict(spec, **{key: bad if not isinstance(spec[key], list) else [bad] + spec[key][1:]})
        needs = "whole numbers" if fraction else "numbers"
        with pytest.raises(InvalidSpec, match=f"kind '{spec['kind']}' needs {needs} in '{key}'"):
            make_operator(broken)


def test_make_operator_takes_whole_numbers_written_as_floats():
    assert make_operator({"kind": "identity", "dim": 3.0}).dim == 3
    assert make_operator({"kind": "rotation", "dim": 3, "plane": [0.0, 2.0], "angle": 0.5}).plane == (0, 2)
    assert make_operator({"kind": "iterated", "base": {"kind": "negation", "dim": 2}, "n": 2.0}).n == 2


def test_make_operator_takes_numpy_numbers():
    op = make_operator({"kind": "affine", "matrix": 0.5 * np.eye(2), "offset": np.array([1, 2])})
    assert op.to_spec() == {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 2.0]}
    assert make_operator({"kind": "identity", "dim": np.int64(3)}).dim == 3
    with pytest.raises(InvalidSpec, match="needs numbers in 'matrix'"):
        make_operator({"kind": "linear", "matrix": np.eye(2, dtype=bool)})


# ---------------------------------------------------------------------------
# Empirical probes


def test_estimate_lipschitz_identity_is_exactly_one():
    assert estimate_lipschitz(Identity(3), 50, 10.0) == 1.0


def test_estimate_lipschitz_constant_is_zero():
    assert estimate_lipschitz(ConstantOperator([1.0, 1.0]), 50, 10.0) == 0.0


def test_estimate_lipschitz_half_identity():
    half = AffineOperator(0.5 * np.eye(2), [3.0, -1.0])
    assert estimate_lipschitz(half, 200, 10.0) == pytest.approx(0.5, abs=1e-12)


def test_estimate_lipschitz_requires_samples():
    with pytest.raises(ValueError):
        estimate_lipschitz(Identity(2), 0, 1.0)


def test_estimate_never_exceeds_declared_contraction_bound():
    for alpha in (0.1, 0.5, 0.9):
        op = LinearOperator(alpha * np.eye(3))
        assert op.declared_class.kind == "contraction"
        assert estimate_lipschitz(op, 300, 5.0) <= alpha + CATALOG_TOL


def test_check_nonexpansive_ball_passes():
    check = check_nonexpansive(BallProjection([0.0, 0.0], 1.0), 1000, CATALOG_TOL)
    assert check.passed
    assert check.witness is None
    assert bool(check)


def test_check_nonexpansive_doubling_witness():
    check = check_nonexpansive(LinearOperator(2.0 * np.eye(2)), 100, CATALOG_TOL)
    assert not check.passed
    x, y, ratio = check.witness
    assert ratio == 2.0
    assert x.shape == (2,) and y.shape == (2,)


def test_check_nonexpansive_averaged_negation_passes():
    assert check_nonexpansive(AveragedOperator(Negation(2), 0.5), 1000, CATALOG_TOL).passed


def test_probes_reject_non_finite_values():
    poisoned = FunctionOperator(lambda x: x * math.nan, 2)
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'function'"):
        estimate_lipschitz(poisoned, 50, 10.0)
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'function'"):
        check_nonexpansive(poisoned, 50, CATALOG_TOL)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_probes_keep_a_ratio_that_overflows_on_finite_values():
    # Every value is finite, but values of opposite sign differ by more than
    # the largest float, so those ratios overflow to inf.
    sign = FunctionOperator(lambda x: np.where(x > 0.0, 1e308, -1e308), 2)
    assert estimate_lipschitz(sign, 50, 10.0) == math.inf
    check = check_nonexpansive(sign, 50, CATALOG_TOL)
    assert not check.passed and check.witness[2] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probes_of_affine_maps_overflow_without_warnings():
    # M x overflows to inf, and inf - inf = NaN: the probe reports it as a
    # non-finite value, not as numpy's warnings.
    overflowing = AffineOperator([[1e308, 0.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'affine'"):
        estimate_lipschitz(overflowing, 10, 10.0)
    with pytest.raises(NonFiniteValue, match="probe .*operator kind 'affine'"):
        check_nonexpansive(overflowing, 10, CATALOG_TOL)
    # Finite values whose difference overflows give an infinite ratio, quietly.
    steep = AffineOperator([[1e307, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert estimate_lipschitz(steep, 50, 10.0) == math.inf
    check = check_nonexpansive(steep, 50, CATALOG_TOL)
    assert not check.passed and check.witness[2] == math.inf
    # Outside code keeps its warnings.
    sign = FunctionOperator(lambda x: np.where(x > 0.0, 1e308, -1e308), 2)
    with pytest.warns(RuntimeWarning, match="overflow"):
        estimate_lipschitz(sign, 50, 10.0)


NONEXPANSIVE_CATALOG = [
    BallProjection([1.0, -1.0], 2.0),
    BoxProjection([-1.0, 0.0], [1.0, 2.0]),
    PlaneRotation(2, (0, 1), 0.9),
    Negation(3),
    Identity(2),
    ConstantOperator([0.5, 0.5]),
    AveragedOperator(Negation(2), 0.5),
    AffineOperator(0.5 * np.eye(2), [1.0, 0.0]),
    CompositeOperator([PlaneRotation(2, (0, 1), 0.4), BallProjection([0.0, 0.0], 1.0)]),
]


@pytest.mark.parametrize("op", NONEXPANSIVE_CATALOG, ids=lambda o: o.kind)
def test_catalog_operators_pass_sampled_check(op):
    assert op.declared_class.lipschitz_bound() <= 1.0
    assert check_nonexpansive(op, 1000, CATALOG_TOL).passed


def test_composition_respects_product_bound():
    half = AffineOperator(0.5 * np.eye(2), [2.0, 0.0])
    comp = CompositeOperator([half, PlaneRotation(2, (0, 1), 1.1)])
    bound = comp.declared_class.lipschitz_bound()
    assert bound == pytest.approx(0.5)
    assert estimate_lipschitz(comp, 500, 10.0) <= bound + 1e-6


def test_blend_collapses_affine_pairs():
    combined = blend(0.5, Identity(2), 0.5, Negation(2))
    assert isinstance(combined, AffineOperator)
    assert combined.declared_class.alpha == 0.0
    np.testing.assert_array_equal(combined.apply([3.0, 7.0]), [0.0, 0.0])


def _planned(a, first, b, second, modulus):
    """The collapse a schedule plan hands to blend(): the blend's global piece,
    with a modulus as its norm, or None when the arrays are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = a * first.matrix + b * second.matrix
        offset = a * first.offset + b * second.offset
    if not (np.isfinite(matrix).all() and np.isfinite(offset).all()):
        return None
    return operators._Piece(matrix, offset, True, modulus)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("modulus", [None, 0.75])
def test_blend_collapses_into_frozen_arrays_of_the_blended_parts(dim, modulus):
    rng = np.random.default_rng(dim)
    first = AffineOperator(0.5 * rng.standard_normal((dim, dim)), rng.standard_normal(dim))
    second = AffineOperator(0.5 * rng.standard_normal((dim, dim)), rng.standard_normal(dim))
    collapse = None if modulus is None else _planned(0.3, first, 0.7, second, modulus)
    combined = blend(0.3, first, 0.7, second, collapse)
    assert combined.matrix.tobytes() == (0.3 * first.matrix + 0.7 * second.matrix).tobytes()
    assert combined.offset.tobytes() == (0.3 * first.offset + 0.7 * second.offset).tobytes()
    assert not combined.matrix.flags.writeable
    assert not combined.offset.flags.writeable
    if modulus is None:
        assert combined.matrix_norm == np.linalg.norm(combined.matrix, 2)
    else:
        # A planned collapse is adopted as it is: no copy, no SVD.
        assert combined.matrix is collapse[0] and combined.offset is collapse[1]
        assert combined.matrix_norm == modulus
        assert combined.declared_class == contraction(modulus)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("modulus", [None, 0.75])
def test_blend_rejects_a_non_finite_collapse_without_warnings(dim, modulus):
    base = AffineOperator(0.5 * np.eye(dim), np.ones(dim))
    far = AffineOperator(0.5 * np.eye(dim), [1e300] + [0.0] * (dim - 1))
    far_back = AffineOperator(0.5 * np.eye(dim), [-1e300] + [0.0] * (dim - 1))
    steep = AffineOperator(np.diag([1e300] + [0.0] * (dim - 1)), np.zeros(dim))

    def collapse(a, first, b, second):
        # A plan hands no collapse for a non-finite blend; blend() rejects it itself.
        return None if modulus is None else _planned(a, first, b, second, modulus)

    # Overflow to inf, and inf - inf = NaN: both are rejected as the spec's fault.
    with pytest.raises(InvalidSpec, match="collapsed offset has non-finite coordinates"):
        blend(1.0, base, 1e10, far, collapse(1.0, base, 1e10, far))
    with pytest.raises(InvalidSpec, match="collapsed offset has non-finite coordinates"):
        blend(1e10, far, 1e10, far_back, collapse(1e10, far, 1e10, far_back))
    with pytest.raises(InvalidSpec, match="collapsed matrix has non-finite entries"):
        blend(1.0, base, 1e10, steep, collapse(1.0, base, 1e10, steep))


def test_blend_falls_back_for_nonaffine_parts():
    from viscofix.operators import BlendOperator

    combined = blend(0.25, ConstantOperator([2.0, 0.0]), 0.75, BallProjection([0.0, 0.0], 1.0))
    assert isinstance(combined, BlendOperator)
    np.testing.assert_allclose(combined.apply([2.0, 0.0]), [1.25, 0.0])
    with pytest.raises(DimensionMismatch):
        blend(0.5, Identity(2), 0.5, Identity(3))


def test_declared_wrapper_overrides_class():
    raw = FunctionOperator(lambda x: 0.5 * x, 2)
    assert raw.declared_class.kind == "unknown"
    upgraded = DeclaredWrapper(raw, contraction(0.5))
    assert upgraded.declared_class.alpha == 0.5
    np.testing.assert_array_equal(upgraded.apply([2.0, 4.0]), [1.0, 2.0])


# ---------------------------------------------------------------------------
# Norm attainment


def test_operator_norm_diagonal():
    sigma, vector = operator_norm(LinearOperator(np.diag([2.0, 1.0])))
    assert sigma == pytest.approx(2.0, abs=1e-10)
    assert abs(vector[0]) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=CERT_TOL)


def test_operator_norm_shear():
    sigma, vector = operator_norm(LinearOperator([[0.0, 1.0], [0.0, 0.0]]))
    assert sigma == pytest.approx(1.0, abs=1e-10)
    assert abs(vector[1]) == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_random_matrix_matches_cubic_oracle():
    rng = np.random.default_rng(42)
    matrix = rng.standard_normal((3, 3))
    sigma, _ = operator_norm(LinearOperator(matrix))
    assert sigma == pytest.approx(charpoly_sigma(matrix), abs=ORACLE_TOL)
    assert sigma == pytest.approx(float(np.linalg.norm(matrix, 2)), abs=ORACLE_TOL)


def test_charpoly_oracle_known_values():
    assert charpoly_sigma(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=ORACLE_TOL)
    rot = PlaneRotation(2, (0, 1), 0.7).linear_matrix()
    assert charpoly_sigma(rot) == pytest.approx(1.0, abs=ORACLE_TOL)
    assert charpoly_sigma(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=ORACLE_TOL)
    sym = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    assert charpoly_sigma(sym) == pytest.approx(3.0, abs=ORACLE_TOL)


def test_certificate_diagonal():
    cert = certify_norm_attainable(LinearOperator(np.diag([2.0, 1.0])))
    assert cert.sigma == pytest.approx(2.0, abs=1e-10)
    assert cert.residual <= 1e-10
    assert np.linalg.norm(cert.vector) == pytest.approx(1.0, abs=CERT_TOL)
    # The vector comes from one eigensolver call, not from an iteration.
    assert cert.iterations == 0


def test_certificate_zero_matrix():
    # Every unit vector attains the zero norm; the upper bound is the
    # smallest positive one the certificate draws.
    cert = certify_norm_attainable(LinearOperator(np.zeros((2, 2))))
    assert cert.sigma == 0.0
    assert np.linalg.norm(cert.vector) == 1.0
    assert 0.0 < cert.residual <= np.finfo(float).tiny
    assert cert.iterations == 0


def test_certificate_clustered_diagonal_needs_tight_tol():
    """Twenty diagonal entries k/(k+1) crowd toward 1; a loose Rayleigh stop
    would quit before the top direction separates from its neighbors."""
    d = 20
    cert = certify_norm_attainable(LinearOperator(np.diag([k / (k + 1) for k in range(1, d + 1)])))
    assert cert.sigma == pytest.approx(20.0 / 21.0, abs=1e-8)
    assert abs(cert.vector[d - 1]) >= 1.0 - 1e-8
    assert np.linalg.norm(cert.vector) == pytest.approx(1.0, abs=CERT_TOL)


def test_certificate_to_dict_is_json_plain():
    import json

    cert = certify_norm_attainable(LinearOperator(np.diag([2.0, 1.0])))
    payload = cert.to_dict()
    json.dumps(payload)
    assert set(payload) == {"sigma", "vector", "residual", "iterations"}


#: Slack, in units of eps_machine, by which the computed ||S v|| may pass the SVD's norm.
SIGMA_ULPS = 16


@given(data=st.data(), dim=st.integers(1, 8), shape=st.sampled_from(["full", "rank-one", "zero"]))
def test_certificate_brackets_the_norm(data, dim, shape):
    matrix = np.zeros((dim, dim)) if shape == "zero" else data.draw(_square(dim, shape == "rank-one"))
    cert = certify_norm_attainable(LinearOperator(matrix))
    norm_2 = np.linalg.svd(matrix, compute_uv=False)[0]
    assert cert.sigma <= norm_2 * (1.0 + SIGMA_ULPS * np.finfo(float).eps)
    assert norm_2 <= cert.sigma + cert.residual
    assert cert.residual <= 1e-12 * norm_2 + np.finfo(float).tiny


@pytest.mark.parametrize("scale", [2.0**-700, 2.0**700, 1e-160, 1e160])
def test_certificate_scales_with_the_matrix(scale):
    # Entries whose squares underflow or overflow are certified as well as
    # entries near 1: the certificate works on an exactly rescaled copy.
    matrix = np.array([[2.0, 1.0], [0.5, 1.0]])
    unscaled = certify_norm_attainable(LinearOperator(matrix))
    cert = certify_norm_attainable(LinearOperator(scale * matrix))
    assert cert.sigma == pytest.approx(scale * unscaled.sigma, rel=1e-14)
    assert cert.residual <= 1e-12 * cert.sigma
    np.testing.assert_allclose(cert.vector, unscaled.vector, rtol=1e-12)


def test_every_criterion_6_certificate_brackets_the_norm():
    # Acceptance criterion 6 draws these matrices (d = 2 to 50) and checks
    # sigma against an oracle only for d <= 3; the SVD checks every bracket.
    rng = np.random.default_rng(42)
    for i in range(100):
        matrix = rng.standard_normal((2 + i % 49,) * 2)
        cert = certify_norm_attainable(LinearOperator(matrix))
        norm_2 = np.linalg.svd(matrix, compute_uv=False)[0]
        assert cert.sigma <= norm_2 * (1.0 + SIGMA_ULPS * np.finfo(float).eps)
        assert norm_2 <= cert.sigma + cert.residual
        assert cert.residual <= 1e-8


def _second_right_singular_vector():
    matrix = np.random.default_rng(5).standard_normal((6, 6))
    return matrix, np.linalg.svd(matrix)[2][1]


@pytest.mark.parametrize(
    "matrix, vector",
    [
        *[(np.array(m), np.ones(len(m)) / math.sqrt(len(m))) for m, _ in ALL_ONES_FALLS_SHORT.values()],
        _second_right_singular_vector(),
    ],
    ids=[*ALL_ONES_FALLS_SHORT, "second-singular-vector"],
)
def test_certify_refuses_a_vector_below_the_norm(matrix, vector):
    # The lower bound is only ||S v||; no upper bound that close is true.
    cert = operators._certify(matrix, vector)
    assert cert.sigma < np.linalg.norm(matrix, 2) - 0.1
    assert cert.residual == math.inf


# ---------------------------------------------------------------------------
# Fixed-point sets of linear maps


def test_fixed_points_identity_spans_everything():
    fset = fixed_points_linear(Identity(3))
    assert fset.size == 3
    gram = np.array([[float(np.dot(a, b)) for b in fset.basis] for a in fset.basis])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_fixed_points_negation_is_trivial():
    assert fixed_points_linear(Negation(2)).size == 0


def test_fixed_points_rotation_plus_identity_axis():
    fset = fixed_points_linear(PlaneRotation(3, (0, 1), 0.7))
    assert fset.size == 1
    assert abs(fset.basis[0][2]) == pytest.approx(1.0, abs=1e-12)
    assert fset.contains([0.0, 0.0, 5.0], 1e-9)
    assert not fset.contains([1.0, 0.0, 0.0], 1e-9)
    np.testing.assert_allclose(fset.project([2.0, 3.0, 4.0]), [0.0, 0.0, 4.0], atol=1e-12)


def test_fixed_point_basis_residuals_stay_small():
    tol = 1e-10
    for op in (PlaneRotation(4, (1, 2), 0.3), Identity(3), LinearOperator(np.diag([1.0, 0.5, 1.0]))):
        matrix = op.linear_matrix()
        fset = fixed_points_linear(op, tol)
        for b in fset.basis:
            assert np.linalg.norm(b - matrix @ b) <= 10.0 * tol


def test_nullspace_rank_matches_minor_scan_oracle():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for k in range(0, d + 1):
            if k == 0:
                matrix = np.zeros((d, d))
            else:
                matrix = rng.standard_normal((d, k)) @ rng.standard_normal((k, d))
            basis = nullspace_basis(matrix, 1e-8)
            assert len(basis) == brute_force_nullity(matrix)
            for b in basis:
                assert np.linalg.norm(matrix @ b) <= 1e-6


def test_nullspace_rejects_bad_shape():
    with pytest.raises(ValueError):
        nullspace_basis(np.zeros(3), 1e-8)


# ---------------------------------------------------------------------------
# Property checks


@given(x=coords3)
def test_rotation_preserves_norm(x):
    rot = PlaneRotation(3, (0, 2), 1.3)
    assert np.linalg.norm(rot.apply(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12, abs=1e-12)


@given(x=coords3)
def test_ball_projection_is_idempotent(x):
    proj = BallProjection([0.0, 0.0, 0.0], 2.0)
    once = proj.apply(x)
    np.testing.assert_allclose(proj.apply(once), once, atol=1e-12)
    assert np.linalg.norm(once) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# Affine pieces


def _same_piece(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("op", SHAPE_CHECKED.values(), ids=SHAPE_CHECKED.keys())
def test_global_piece_is_the_affine_form(op):
    assert _same_piece(op.affine_piece(None), op.affine_parts())
    assert _same_piece(op.affine_piece(), op.affine_parts())


def test_ball_piece_is_the_identity_inside_and_on_the_sphere():
    ball = BallProjection([1.0, -1.0], 2.0)
    identity = (np.eye(2), np.zeros(2))
    assert ball.affine_piece() is None
    assert _same_piece(ball.affine_piece([1.5, -0.5]), identity)
    assert _same_piece(ball.affine_piece([3.0, -1.0]), identity)  # on the sphere
    assert ball.affine_piece([3.0, 1.0]) is None
    assert ball.affine_piece(np.nextafter([3.0, -1.0], 4.0)) is None


def test_piece_rejects_a_point_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        BallProjection([0.0, 0.0], 1.0).affine_piece([0.0, 0.0, 0.0])


def test_composite_piece_takes_each_child_at_the_point_it_receives():
    shift = AffineOperator(np.eye(2), [3.0, 0.0])
    comp = CompositeOperator([shift, BallProjection([0.0, 0.0], 1.0)])
    # The start lies inside the ball, but the ball receives (3, 0).
    assert comp.affine_piece([0.0, 0.0]) is None
    assert _same_piece(comp.affine_piece([-3.0, 0.5]), (np.eye(2), np.array([3.0, 0.0])))
    rot = PlaneRotation(2, (0, 1), 0.7)
    turned = CompositeOperator([rot, BallProjection([0.0, 0.0], 1.0)])
    m, c = turned.affine_piece([0.5, 0.5])
    np.testing.assert_array_equal(m, rot.affine_parts()[0])
    np.testing.assert_array_equal(c, np.zeros(2))


def test_iterated_piece_follows_the_iterates():
    step = CompositeOperator([AffineOperator(np.eye(2), [1.0, 0.0]), BallProjection([0.0, 0.0], 1.5)])
    twice = IteratedOperator(step, 2)
    # -2 -> -1 -> 0 stays in the ball; 0 -> 1 -> 2 leaves it at the second step.
    assert _same_piece(twice.affine_piece([-2.0, 0.0]), (np.eye(2), np.array([2.0, 0.0])))
    assert step.affine_piece([0.0, 0.0]) is not None
    assert twice.affine_piece([0.0, 0.0]) is None
    assert _same_piece(IteratedOperator(step, 0).affine_piece([5.0, 0.0]), (np.eye(2), np.zeros(2)))


def test_composite_and_iterated_pieces_apply_all_but_the_last_operator_once(monkeypatch):
    applied = []
    for cls in (PlaneRotation, BallProjection):
        original = cls._apply

        def counted(self, x, _original=original):
            applied.append(self)
            return _original(self, x)

        monkeypatch.setattr(cls, "_apply", counted)
    rot, ball, last = PlaneRotation(2, (0, 1), 0.7), BallProjection([0.0, 0.0], 2.0), PlaneRotation(2, (0, 1), -0.3)
    piece = CompositeOperator([rot, ball, last]).affine_piece([0.5, 0.5])
    # Each operator's value is the next one's point; no piece needs the last's.
    assert applied == [rot, ball]
    expected = last.affine_parts()[0] @ rot.affine_parts()[0]
    assert _same_piece(piece, (expected, np.zeros(2)))
    applied.clear()
    assert _same_piece(IteratedOperator(ball, 3).affine_piece([0.5, 0.5]), (np.eye(2), np.zeros(2)))
    assert applied == [ball, ball]


def test_averaged_blend_and_declared_pieces_combine_their_children():
    ball = BallProjection([0.0, 0.0], 1.0)
    inside, outside = [0.5, 0.0], [2.0, 0.0]
    averaged = AveragedOperator(ball, 0.25)
    assert _same_piece(averaged.affine_piece(inside), (np.eye(2), np.zeros(2)))
    assert averaged.affine_piece(outside) is None
    mixed = BlendOperator(0.5, ConstantOperator([1.0, 2.0]), 0.5, ball)
    assert _same_piece(mixed.affine_piece(inside), (0.5 * np.eye(2), np.array([0.5, 1.0])))
    assert mixed.affine_piece(outside) is None
    wrapped = DeclaredWrapper(ball, ball.declared_class)
    assert _same_piece(wrapped.affine_piece(inside), (np.eye(2), np.zeros(2)))
    assert wrapped.affine_piece(outside) is None


def test_blend_piece_asks_the_target_first(monkeypatch):
    ball = BallProjection([0.0, 0.0], 1.0)
    anchor = ConstantOperator([1.0, 2.0])
    asked = []
    original = ConstantOperator.affine_piece

    def counted(self, x=None):
        asked.append(x)
        return original(self, x)

    monkeypatch.setattr(ConstantOperator, "affine_piece", counted)
    mixed = BlendOperator(0.5, anchor, 0.5, ball)
    # Outside the ball the target has no piece, so the anchor's is never built.
    assert mixed.affine_piece([2.0, 0.0]) is None
    assert mixed.affine_parts() is None
    assert asked == []
    assert _same_piece(mixed.affine_piece([0.5, 0.0]), (0.5 * np.eye(2), np.array([0.5, 1.0])))
    assert len(asked) == 1
    # A first map without a piece still ends the query.
    assert BlendOperator(0.5, ball, 0.5, anchor).affine_piece([2.0, 0.0]) is None


def test_function_and_box_have_no_piece():
    assert FunctionOperator(lambda x: 0.5 * x, 2).affine_piece([0.0, 0.0]) is None
    box = BoxProjection([-1.0, -1.0], [1.0, 1.0])
    assert box.affine_piece([0.0, 0.0]) is None
    assert box.affine_piece() is None


@given(x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_a_piece_agrees_with_its_map_at_its_point(x):
    for op in SHAPE_CHECKED.values():
        piece = op.affine_piece(x)
        if piece is not None:
            np.testing.assert_allclose(piece[0] @ x + piece[1], op.apply(x), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Global forms, computed once

GLOBAL_FORMS = {
    name: op for name, op in SHAPE_CHECKED.items() if op.affine_piece() is not None
} | {
    "composite-affine": CompositeOperator([PlaneRotation(2, (0, 1), 0.4), AffineOperator(0.5 * np.eye(2), [1.0, 2.0])]),
    "declared-affine": DeclaredWrapper(LinearOperator([[0.0, 0.5], [0.5, 0.0]]), contraction(0.5)),
    "blend-affine": BlendOperator(0.25, ConstantOperator([1.0, 0.0]), 0.75, PlaneRotation(2, (0, 1), 0.3)),
    "averaged-rotation": AveragedOperator(PlaneRotation(2, (0, 1), 0.3), 0.5),
}


@pytest.mark.parametrize("op", GLOBAL_FORMS.values(), ids=GLOBAL_FORMS.keys())
def test_global_form_is_built_once_and_read_only(op):
    parts = op.affine_parts()
    again = op.affine_parts()
    assert again[0] is parts[0] and again[1] is parts[1]
    assert _same_piece(parts, op.affine_piece())
    with pytest.raises(ValueError):
        parts[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        parts[1][0] = 1.0


@given(x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_a_local_piece_of_a_map_with_a_global_form_is_that_form(x):
    for op in GLOBAL_FORMS.values():
        piece = op.affine_piece(x)
        parts = op.affine_parts()
        assert piece[0].tobytes() == parts[0].tobytes()
        assert piece[1].tobytes() == parts[1].tobytes()


def test_the_ball_interior_piece_is_built_once():
    ball = BallProjection([0.0, 0.0], 1.0)
    first = ball.affine_piece([0.5, 0.0])
    assert ball.affine_piece([0.0, -0.5]) is first
    with pytest.raises(ValueError):
        first[0][0, 0] = 2.0


class _TwoPieces(Operator):
    """The identity, declared nonexpansive, handing out one of two stored pieces by the sign of x[0].

    With plain, a piece is handed out as a plain (matrix, offset) pair.
    """

    kind = "two-pieces"

    def __init__(self, plain=False):
        super().__init__(2, NONEXPANSIVE)
        self.pieces = [operators._Piece(np.eye(2), np.zeros(2), False) for _ in range(2)]
        self.plain = plain

    def _apply(self, x):
        return x.copy()

    def affine_piece(self, x=None):
        if x is None:
            return None
        piece = self.pieces[int(x[0] < 0.0)]
        return tuple(piece) if self.plain else piece


def test_a_composed_piece_is_the_same_read_only_object_while_its_childrens_are(monkeypatch):
    composes = []
    original = operators._compose
    monkeypatch.setattr(operators, "_compose", lambda *args: composes.append(args) or original(*args))
    rot, ball = PlaneRotation(2, (0, 1), 0.7), BallProjection([0.0, 0.0], 1.0)
    turned = CompositeOperator([rot, ball])
    first = turned.affine_piece([0.5, 0.25])
    assert turned.affine_piece([-0.3, 0.1]) is first
    assert turned.affine_piece([2.0, 0.0]) is None
    assert turned.affine_piece([0.0, -0.5]) is first
    assert len(composes) == 1
    assert not first[0].flags.writeable and not first[1].flags.writeable
    # The kept pair has the bits of a composition made afresh.
    fresh = CompositeOperator([rot, ball]).affine_piece([0.5, 0.25])
    assert first[0].tobytes() == fresh[0].tobytes() and first[1].tobytes() == fresh[1].tobytes()
    thrice = IteratedOperator(ball, 3)
    assert thrice.affine_piece([0.5, 0.5]) is thrice.affine_piece([0.1, -0.2])
    # A child whose piece changes gives a new composition, kept in its turn.
    switched = CompositeOperator([_TwoPieces(), rot])
    right = switched.affine_piece([1.0, 0.0])
    left = switched.affine_piece([-1.0, 0.0])
    assert left is not right and left is switched.affine_piece([-2.0, 0.0])
    assert _same_piece(left, right)
    # A child that hands out plain pairs gets a new piece on every call, so
    # their composition is not kept.
    mixed = CompositeOperator([_TwoPieces(plain=True), rot])
    once, again = mixed.affine_piece([0.5, 0.0]), mixed.affine_piece([0.5, 0.0])
    assert once is not again and _same_piece(once, again)
    assert not once[0].flags.writeable and not once[1].flags.writeable
    # A blend keeps its piece as a composite does.
    blended = BlendOperator(0.5, ball, 0.5, rot)
    assert blended.affine_piece([0.5, 0.0]) is blended.affine_piece([-0.5, 0.0])


def test_an_averaged_piece_is_the_same_read_only_object_while_its_inner_piece_is():
    rot, ball = PlaneRotation(2, (0, 1), 0.7), BallProjection([0.0, 0.0], 1.0)
    averaged = AveragedOperator(CompositeOperator([rot, ball]), 0.5)
    first = averaged.affine_piece([0.5, 0.25])
    assert averaged.affine_piece([-0.3, 0.1]) is first
    assert averaged.affine_piece([2.0, 0.0]) is None
    assert averaged.affine_piece([0.0, -0.5]) is first
    assert not first[0].flags.writeable and not first[1].flags.writeable
    m, c = rot.affine_parts()
    assert first[0].tobytes() == (0.5 * np.eye(2) + 0.5 * m).tobytes()
    assert first[1].tobytes() == (0.5 * c).tobytes()
    # An inner map that hands out plain pairs gets a new piece on every
    # call, so its average is not kept.
    fresh = AveragedOperator(_TwoPieces(plain=True), 0.5)
    once, again = fresh.affine_piece([0.5, 0.0]), fresh.affine_piece([0.5, 0.0])
    assert once is not again and _same_piece(once, again)


def _square(dim, rank_one):
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    if rank_one:
        column = arrays(np.float64, (dim,), elements=entries)
        return st.tuples(column, column).map(lambda uv: np.outer(*uv))
    return arrays(np.float64, (dim, dim), elements=entries)


@given(data=st.data(), dim=st.integers(1, 8), shape=st.sampled_from(["full", "rank-one", "zero"]))
def test_spectral_norm_has_the_bits_of_the_matrix_2_norm(data, dim, shape):
    if shape == "zero":
        matrix = np.zeros((dim, dim))
    else:
        matrix = data.draw(_square(dim, shape == "rank-one"))
    expected = np.linalg.norm(matrix, 2)
    assert np.float64(operators.spectral_norm(matrix)).tobytes() == expected.tobytes()


def test_box_projection_has_the_bits_of_clip():
    rng = np.random.default_rng(11)
    lower = np.array([-1.0, 0.0, -0.0, -5.0, 2.0])
    upper = np.array([1.0, 0.0, 0.0, 3.0, 2.0])
    box = BoxProjection(lower, upper)
    points = list(3.0 * rng.standard_normal((200, 5)))
    points += [np.array([np.nan, -0.0, 0.0, -np.inf, np.inf]), np.array([-0.0, np.nan, -0.0, np.nan, -np.inf])]
    for x in points:
        assert box._apply(x).tobytes() == np.clip(x, lower, upper).tobytes()
