"""Indexed operator families and the additive composition law."""

from __future__ import annotations

import math

import numpy as np
import pytest

from viscofix import (
    AffineOperator,
    ConstantOperator,
    FunctionOperator,
    Identity,
    InvalidSpec,
    LinearOperator,
    Negation,
    NotNonexpansive,
    PlaneRotation,
    check_representation,
    common_fixed_residual,
    common_fixed_set_linear,
    estimate_lipschitz,
    make_custom_family,
    make_family,
    make_power_family,
    make_rotation_flow,
    make_schedule,
    viscosity_implicit_solve,
)
from viscofix import operators, schemes, semigroup
from viscofix.semigroup import NATURALS, NONNEG_REALS, IndexSemigroup

GROUP_TOL = 1e-12


# ---------------------------------------------------------------------------
# Power families


def test_undeclared_power_base_is_probed_once(monkeypatch):
    probed = []

    def counting(T, *args, **kwargs):
        probed.append(T)
        return operators.check_nonexpansive(T, *args, **kwargs)

    # Both module bindings, so a second probe from the solver is counted too.
    monkeypatch.setattr(semigroup, "check_nonexpansive", counting)
    monkeypatch.setattr(schemes, "check_nonexpansive", counting)
    family = make_power_family(FunctionOperator(lambda x: -x, 2))
    assert len(probed) == 1
    viscosity_implicit_solve(ConstantOperator([1.0, 0.0]), family, make_schedule(n_max=5))
    assert len(probed) == 1


def test_undeclared_custom_member_is_probed_once_by_the_solvers(monkeypatch):
    probed = []

    def counting(T, *args, **kwargs):
        probed.append(T)
        return operators.check_nonexpansive(T, *args, **kwargs)

    monkeypatch.setattr(semigroup, "check_nonexpansive", counting)
    member = FunctionOperator(lambda x: -x, 2)
    family = make_custom_family({1: member, 2: Identity(2)})
    assert len(probed) == 0
    for _ in range(2):
        viscosity_implicit_solve(ConstantOperator([1.0, 0.0]), family, make_schedule(n_max=5))
    assert probed == [member]
    # evaluate hands out the member as it was given, and probes nothing.
    assert family.evaluate(1) is member and len(probed) == 1


def test_one_undeclared_map_at_two_custom_keys_is_probed_once(monkeypatch):
    probed = []

    def counting(T, *args, **kwargs):
        probed.append(T)
        return operators.check_nonexpansive(T, *args, **kwargs)

    monkeypatch.setattr(semigroup, "check_nonexpansive", counting)
    member = FunctionOperator(lambda x: -x, 2)
    family = make_custom_family({1: member, 2: member})
    viscosity_implicit_solve(ConstantOperator([1.0, 0.0]), family, make_schedule(n_max=5))
    assert probed == [member]


def test_power_identity_family():
    fam = make_power_family(Identity(2))
    x = np.array([3.0, -1.0])
    for n in (0, 1, 5):
        np.testing.assert_array_equal(fam.evaluate(n).apply(x), x)
    assert fam.index.kind == NATURALS
    assert fam.index.generators == (1,)


def test_power_negation_alternates_parity():
    fam = make_power_family(Negation(2))
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(fam.evaluate(3).apply(x), -x)
    np.testing.assert_array_equal(fam.evaluate(4).apply(x), x)
    np.testing.assert_array_equal(fam.evaluate(0).apply(x), x)


def test_power_eighth_turn_closes_up():
    fam = make_power_family(PlaneRotation(2, (0, 1), math.pi / 4))
    x = np.array([0.3, -0.8])
    np.testing.assert_allclose(fam.evaluate(8).apply(x), x, atol=GROUP_TOL)


def test_power_index_validation():
    fam = make_power_family(Identity(2))
    with pytest.raises(InvalidSpec):
        fam.evaluate(-1)
    with pytest.raises(InvalidSpec):
        fam.evaluate(1.5)


def test_power_family_gates_on_nonexpansive_base():
    with pytest.raises(NotNonexpansive):
        make_power_family(LinearOperator(1.5 * np.eye(2)))


# ---------------------------------------------------------------------------
# Rotation flows


def test_zero_rate_flow_is_constant_identity():
    fam = make_rotation_flow([0.0], [1.0, 2.0])
    x = np.array([0.4, 0.9])
    for t in (0.0, 1.0, 17.3):
        np.testing.assert_allclose(fam.evaluate(t).apply(x), x, atol=GROUP_TOL)


def test_unit_rate_flow_at_pi_negates_the_plane():
    fam = make_rotation_flow([1.0], [1.0])
    np.testing.assert_allclose(fam.evaluate(math.pi).apply([1.0, 0.0]), [-1.0, 0.0], atol=GROUP_TOL)


def test_flow_composition_law_pointwise():
    fam = make_rotation_flow([2.5], [0.5, 1.0])
    x = np.array([0.7, -0.2])
    via_parts = fam.evaluate(0.3).apply(fam.evaluate(0.7).apply(x))
    np.testing.assert_allclose(fam.evaluate(1.0).apply(x), via_parts, atol=GROUP_TOL)


def test_flow_blocks_act_independently():
    fam = make_rotation_flow([1.0, 2.0], [1.0])
    assert fam.dim == 4
    t = 0.6
    out = fam.evaluate(t).apply([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(out[:2], [math.cos(t), math.sin(t)], atol=GROUP_TOL)
    np.testing.assert_allclose(out[2:], [math.cos(2 * t), math.sin(2 * t)], atol=GROUP_TOL)


def test_flow_validation():
    with pytest.raises(InvalidSpec):
        make_rotation_flow([], [1.0])
    with pytest.raises(InvalidSpec):
        make_rotation_flow([1.0], [])
    with pytest.raises(InvalidSpec):
        make_rotation_flow([1.0], [-0.5, 1.0])
    with pytest.raises(InvalidSpec):
        make_rotation_flow([1.0], [1.0, 1.0])
    fam = make_rotation_flow([1.0], [1.0])
    with pytest.raises(InvalidSpec):
        fam.evaluate(-0.1)
    assert fam.index.kind == NONNEG_REALS


# ---------------------------------------------------------------------------
# Custom tables


def test_custom_family_exact_lookup():
    fam = make_custom_family({0: Identity(2), 1: Negation(2), 2: Identity(2)})
    x = np.array([1.0, 5.0])
    np.testing.assert_array_equal(fam.evaluate(1).apply(x), -x)
    with pytest.raises(InvalidSpec):
        fam.evaluate(7)


def test_custom_family_validation():
    with pytest.raises(InvalidSpec):
        make_custom_family({})
    with pytest.raises(InvalidSpec):
        make_custom_family({0: Identity(2), 1: Identity(3)})
    with pytest.raises(InvalidSpec):
        make_custom_family({0: "not an operator"})


def test_index_semigroup_validation():
    with pytest.raises(InvalidSpec):
        IndexSemigroup("multiplicative", (1,))
    with pytest.raises(InvalidSpec):
        IndexSemigroup(NATURALS, ())


# ---------------------------------------------------------------------------
# Serialized family specs


def test_make_family_power_round_trip():
    spec = {"kind": "power", "base": {"kind": "negation", "dim": 2}}
    fam = make_family(spec)
    assert fam.kind == "power"
    assert fam.to_spec() == spec


def test_make_family_rotation_flow():
    fam = make_family({"kind": "rotation_flow", "rates": [1.0], "grid": [0.5, 1.0]})
    assert fam.dim == 2
    assert fam.sample_indices() == (0.5, 1.0)


def test_make_family_custom_from_specs():
    fam = make_family(
        {
            "kind": "custom",
            "table": {
                "0": {"kind": "identity", "dim": 2},
                "1": {"kind": "negation", "dim": 2},
            },
        }
    )
    np.testing.assert_array_equal(fam.evaluate(1).apply([2.0, 3.0]), [-2.0, -3.0])


def test_make_family_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        make_family({"kind": "spiral"})
    with pytest.raises(InvalidSpec):
        make_family({"kind": "power"})
    with pytest.raises(InvalidSpec):
        make_family({"kind": "rotation_flow", "rates": [1.0]})
    with pytest.raises(InvalidSpec):
        make_family({"kind": "custom", "table": []})
    with pytest.raises(InvalidSpec):
        make_family("power")


# ---------------------------------------------------------------------------
# Representation checks


def test_power_family_defect_is_exactly_zero():
    """T_{s+t} and T_s T_t run the same float operations in the same order,
    so the defect is not merely small: it is identically zero."""
    fam = make_power_family(PlaneRotation(2, (0, 1), 0.9))
    report = check_representation(fam, n_pairs=40, n_vectors=5, tol=GROUP_TOL)
    assert report.max_defect == 0.0
    assert report.samples_checked == 200
    assert report.passed(GROUP_TOL)


def test_rotation_flow_defect_within_float_noise():
    fam = make_rotation_flow([1.0], [0.3, 0.7, 1.0])
    report = check_representation(fam, n_pairs=50, n_vectors=4, tol=GROUP_TOL)
    assert report.max_defect <= GROUP_TOL
    assert report.samples_checked == 200


def _planted_family():
    """Fifth-turn rotations with one member nudged by a translation."""
    ops = {k: PlaneRotation(2, (0, 1), k * math.pi / 5.0) for k in range(7)}
    broken = PlaneRotation(2, (0, 1), 3.0 * math.pi / 5.0)
    ops[3] = AffineOperator(broken.linear_matrix(), [0.1, 0.0])
    return make_custom_family(ops)


def test_planted_violation_is_detected():
    report = check_representation(_planted_family(), n_pairs=100, n_vectors=3, tol=GROUP_TOL)
    assert 0.09 <= report.max_defect <= 0.12
    assert not report.passed(GROUP_TOL)
    s, t = report.worst_pair
    assert 3.0 in (s, t) or s + t == 3.0


def test_representation_report_to_dict():
    import json

    report = check_representation(make_power_family(Negation(2)), 10, 2, GROUP_TOL)
    payload = report.to_dict()
    json.dumps(payload)
    assert set(payload) == {"max_defect", "worst_pair", "samples_checked"}


def test_check_representation_validates_sample_counts():
    fam = make_power_family(Identity(2))
    with pytest.raises(ValueError):
        check_representation(fam, 0, 3, GROUP_TOL)
    with pytest.raises(ValueError):
        check_representation(fam, 3, 0, GROUP_TOL)


def test_family_members_stay_nonexpansive():
    flows = make_rotation_flow([1.3, 0.4], [0.5, 1.0, 2.0])
    for t in flows.sample_indices():
        assert estimate_lipschitz(flows.evaluate(t), 200, 5.0) <= 1.0 + 1e-9
    powers = make_power_family(PlaneRotation(2, (0, 1), 0.7))
    for n in (1, 2, 7):
        assert estimate_lipschitz(powers.evaluate(n), 200, 5.0) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Common fixed points


def test_common_fixed_residual_examples():
    identity_powers = make_power_family(Identity(2))
    assert common_fixed_residual(identity_powers, [4.0, -2.0], [0, 1, 5]) == 0.0

    flow = make_rotation_flow([1.0], [1.0])
    assert common_fixed_residual(flow, [1.0, 0.0], [math.pi]) == pytest.approx(2.0, abs=1e-12)

    negation_powers = make_power_family(Negation(2))
    value = common_fixed_residual(negation_powers, [1.0, 1.0], [1, 2])
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_common_fixed_set_identity_and_negation():
    assert common_fixed_set_linear(make_power_family(Identity(2))).size == 2
    assert common_fixed_set_linear(make_power_family(Negation(2))).size == 0


def test_common_fixed_set_half_static_flow():
    fam = make_rotation_flow([1.0, 0.0], [1.0])
    fset = common_fixed_set_linear(fam)
    assert fset.size == 2
    for b in fset.basis:
        np.testing.assert_allclose(b[:2], [0.0, 0.0], atol=1e-12)
    assert fset.contains([0.0, 0.0, 1.0, -2.0], 1e-9)
    assert not fset.contains([1.0, 0.0, 0.0, 0.0], 1e-9)


def test_common_fixed_basis_residuals_against_generators():
    tol = 1e-10
    fam = make_rotation_flow([0.0, 2.0], [0.7, 1.4])
    fset = common_fixed_set_linear(fam, tol)
    assert fset.size == 2
    for generator in fam.generator_operators():
        for b in fset.basis:
            assert np.linalg.norm(b - generator.apply(b)) <= 10.0 * tol
