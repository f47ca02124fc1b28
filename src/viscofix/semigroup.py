"""Indexed families of operators with an additive composition law.

A family maps indices t from an additive index set (naturals, or nonnegative
reals sampled on a grid) to operators T_t, and is supposed to satisfy
T_{s+t} = T_s T_t. check_representation measures how badly a family violates
that law on sampled triples; common_fixed_set_linear intersects the
fixed-point subspaces of the family generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    NONEXPANSIVE,
    NONEXPANSIVE_TOL,
    PROBE_SAMPLES,
    DeclaredWrapper,
    FixedPointSet,
    Identity,
    InvalidSpec,
    IteratedOperator,
    LinearOperator,
    ISOMETRY,
    NotNonexpansive,
    Operator,
    _NUMBER_LIST,
    _SPEC,
    _TABLE,
    _build_spec,
    _common_fixed_set,
    _spec_of,
    check_nonexpansive,
)
from .space import DEFAULT_POLICY, DEFAULT_SEED, as_vector, make_rng, norm, sample_sphere

NATURALS = "naturals_add"
NONNEG_REALS = "nonneg_reals_add"


@dataclass(frozen=True)
class IndexSemigroup:
    """Additive index set of a family: kind, generators, optional sample grid."""

    kind: str
    generators: tuple
    sample_grid: tuple = ()

    def __post_init__(self):
        if self.kind not in (NATURALS, NONNEG_REALS):
            raise InvalidSpec(f"unknown index semigroup kind '{self.kind}'")
        if not self.generators:
            raise InvalidSpec("index semigroup needs at least one generator")


class OperatorFamily:
    """Base class: a map from indices to operators on a common space."""

    kind = "abstract"

    def __init__(self, index: IndexSemigroup, dim: int):
        self.index = index
        self.dim = dim

    def evaluate(self, t) -> Operator:
        raise NotImplementedError

    def sample_indices(self) -> tuple:
        """Indices cycled through by solvers and sampled by checks."""
        raise NotImplementedError

    def generator_operators(self) -> list[Operator]:
        return [self.evaluate(g) for g in self.index.generators]

    def _member(self, t) -> Operator:
        """The operator at t as a solver takes it: declared nonexpansive, probed when undeclared."""
        return resolve_nonexpansive(self.evaluate(t))

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} index={self.index.kind}>"


def resolve_nonexpansive(T: Operator) -> Operator:
    """T when its declared Lipschitz bound is at most 1; otherwise T declared
    nonexpansive after a sampled probe, or NotNonexpansive if the probe fails."""
    bound = T.declared_class.lipschitz_bound()
    if bound is not None and bound <= 1.0:
        return T
    result = check_nonexpansive(T, PROBE_SAMPLES, NONEXPANSIVE_TOL)
    if result.passed:
        return DeclaredWrapper(T, NONEXPANSIVE)
    _, _, ratio = result.witness
    raise NotNonexpansive(f"'{T.kind}' operator expands sampled pairs (worst ratio {ratio:.6g})")


def _family_spec(family) -> dict:
    """The spec make_family builds a power or rotation flow family from, written back from its row.

    A custom family has none: its operators are not kept as specs.
    """
    return _spec_of(family, _FAMILY_SPECS)


class PowerFamily(OperatorFamily):
    """T_n = base^n over the naturals, with T_0 the identity."""

    kind = "power"

    def __init__(self, base: Operator):
        # Keep the resolved base, so solvers do not probe it a second time.
        self.base = resolve_nonexpansive(base)
        super().__init__(IndexSemigroup(NATURALS, (1,)), base.dim)

    def evaluate(self, t) -> Operator:
        n = int(t)
        if n != t or n < 0:
            raise InvalidSpec(f"power family index must be a nonnegative integer, got {t}")
        if n == 0:
            return Identity(self.dim)
        if n == 1:
            return self.base
        return IteratedOperator(self.base, n)

    def sample_indices(self) -> tuple:
        return (1,)

    to_spec = _family_spec


class RotationFlowFamily(OperatorFamily):
    """T_t rotates plane (2i, 2i+1) by rates[i] * t; an exact one-parameter group.

    Defined for every t >= 0 even though representation checks sample the grid.
    """

    kind = "rotation_flow"

    def __init__(self, rates, grid):
        rates = tuple(float(r) for r in rates)
        grid = tuple(float(g) for g in grid)
        if not rates:
            raise InvalidSpec("rotation flow needs at least one rate")
        if not grid:
            raise InvalidSpec("rotation flow needs a nonempty sample grid")
        if any(g < 0.0 for g in grid):
            raise InvalidSpec("rotation flow grid values must be nonnegative")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise InvalidSpec("rotation flow grid must be strictly increasing")
        self.rates = rates
        self.grid = grid
        generators = tuple(g for g in grid if g > 0.0) or grid
        super().__init__(IndexSemigroup(NONNEG_REALS, generators, grid), 2 * len(rates))

    def evaluate(self, t) -> Operator:
        t = float(t)
        if t < 0.0:
            raise InvalidSpec(f"rotation flow index must be nonnegative, got {t}")
        m = np.eye(self.dim)
        for i, rate in enumerate(self.rates):
            angle = rate * t
            c, s = np.cos(angle), np.sin(angle)
            k = 2 * i
            m[k, k] = c
            m[k, k + 1] = -s
            m[k + 1, k] = s
            m[k + 1, k + 1] = c
        return LinearOperator(m, declared_class=ISOMETRY)

    def sample_indices(self) -> tuple:
        return self.grid

    to_spec = _family_spec


class CustomFamily(OperatorFamily):
    """Finite index-to-operator table; indices must match table keys exactly."""

    kind = "custom"

    def __init__(self, table: dict):
        if not table:
            raise InvalidSpec("custom family table is empty")
        normalized: dict[float, Operator] = {}
        for key, op in table.items():
            if not isinstance(op, Operator):
                raise InvalidSpec(f"custom family entry for index {key} is not an Operator")
            normalized[float(key)] = op
        dims = {op.dim for op in normalized.values()}
        if len(dims) != 1:
            raise InvalidSpec("custom family mixes operators of different dimensions")
        self.table = normalized
        keys = tuple(sorted(normalized))
        if any(k < 0.0 for k in keys):
            raise InvalidSpec("custom family indices must be nonnegative")
        integral = all(k == int(k) for k in keys)
        kind = NATURALS if integral else NONNEG_REALS
        generators = tuple(k for k in keys if k > 0.0) or keys
        super().__init__(IndexSemigroup(kind, generators, keys), dims.pop())
        # Each member as the first solve resolved it, as PowerFamily keeps
        # its base, so that an undeclared member is probed once.
        self._resolved: dict[float, Operator] = {}

    def evaluate(self, t) -> Operator:
        key = float(t)
        if key not in self.table:
            raise InvalidSpec(f"custom family has no operator at index {t}")
        return self.table[key]

    def _member(self, t) -> Operator:
        key = float(t)
        if key not in self._resolved:
            self._resolved[key] = super()._member(t)
        return self._resolved[key]

    def sample_indices(self) -> tuple:
        return tuple(sorted(self.table))


def make_power_family(base: Operator) -> PowerFamily:
    """Powers of a nonexpansive base operator (checked empirically if undeclared)."""
    return PowerFamily(base)


def make_rotation_flow(rates, grid) -> RotationFlowFamily:
    return RotationFlowFamily(rates, grid)


def make_custom_family(table: dict) -> CustomFamily:
    return CustomFamily(table)


#: kind -> (constructor, the spec's fields in the order it takes them), as operators._SPEC_BUILDERS.
_FAMILY_SPECS = {
    "power": (PowerFamily, (("base", _SPEC),)),
    "rotation_flow": (RotationFlowFamily, (("rates", _NUMBER_LIST), ("grid", _NUMBER_LIST))),
    "custom": (CustomFamily, (("table", _TABLE),)),
}


def make_family(spec: dict) -> OperatorFamily:
    """Build a family from its serialized (JSON-style) spec, by its kind's row of _FAMILY_SPECS.

    Fields are checked as make_operator checks operator specs: a rotation
    flow's 'rates' and 'grid' must be lists of numbers, and a custom
    'table' an object of operator specs whose keys are finite numbers, no
    two of them the same number (such as "1" and "1.0").
    """
    return _build_spec("family", _FAMILY_SPECS, spec)


# ---------------------------------------------------------------------------
# Representation and common-fixed-point checks


@dataclass(frozen=True)
class RepresentationReport:
    """Worst observed violation of T_{s+t} = T_s T_t on sampled triples."""

    max_defect: float
    worst_pair: tuple
    samples_checked: int

    def passed(self, tol: float) -> bool:
        return self.max_defect <= tol

    def to_dict(self) -> dict:
        return {
            "max_defect": float(self.max_defect),
            "worst_pair": [float(self.worst_pair[0]), float(self.worst_pair[1])],
            "samples_checked": int(self.samples_checked),
        }


def _sample_index_pairs(family: OperatorFamily, rng, n_pairs: int, max_index: int):
    if isinstance(family, CustomFamily):
        keys = family.sample_indices()
        key_set = set(keys)
        valid = [(s, t) for s in keys for t in keys if s + t in key_set]
        if not valid:
            raise InvalidSpec("custom family has no composable index pairs (s, t, s+t)")
        picks = rng.integers(0, len(valid), size=n_pairs)
        return [valid[i] for i in picks]
    if family.index.kind == NATURALS:
        draws = rng.integers(0, max_index + 1, size=(n_pairs, 2))
        return [(int(s), int(t)) for s, t in draws]
    grid = family.sample_indices()
    picks = rng.integers(0, len(grid), size=(n_pairs, 2))
    return [(grid[i], grid[j]) for i, j in picks]


def check_representation(
    family: OperatorFamily,
    n_pairs: int,
    n_vectors: int,
    tol: float,
    seed=DEFAULT_SEED,
    max_index: int = 12,
) -> RepresentationReport:
    """Sample (s, t) pairs and unit vectors x; measure ||T_{s+t} x - T_s T_t x||.

    tol is recorded by callers when turning the report into a pass/fail; the
    report itself just carries the worst defect and where it occurred.
    """
    if n_pairs < 1 or n_vectors < 1:
        raise ValueError("n_pairs and n_vectors must be at least 1")
    del tol  # threshold applied by the caller via RepresentationReport.passed
    rng = make_rng(seed)
    pairs = _sample_index_pairs(family, rng, n_pairs, max_index)
    vectors = [sample_sphere(rng, family.dim) for _ in range(n_vectors)]
    max_defect = -1.0
    worst_pair = pairs[0]
    for s, t in pairs:
        t_sum = family.evaluate(s + t)
        t_s = family.evaluate(s)
        t_t = family.evaluate(t)
        for x in vectors:
            defect = norm(t_sum.apply(x) - t_s.apply(t_t.apply(x)))
            if defect > max_defect:
                max_defect = defect
                worst_pair = (s, t)
    return RepresentationReport(
        max_defect=max_defect, worst_pair=worst_pair, samples_checked=len(pairs) * len(vectors)
    )


def common_fixed_residual(family: OperatorFamily, x, indices) -> float:
    """max_t ||x - T_t x|| over the given indices."""
    x = as_vector(x)
    worst = 0.0
    for t in indices:
        value = norm(x - family.evaluate(t).apply(x))
        if value > worst:
            worst = value
    return worst


def common_fixed_set_linear(
    family: OperatorFamily, tol: float = DEFAULT_POLICY.abs_tol
) -> FixedPointSet:
    """Intersection of Fix(T_g) over the family generators, all linear.

    Stacks the blocks (I - T_g) and takes the null space of the stack.
    """
    return _common_fixed_set(family.dim, [g.linear_matrix() for g in family.generator_operators()], tol)
