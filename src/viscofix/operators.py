"""Catalog of self-maps of R^d with declared Lipschitz classes.

The catalog covers linear and affine maps, metric projections onto balls and
boxes, plane rotations, averaged maps, constants, negation, the identity, and
compositions. Each constructor assigns a conservative Lipschitz class:

* projections, averaged-of-nonexpansive, negation -> nonexpansive
* rotation, identity                              -> isometry
* constant                                        -> contraction(0)
* linear/affine with matrix norm < 1              -> contraction(norm)
* anything else                                   -> unknown

Every operator reports its affine form x -> M x + c through affine_piece:
globally when it has one, or as the local piece around a given point (a ball
projection is the identity inside its ball). The global form is computed once
per operator and handed out read-only by affine_parts.

"unknown" operators can be probed empirically with estimate_lipschitz and
check_nonexpansive. The module also certifies norm attainment of linear maps
(power iteration on S^T S) and computes orthonormal bases of fixed-point sets
of linear maps (elimination with a pivot threshold, then orthonormalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import (
    DEFAULT_POLICY,
    DEFAULT_SEED,
    DimensionMismatch,
    TolerancePolicy,
    ViscofixError,
    as_vector,
    make_rng,
    norm,
    sample_ball,
    sample_sphere,
)


class InvalidSpec(ViscofixError):
    """Malformed operator parameters or serialized operator spec."""


class NotLinear(ViscofixError):
    """An operation requiring an exact linear representation got a nonlinear map."""


class NoConvergence(ViscofixError):
    """An iterative certification failed to settle within the iteration budget."""


class NotNonexpansive(ViscofixError):
    """A map required to be nonexpansive failed the sampled check."""


class NonFiniteValue(ViscofixError):
    """An operator returned a NaN or infinite value inside a solver or probe."""


# ---------------------------------------------------------------------------
# Declared Lipschitz classes


@dataclass(frozen=True)
class DeclaredClass:
    """Lipschitz class attached to an operator at construction time."""

    kind: str  # "contraction" | "nonexpansive" | "isometry" | "unknown"
    alpha: float | None = None

    def lipschitz_bound(self) -> float | None:
        """Known upper bound on the Lipschitz constant, or None for unknown."""
        if self.kind == "contraction":
            return self.alpha
        if self.kind in ("nonexpansive", "isometry"):
            return 1.0
        return None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.alpha is not None:
            d["alpha"] = float(self.alpha)
        return d


NONEXPANSIVE = DeclaredClass("nonexpansive")
ISOMETRY = DeclaredClass("isometry")
UNKNOWN = DeclaredClass("unknown")


def contraction(alpha: float) -> DeclaredClass:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise InvalidSpec(f"contraction modulus must lie in [0, 1), got {alpha}")
    return DeclaredClass("contraction", alpha)


#: Relative slack, in units of eps_machine, within which a computed bound is
#: 1 up to rounding: an SVD of an orthogonal matrix gives 1 + 2^-52 for a
#: 0.1 rad rotation. Far below the probe's NONEXPANSIVE_TOL, so a map classed
#: by it would also pass the probe, whose sampled ratios never exceed the
#: true Lipschitz constant.
BOUND_ROUNDING_ULPS = 16
_BOUND_ONE = 1.0 + BOUND_ROUNDING_ULPS * float(np.finfo(float).eps)


def spectral_norm(matrix: np.ndarray) -> float:
    """||M||_2, the largest singular value of a square matrix.

    The first of LAPACK's singular values, which come sorted in descending
    order: the bits of np.linalg.norm(M, 2), without the checks and axis
    handling that cost that call about twice the SVD itself.
    """
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _class_from_bound(bound: float) -> DeclaredClass:
    """Conservative class for a map with known Lipschitz bound; a bound of 1
    up to rounding is nonexpansive, anything larger is left to the probe."""
    if bound < 1.0:
        return contraction(bound)
    if bound <= _BOUND_ONE:
        return NONEXPANSIVE
    return UNKNOWN


# ---------------------------------------------------------------------------
# Operator base class and catalog


#: Marks a global affine form not yet computed (None means there is none).
_UNBUILT = object()


class Operator:
    """Immutable self-map of R^d carrying a declared Lipschitz class."""

    kind = "abstract"
    _global_form = _UNBUILT

    def __init__(self, dim: int, declared_class: DeclaredClass):
        dim = int(dim)
        if dim < 1:
            raise InvalidSpec("operator dimension must be at least 1")
        self.dim = dim
        self.declared_class = declared_class

    def apply(self, x) -> np.ndarray:
        """T(x), after checking that x is a vector of this operator's dimension."""
        return self._apply(self._check_arg(x))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """T(x) on a float vector of shape (dim,) that has already been checked.

        Composing operators call their children's _apply, and solver loops
        call it on vectors they built, so the shape check runs once, at the
        public boundary.
        """
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def affine_parts(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(matrix, offset) when the map is exactly x -> M x + c, else None.

        The global form affine_piece() gives, computed on the first call and
        kept: the operator is immutable, so every call returns the same
        read-only arrays.
        """
        parts = self._global_form
        if parts is _UNBUILT:
            parts = self.affine_piece()
            if parts is not None:
                parts = _frozen(*parts)
            self._global_form = parts
        return parts

    def affine_piece(self, x=None) -> tuple[np.ndarray, np.ndarray] | None:
        """(matrix, offset) of an affine map x -> M x + c that this map agrees with.

        With x None, the global form: the map is exactly M x + c everywhere,
        or there is no piece. With x a vector of this dimension, the local
        piece: the affine map this one agrees with around x, as far as x
        shows it (a ball projection is the identity at a point inside the
        ball). A local piece is a guess, not a certificate: where this map
        leaves the piece is not checked, so a solve on the piece must be
        checked against the map itself. None when there is no piece.
        """
        return None

    def linear_matrix(self) -> np.ndarray:
        """Matrix of an exactly linear map; raises NotLinear otherwise."""
        parts = self.affine_parts()
        if parts is None:
            raise NotLinear(f"'{self.kind}' operator has no linear representation")
        matrix, offset = parts
        if np.any(offset != 0.0):
            raise NotLinear(f"'{self.kind}' operator has a nonzero offset")
        return matrix

    def to_spec(self) -> dict:
        raise InvalidSpec(f"'{self.kind}' operator has no serializable spec")

    def _check_arg(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"operator of dimension {self.dim} applied to vector of shape {x.shape}"
            )
        return x

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} class={self.declared_class.kind}>"


def _square_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=float, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidSpec(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidSpec("matrix has non-finite entries")
    m.flags.writeable = False
    return m


class LinearOperator(Operator):
    """x -> M x."""

    kind = "linear"

    def __init__(self, matrix, declared_class: DeclaredClass | None = None):
        self.matrix = _square_matrix(matrix)
        if declared_class is None:
            declared_class = _class_from_bound(spectral_norm(self.matrix))
        super().__init__(self.matrix.shape[0], declared_class)
        self._offset = as_vector(np.zeros(self.dim))

    def _apply(self, x):
        return self.matrix @ x

    def affine_parts(self):
        return self.matrix, self._offset

    def affine_piece(self, x=None):
        return self.matrix, self._offset

    def to_spec(self):
        return {"kind": "linear", "matrix": self.matrix.tolist()}


class AffineOperator(Operator):
    """x -> M x + c.

    Without a declared class the class comes from matrix_norm, the spectral
    norm ||M||_2: computed by spectral_norm, or passed in by a caller that
    already computed it for this very matrix. It stays None for a declared
    class.
    """

    kind = "affine"

    def __init__(
        self, matrix, offset, declared_class: DeclaredClass | None = None,
        matrix_norm: float | None = None,
    ):
        matrix = _square_matrix(matrix)
        offset = as_vector(offset)
        if offset.shape[0] != matrix.shape[0]:
            raise InvalidSpec("affine offset dimension does not match the matrix")
        self._init_checked(matrix, offset, declared_class, matrix_norm)

    def _init_checked(self, matrix, offset, declared_class, matrix_norm):
        # matrix is square, offset matches it, both are finite and read-only.
        self.matrix = matrix
        self.offset = offset
        self.matrix_norm = None
        if declared_class is None:
            if matrix_norm is None:
                matrix_norm = spectral_norm(matrix)
            self.matrix_norm = float(matrix_norm)
            declared_class = _class_from_bound(self.matrix_norm)
        super().__init__(matrix.shape[0], declared_class)

    def _apply(self, x):
        return self.matrix @ x + self.offset

    def affine_parts(self):
        return self.matrix, self.offset

    def affine_piece(self, x=None):
        return self.matrix, self.offset

    def to_spec(self):
        return {"kind": "affine", "matrix": self.matrix.tolist(), "offset": self.offset.tolist()}


class Identity(Operator):
    kind = "identity"

    def __init__(self, dim: int):
        super().__init__(dim, ISOMETRY)

    def _apply(self, x):
        return x.copy()

    def affine_piece(self, x=None):
        return np.eye(self.dim), np.zeros(self.dim)

    def to_spec(self):
        return {"kind": "identity", "dim": self.dim}


class Negation(Operator):
    kind = "negation"

    def __init__(self, dim: int):
        super().__init__(dim, NONEXPANSIVE)

    def _apply(self, x):
        return -x

    def affine_piece(self, x=None):
        return -np.eye(self.dim), np.zeros(self.dim)

    def to_spec(self):
        return {"kind": "negation", "dim": self.dim}


class ConstantOperator(Operator):
    """x -> value, a contraction with modulus 0."""

    kind = "constant"

    def __init__(self, value):
        self.value = as_vector(value)
        super().__init__(self.value.shape[0], contraction(0.0))

    def _apply(self, x):
        return self.value.copy()

    def affine_piece(self, x=None):
        return np.zeros((self.dim, self.dim)), self.value

    def to_spec(self):
        return {"kind": "constant", "value": self.value.tolist()}


class BallProjection(Operator):
    """Metric projection onto the closed ball B(center, radius)."""

    kind = "projection_ball"

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise InvalidSpec("ball radius must be positive")
        super().__init__(self.center.shape[0], NONEXPANSIVE)
        self._interior = _frozen(np.eye(self.dim), np.zeros(self.dim))

    def _apply(self, x):
        shifted = x - self.center
        dist = math.sqrt(shifted.dot(shifted))
        if dist <= self.radius:
            return x.copy()
        return self.center + shifted * (self.radius / dist)

    def affine_piece(self, x=None):
        """The identity around a point of the closed ball; no piece outside it."""
        if x is None:
            return None
        shifted = self._check_arg(x) - self.center
        if math.sqrt(shifted.dot(shifted)) <= self.radius:
            return self._interior
        return None

    def to_spec(self):
        return {"kind": "projection_ball", "center": self.center.tolist(), "radius": self.radius}


class BoxProjection(Operator):
    """Coordinatewise clamp onto the box [lower, upper]."""

    kind = "projection_box"

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper)
        if self.lower.shape != self.upper.shape:
            raise InvalidSpec("box bounds have different dimensions")
        if np.any(self.lower > self.upper):
            raise InvalidSpec("box lower bound exceeds upper bound")
        super().__init__(self.lower.shape[0], NONEXPANSIVE)

    def _apply(self, x):
        # np.clip's bits (NaN stays NaN) without its wrapper's cost.
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def to_spec(self):
        return {"kind": "projection_box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


class PlaneRotation(Operator):
    """Rotation by a fixed angle in the coordinate plane (i, j)."""

    kind = "rotation"

    def __init__(self, dim: int, plane: tuple[int, int], angle: float):
        super().__init__(dim, ISOMETRY)
        i, j = int(plane[0]), int(plane[1])
        if i == j or not (0 <= i < self.dim) or not (0 <= j < self.dim):
            raise InvalidSpec(f"rotation plane {plane} invalid for dimension {self.dim}")
        self.plane = (i, j)
        self.angle = float(angle)
        self._cos_sin = (math.cos(self.angle), math.sin(self.angle))

    def _apply(self, x):
        x = x.copy()
        i, j = self.plane
        c, s = self._cos_sin
        xi, xj = x[i], x[j]
        x[i] = c * xi - s * xj
        x[j] = s * xi + c * xj
        return x

    def affine_piece(self, x=None):
        m = np.eye(self.dim)
        i, j = self.plane
        c, s = self._cos_sin
        m[i, i] = c
        m[i, j] = -s
        m[j, i] = s
        m[j, j] = c
        return m, np.zeros(self.dim)

    def to_spec(self):
        return {"kind": "rotation", "dim": self.dim, "plane": list(self.plane), "angle": self.angle}


class AveragedOperator(Operator):
    """x -> (1 - lam) x + lam T(x) for lam in (0, 1]."""

    kind = "averaged"

    def __init__(self, inner_op: Operator, lam: float):
        lam = float(lam)
        if not 0.0 < lam <= 1.0:
            raise InvalidSpec(f"averaging weight must lie in (0, 1], got {lam}")
        self.inner_op = inner_op
        self.lam = lam
        bound = inner_op.declared_class.lipschitz_bound()
        if bound is None:
            declared = UNKNOWN
        elif lam == 1.0:
            declared = inner_op.declared_class
        else:
            declared = _class_from_bound((1.0 - lam) + lam * bound)
        super().__init__(inner_op.dim, declared)

    def _apply(self, x):
        return (1.0 - self.lam) * x + self.lam * self.inner_op._apply(x)

    def affine_piece(self, x=None):
        piece = _piece_at(self.inner_op, x)
        if piece is None:
            return None
        m, c = piece
        return (1.0 - self.lam) * np.eye(self.dim) + self.lam * m, self.lam * c

    def to_spec(self):
        return {"kind": "averaged", "inner": self.inner_op.to_spec(), "lambda": self.lam}


def _piece_at(op: Operator, x):
    """op's global form when it has one, else its local piece at x (None for x None)."""
    parts = op.affine_parts()
    if parts is None and x is not None:
        return op.affine_piece(x)
    return parts


def _pieces_along(operators, x):
    """Each operator's piece at the point it receives when they run in order from x."""
    for op in operators:
        yield _piece_at(op, x)
        if x is not None:
            x = op._apply(x)


def _compose(pieces, dim: int):
    """Piece of maps applied in order (the first piece first), or None if one is None."""
    m = np.eye(dim)
    c = np.zeros(dim)
    for piece in pieces:
        if piece is None:
            return None
        mk, ck = piece
        m = mk @ m
        c = mk @ c + ck
    return m, c


class CompositeOperator(Operator):
    """Sequential composition; operators[0] is applied first."""

    kind = "composite"

    def __init__(self, operators):
        ops = tuple(operators)
        if not ops:
            raise InvalidSpec("composite requires at least one operator")
        dim = ops[0].dim
        for op in ops:
            if op.dim != dim:
                raise DimensionMismatch("composite mixes operators of different dimensions")
        bounds = [op.declared_class.lipschitz_bound() for op in ops]
        if any(b is None for b in bounds):
            declared = UNKNOWN
        else:
            product = 1.0
            for b in bounds:
                product *= b
            if product == 1.0 and all(op.declared_class.kind == "isometry" for op in ops):
                declared = ISOMETRY
            else:
                declared = _class_from_bound(product)
        self.operators = ops
        super().__init__(dim, declared)

    def _apply(self, x):
        for op in self.operators:
            x = op._apply(x)
        return x

    def affine_piece(self, x=None):
        if x is not None:
            x = self._check_arg(x)
        return _compose(_pieces_along(self.operators, x), self.dim)

    def to_spec(self):
        return {"kind": "composite", "operators": [op.to_spec() for op in self.operators]}


class IteratedOperator(Operator):
    """n-fold self-composition of a base operator (n = 0 gives the identity)."""

    kind = "iterated"

    def __init__(self, base: Operator, n: int):
        n = int(n)
        if n < 0:
            raise InvalidSpec("iteration count must be nonnegative")
        self.base = base
        self.n = n
        if n == 0:
            declared = ISOMETRY
        elif base.declared_class.kind == "contraction":
            declared = contraction(base.declared_class.alpha**n)
        else:
            declared = base.declared_class
        super().__init__(base.dim, declared)

    def _apply(self, x):
        y = x.copy()
        for _ in range(self.n):
            y = self.base._apply(y)
        return y

    def affine_piece(self, x=None):
        if x is not None:
            return _compose(_pieces_along((self.base,) * self.n, self._check_arg(x)), self.dim)
        piece = self.base.affine_parts()
        return None if piece is None else _compose((piece,) * self.n, self.dim)

    def to_spec(self):
        return {"kind": "iterated", "base": self.base.to_spec(), "n": self.n}


class BlendOperator(Operator):
    """Pointwise combination x -> a S(x) + b T(x)."""

    kind = "blend"

    def __init__(self, a: float, first: Operator, b: float, second: Operator):
        if first.dim != second.dim:
            raise DimensionMismatch("blend mixes operators of different dimensions")
        self.a = float(a)
        self.b = float(b)
        self.first = first
        self.second = second
        bound_s = first.declared_class.lipschitz_bound()
        bound_t = second.declared_class.lipschitz_bound()
        if bound_s is None or bound_t is None:
            declared = UNKNOWN
        else:
            declared = _class_from_bound(abs(self.a) * bound_s + abs(self.b) * bound_t)
        super().__init__(first.dim, declared)

    def _apply(self, x):
        return self.a * self.first._apply(x) + self.b * self.second._apply(x)

    def affine_piece(self, x=None):
        # The second map (a solve's target) is the one that may have no
        # piece, so it is asked first and the first map's piece is not built.
        pt = _piece_at(self.second, x)
        if pt is None:
            return None
        ps = _piece_at(self.first, x)
        if ps is None:
            return None
        return self.a * ps[0] + self.b * pt[0], self.a * ps[1] + self.b * pt[1]


class FunctionOperator(Operator):
    """Arbitrary callable with a caller-supplied Lipschitz class (not serializable)."""

    kind = "function"

    def __init__(self, func, dim: int, declared_class: DeclaredClass = UNKNOWN, name: str = "function"):
        super().__init__(dim, declared_class)
        self.func = func
        self.name = name

    def _apply(self, x):
        # The callable is outside code, so its output shape is checked on every call.
        y = np.asarray(self.func(x), dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"callable '{self.name}' returned shape {y.shape}")
        return y


class DeclaredWrapper(Operator):
    """Same map as the wrapped operator, with an overriding declared class.

    Used after an empirical check upgrades an 'unknown' operator.
    """

    kind = "declared"

    def __init__(self, wrapped: Operator, declared_class: DeclaredClass):
        super().__init__(wrapped.dim, declared_class)
        self.wrapped = wrapped

    def _apply(self, x):
        return self.wrapped._apply(x)

    def affine_piece(self, x=None):
        return _piece_at(self.wrapped, x)

    def to_spec(self):
        return self.wrapped.to_spec()


def blend(
    a: float, first: Operator, b: float, second: Operator, matrix_norm: float | None = None
) -> Operator:
    """a*S + b*T as an operator, collapsed to a single affine map when possible.

    The collapse keeps inner Picard loops cheap and lets the affine
    constructor declare the sharp contraction modulus ||a M_S + b M_T||.
    A caller that has already computed that norm (for a whole schedule at
    once) passes it as matrix_norm, and the collapse skips its SVD. The
    collapsed matrix and offset are checked once, for finiteness: a blend
    whose weights overflow them raises InvalidSpec.
    """
    if first.dim != second.dim:
        raise DimensionMismatch("blend mixes operators of different dimensions")
    ps = first.affine_parts()
    pt = second.affine_parts()
    if ps is not None and pt is not None:
        # An overflow is reported by the finiteness checks, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = a * ps[0] + b * pt[0]
            offset = a * ps[1] + b * pt[1]
        return _adopt_affine(matrix, offset, None, matrix_norm, "collapsed")
    return BlendOperator(a, first, b, second)


def _adopt_affine(
    matrix: np.ndarray, offset: np.ndarray, declared_class: DeclaredClass | None,
    matrix_norm: float | None, name: str,
) -> AffineOperator:
    """AffineOperator on a matrix and offset just computed from checked parts.

    Such arrays are square and of matching shapes, and nobody else holds
    them: they are checked once, for finiteness, and frozen in place, with
    no copy. A NaN or infinite entry raises InvalidSpec, whose message
    starts with name. declared_class and matrix_norm are as for
    AffineOperator.
    """
    if not np.isfinite(matrix).all():
        raise InvalidSpec(f"{name} matrix has non-finite entries")
    if not np.isfinite(offset).all():
        raise InvalidSpec(f"{name} offset has non-finite coordinates")
    matrix.flags.writeable = False
    offset.flags.writeable = False
    op = AffineOperator.__new__(AffineOperator)
    op._init_checked(matrix, offset, declared_class, matrix_norm)
    return op


# ---------------------------------------------------------------------------
# Serialized operator specs

_SPEC_BUILDERS = {}


def _register(kind):
    def wrap(fn):
        _SPEC_BUILDERS[kind] = fn
        return fn

    return wrap


def _require(spec: dict, *keys):
    for key in keys:
        if key not in spec:
            raise InvalidSpec(f"operator spec of kind '{spec.get('kind')}' is missing '{key}'")
    return [spec[k] for k in keys]


@_register("linear")
def _build_linear(spec):
    (matrix,) = _require(spec, "matrix")
    return LinearOperator(matrix)


@_register("affine")
def _build_affine(spec):
    matrix, offset = _require(spec, "matrix", "offset")
    return AffineOperator(matrix, offset)


@_register("identity")
def _build_identity(spec):
    (dim,) = _require(spec, "dim")
    return Identity(dim)


@_register("negation")
def _build_negation(spec):
    (dim,) = _require(spec, "dim")
    return Negation(dim)


@_register("constant")
def _build_constant(spec):
    (value,) = _require(spec, "value")
    return ConstantOperator(value)


@_register("projection_ball")
def _build_ball(spec):
    center, radius = _require(spec, "center", "radius")
    return BallProjection(center, radius)


@_register("projection_box")
def _build_box(spec):
    lower, upper = _require(spec, "lower", "upper")
    return BoxProjection(lower, upper)


@_register("rotation")
def _build_rotation(spec):
    dim, plane, angle = _require(spec, "dim", "plane", "angle")
    if not isinstance(plane, (list, tuple)) or len(plane) != 2:
        raise InvalidSpec("rotation plane must be a pair of coordinate indices")
    return PlaneRotation(dim, (plane[0], plane[1]), angle)


@_register("averaged")
def _build_averaged(spec):
    inner_spec, lam = _require(spec, "inner", "lambda")
    return AveragedOperator(make_operator(inner_spec), lam)


@_register("composite")
def _build_composite(spec):
    (op_specs,) = _require(spec, "operators")
    if not isinstance(op_specs, (list, tuple)):
        raise InvalidSpec("composite 'operators' must be a list of operator specs")
    return CompositeOperator([make_operator(s) for s in op_specs])


@_register("iterated")
def _build_iterated(spec):
    base_spec, n = _require(spec, "base", "n")
    return IteratedOperator(make_operator(base_spec), n)


def make_operator(spec: dict) -> Operator:
    """Build a cataloged operator from its serialized (JSON-style) spec."""
    if not isinstance(spec, dict):
        raise InvalidSpec(f"operator spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    builder = _SPEC_BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(sorted(_SPEC_BUILDERS))
        raise InvalidSpec(f"unknown operator kind '{kind}' (known: {known})")
    try:
        return builder(spec)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed '{kind}' spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Empirical Lipschitz probes

#: Sampling shared by every probe that resolves an undeclared Lipschitz class:
#: pair count, ball radius, and the slack a nonexpansive map may show.
PROBE_SAMPLES = 1000
PROBE_RADIUS = 10.0
NONEXPANSIVE_TOL = 1e-9


def _sampled_ratios(T: Operator, n_samples: int, radius: float, seed):
    """(x, y, ||T x - T y|| / ||x - y||) over seeded pairs x != y in a ball.

    Sampled vectors need no shape check, so T._apply is called directly.
    Raises NonFiniteValue when T returns a NaN or infinite value; a ratio
    that overflows on finite values is yielded as it is.
    """
    rng = make_rng(seed)
    for _ in range(n_samples):
        x = sample_ball(rng, T.dim, radius)
        y = sample_ball(rng, T.dim, radius)
        while np.array_equal(x, y):
            y = sample_ball(rng, T.dim, radius)
        tx, ty = T._apply(x), T._apply(y)
        image = tx - ty
        gap = x - y
        ratio = math.sqrt(image.dot(image)) / math.sqrt(gap.dot(gap))
        if not math.isfinite(ratio) and not (np.isfinite(tx).all() and np.isfinite(ty).all()):
            raise NonFiniteValue(
                f"Lipschitz probe produced a non-finite value (operator kind '{T.kind}')"
            )
        yield x, y, ratio


def estimate_lipschitz(T: Operator, n_samples: int, radius: float, seed=DEFAULT_SEED) -> float:
    """Largest ratio ||T x - T y|| / ||x - y|| over seeded sample pairs in a ball."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    return max(ratio for _, _, ratio in _sampled_ratios(T, n_samples, radius, seed))


@dataclass(frozen=True)
class NonexpansiveCheck:
    """Outcome of a sampled nonexpansiveness check."""

    passed: bool
    witness: tuple | None = None  # (x, y, ratio) for the first violating pair

    def __bool__(self):
        return self.passed


def check_nonexpansive(
    T: Operator, n_samples: int, tol: float, radius: float = PROBE_RADIUS, seed=DEFAULT_SEED
) -> NonexpansiveCheck:
    """Sampled check that ||T x - T y|| <= (1 + tol) ||x - y||.

    Returns the first violating pair as a witness, in deterministic seeded
    sampling order.
    """
    for x, y, ratio in _sampled_ratios(T, n_samples, radius, seed):
        if ratio > 1.0 + tol:
            return NonexpansiveCheck(False, (as_vector(x), as_vector(y), ratio))
    return NonexpansiveCheck(True)


# ---------------------------------------------------------------------------
# Norm-attainment certification


@dataclass(frozen=True)
class NACertificate:
    """Certificate that a unit vector attains the operator norm of a linear map."""

    sigma: float
    vector: np.ndarray
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "sigma": float(self.sigma),
            "vector": [float(v) for v in self.vector],
            "residual": float(self.residual),
            "iterations": int(self.iterations),
        }


def _unit_coordinate(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim)
    e[index] = 1.0
    return e


def _power_iteration(matrix: np.ndarray, tol: float, policy: TolerancePolicy, seed):
    """Power iteration on M^T M. Returns (sigma, unit vector, iterations).

    Starts from the normalized all-ones vector, falling back to a seeded
    random direction if that start lies in the null space. Stops once
    successive Rayleigh quotients differ by at most tol * max(1, quotient).
    A map that annihilates both start vectors is treated as zero, with
    attaining vector e_1 by convention.
    """
    d = matrix.shape[0]
    gram = matrix.T @ matrix
    v = np.ones(d) / math.sqrt(d)
    if norm(gram @ v) <= tol:
        v = sample_sphere(make_rng(seed), d)
        if norm(gram @ v) <= tol:
            return 0.0, _unit_coordinate(d, 0), 0
    w = gram @ v
    rho = float(v @ w)
    for iteration in range(1, policy.max_iter + 1):
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, _unit_coordinate(d, 0), iteration
        v = w / nw
        w = gram @ v
        rho_new = float(v @ w)
        if abs(rho_new - rho) <= tol * max(1.0, abs(rho_new)):
            return math.sqrt(max(rho_new, 0.0)), v, iteration
        rho = rho_new
    raise NoConvergence(
        f"power iteration did not settle within {policy.max_iter} iterations (tol={tol})"
    )


def operator_norm(
    S: Operator, tol: float, policy: TolerancePolicy = DEFAULT_POLICY, seed=DEFAULT_SEED
) -> tuple[float, np.ndarray]:
    """Operator norm of a linear map together with a maximizing unit vector."""
    matrix = S.linear_matrix()
    sigma, vector, _ = _power_iteration(matrix, tol, policy, seed)
    return sigma, vector


def certify_norm_attainable(
    S: Operator, tol: float, policy: TolerancePolicy = DEFAULT_POLICY, seed=DEFAULT_SEED
) -> NACertificate:
    """Certify that S attains its operator norm at a concrete unit vector.

    The certificate reports sigma, the attaining vector x, the residual
    | ||S x|| - sigma |, and the number of power-iteration steps.
    """
    matrix = S.linear_matrix()
    sigma, vector, iterations = _power_iteration(matrix, tol, policy, seed)
    residual = abs(norm(matrix @ vector) - sigma)
    return NACertificate(sigma=sigma, vector=as_vector(vector), residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# Fixed-point sets of linear maps


@dataclass(frozen=True)
class FixedPointSet:
    """Orthonormal basis of the fixed-point subspace of a linear map."""

    dim: int
    basis: tuple[np.ndarray, ...]
    tol_used: float

    @property
    def size(self) -> int:
        return len(self.basis)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the spanned subspace."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of dimension {self.dim}")
        out = np.zeros(self.dim)
        for b in self.basis:
            out += float(np.dot(b, x)) * b
        return out

    def contains(self, x, tol: float) -> bool:
        return norm(np.asarray(x, dtype=float) - self.project(x)) <= tol


def nullspace_basis(matrix: np.ndarray, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the null space of a (possibly rectangular) matrix.

    Gauss-Jordan elimination with partial pivoting; columns whose remaining
    entries are all <= tol in magnitude are treated as free. The raw basis from
    back substitution is orthonormalized with a QR factorization.
    """
    r = np.array(matrix, dtype=float, copy=True)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {r.shape}")
    nrows, ncols = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[pivot_row, col]) <= tol:
            continue
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        r[row] = r[row] / r[row, col]
        for other in range(nrows):
            if other != row and r[other, col] != 0.0:
                r[other] = r[other] - r[other, col] * r[row]
        pivot_cols.append(col)
        row += 1
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if not free_cols:
        return []
    raw = np.zeros((ncols, len(free_cols)))
    for k, free in enumerate(free_cols):
        raw[free, k] = 1.0
        for i, piv in enumerate(pivot_cols):
            raw[piv, k] = -r[i, free]
    q, _ = np.linalg.qr(raw)
    return [q[:, k].copy() for k in range(q.shape[1])]


def fixed_points_linear(T: Operator, tol: float = DEFAULT_POLICY.abs_tol) -> FixedPointSet:
    """Orthonormal basis of Fix(T) = null(I - T) for a linear map T."""
    matrix = T.linear_matrix()
    d = matrix.shape[0]
    basis = nullspace_basis(np.eye(d) - matrix, tol)
    return FixedPointSet(dim=d, basis=tuple(as_vector(b) for b in basis), tol_used=float(tol))
