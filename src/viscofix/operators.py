"""Catalog of self-maps of R^d with declared Lipschitz classes.

The catalog covers linear and affine maps, metric projections onto balls and
boxes, plane rotations, averaged maps, constants, negation, the identity, and
compositions. Each constructor assigns a conservative Lipschitz class:

* projections, averaged-of-nonexpansive, negation -> nonexpansive
* rotation, identity                              -> isometry
* constant                                        -> contraction(0)
* linear/affine with matrix norm < 1              -> contraction(norm)
* anything else                                   -> unknown

Every operator answers through one protocol. _apply evaluates it on a
checked vector or on each row of a stack, and affine_piece reports its
affine form x -> M x + c: globally when it has one, or as the local piece
around a given point (a ball projection is the identity inside its ball).
A map that finds its local piece by evaluating itself gives the value and
the piece from one pass, _apply_piece, which answers affine_piece(x). The
global form is computed once per operator and handed out read-only by
affine_parts.

"unknown" operators can be probed empirically with estimate_lipschitz and
check_nonexpansive. The module also certifies norm attainment of linear maps
(the top eigenvector of S^T S, with the norm bracketed between ||S v|| and an
upper bound that a Cholesky factorization proves) and computes orthonormal
bases of fixed-point sets of linear maps (the right singular vectors of one
SVD whose singular values are at most a tolerance).
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .space import (
    DEFAULT_POLICY,
    DEFAULT_SEED,
    DimensionMismatch,
    ViscofixError,
    as_vector,
    make_rng,
    norm,
    sample_ball,
)


class InvalidSpec(ViscofixError):
    """Malformed operator parameters or serialized operator spec."""


class NotLinear(ViscofixError):
    """An operation requiring an exact linear representation got a nonlinear map."""


class NotNonexpansive(ViscofixError):
    """A map required to be nonexpansive failed the sampled check."""


class NonFiniteValue(ViscofixError):
    """An operator returned a NaN or infinite value inside a solver or probe."""


# ---------------------------------------------------------------------------
# Declared Lipschitz classes


class DeclaredClass(NamedTuple):
    """Lipschitz class attached to an operator at construction time, as an immutable value."""

    kind: str  # "contraction" | "nonexpansive" | "isometry" | "unknown"
    alpha: float | None = None

    def lipschitz_bound(self) -> float | None:
        """Known upper bound on the Lipschitz constant, or None for unknown."""
        if self.kind == "contraction":
            return self.alpha
        if self.kind in ("nonexpansive", "isometry"):
            return 1.0
        return None


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


def _class_from_bound(bound: float) -> DeclaredClass:
    """Conservative class for a map with known Lipschitz bound; a bound of 1
    up to rounding is nonexpansive, anything larger is left to the probe.

    The bound is a norm or a product and sum of declared bounds, never
    negative, so a bound below 1 is a valid contraction modulus as it is.
    """
    if bound < 1.0:
        return DeclaredClass("contraction", float(bound))
    if bound <= _BOUND_ONE:
        return NONEXPANSIVE
    return UNKNOWN


# ---------------------------------------------------------------------------
# Affine pieces


class _Piece:
    """An affine map x -> M x + c that an operator agrees with, as a read-only value.

    everywhere tells a global form, which the operator equals everywhere,
    from a local piece, which it agrees with around the point it was asked
    at. norm is ||M||_2 when known (a schedule plan's batched SVD sets it
    on a stack, as the list of its maps' norms).
    The arrays are checked finite and made read-only in place once, at
    build: a NaN or infinite entry raises InvalidSpec, "collapsed ..." for a
    global form and "piece ..." for a local one. A piece may stack n maps,
    (n, d, d) and (n, d), whose maps row() gives. It unpacks and
    indexes as the pair (matrix, offset).
    """

    __slots__ = ("matrix", "offset", "everywhere", "norm")

    def __init__(self, matrix: np.ndarray, offset: np.ndarray, everywhere: bool, norm: float | None = None):
        name = "collapsed" if everywhere else "piece"
        if not np.isfinite(matrix).all():
            raise InvalidSpec(f"{name} matrix has non-finite entries")
        if not np.isfinite(offset).all():
            raise InvalidSpec(f"{name} offset has non-finite coordinates")
        matrix.setflags(write=False)
        offset.setflags(write=False)
        self.matrix, self.offset, self.everywhere, self.norm = matrix, offset, everywhere, norm

    def row(self, index: int) -> _Piece:
        """Map index of a stacked piece, with its norm, as a piece of views checked with the stack."""
        row = object.__new__(_Piece)
        row.matrix, row.offset, row.everywhere = self.matrix[index], self.offset[index], self.everywhere
        row.norm = None if self.norm is None else self.norm[index]
        return row

    def __iter__(self):
        return iter((self.matrix, self.offset))

    def __getitem__(self, index):
        return (self.matrix, self.offset)[index]


def _as_piece(pair, everywhere: bool) -> _Piece | None:
    """A hook's answer as a piece: None or a piece as it is, a plain (matrix, offset) pair checked and frozen."""
    return pair if pair is None or isinstance(pair, _Piece) else _Piece(*pair, everywhere)


def _kept(op, pieces, build) -> _Piece | None:
    """op's piece, build(pieces, op.dim) from its children's pieces, kept from op's last call.

    While every piece is the very object it was then, the piece built then
    comes back. It holds everywhere when all of them do. None as soon as a
    piece is None; the rest are not asked for.
    """
    seen = []
    for piece in pieces:
        if piece is None:
            return None
        seen.append(piece)
    last = op._last_piece
    if last is not None and all(map(operator.is_, seen, last[0])):
        return last[1]
    built = _Piece(*build(seen, op.dim), all(piece.everywhere for piece in seen))
    op._last_piece = seen, built
    return built


# ---------------------------------------------------------------------------
# Operator base class and catalog


#: Marks a global affine form not yet computed (None means there is none).
_UNBUILT = object()


class Operator:
    """Immutable self-map of R^d carrying a declared Lipschitz class."""

    kind = "abstract"
    _global_form = _UNBUILT
    #: (the child pieces, the piece built from them) of the last piece built; see _kept.
    _last_piece = None
    #: What each class probe found for this map, by probe; see _probed_class.
    _probed = None

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
        """T(x) on a checked float vector of shape (dim,), or T at each row of an (n, dim) stack.

        Composing operators call their children's _apply, and solver loops
        and stacked checks call it on arrays they built, so the shape check
        runs once, at the public boundary. A stack gives an (n, dim) array
        whose rows have, for numbers, the bits each row gets alone. Where a
        NaN meets another NaN or an infinity, its sign may differ between
        the two: PlaneRotation takes a vector's coordinates as floats and a
        stack's columns as arrays, and which operand's NaN a sum returns
        differs between them (PlaneRotation(2, (0, 1), 0.0) on [-inf, nan]).
        """
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def affine_parts(self) -> _Piece | None:
        """The global form, (matrix, offset) when the map is exactly x -> M x + c, else None.

        affine_piece() as a piece, computed on the first call and kept: the
        operator is immutable, so every call returns the same piece.
        """
        form = self._global_form
        if form is _UNBUILT:
            form = self._global_form = _as_piece(self.affine_piece(), True)
        return form

    def affine_piece(self, x=None) -> _Piece | None:
        """(matrix, offset) of an affine map x -> M x + c that this map agrees with.

        The hook a class overrides for a global form it does not set at
        construction, or for local pieces it finds apart from its value.
        With x None, the global form: the map is exactly M x + c everywhere,
        or there is no piece. With x a vector of this dimension, the local
        piece: the affine map this one agrees with around x, as far as x
        shows it (a ball projection is the identity inside the ball). A
        local piece is a guess, not a certificate: a solve on it must be
        checked against the map itself. None when there is no piece. The
        catalog hands out the same _Piece object while the piece is the
        same, which lets a schedule plan build steps on it; a plain
        (matrix, offset) pair becomes a new piece. This default hands out
        the global form a class set at construction, and the local piece
        from _apply_piece where a class finds it in one pass (overrides
        _apply_piece); a class that does neither has no local piece but its
        global form.
        """
        if x is None or type(self)._apply_piece is Operator._apply_piece:
            form = self._global_form
            return None if form is _UNBUILT else form
        return self._apply_piece(self._check_arg(x))[1]

    def _piece(self, x) -> _Piece | None:
        """The global form when there is one, else the local piece at x (None for x None)."""
        form = self.affine_parts()
        if form is None and x is not None:
            return _as_piece(self.affine_piece(x), False)
        return form

    def _apply_piece(self, x: np.ndarray) -> tuple[np.ndarray, _Piece | None]:
        """(T(x), _piece(x)) on a checked vector: _apply's bits, and the piece _piece gives.

        This default evaluates the map and asks for its piece apart; a class
        that overrides neither hook has no local piece, only its global
        form. A class that finds its local piece by evaluating itself (a
        ball's distance, a composite's walk through its operators) computes
        both in one pass here, and the default affine_piece(x) answers from
        that pass.
        """
        if type(self).affine_piece is Operator.affine_piece:
            return self._apply(x), self.affine_parts()
        return self._apply(x), self._piece(x)

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
        """The spec make_operator builds this map from, written back from its kind's row of _SPEC_BUILDERS."""
        if self.kind not in _SPEC_BUILDERS:
            raise InvalidSpec(f"'{self.kind}' operator has no serializable spec")
        return _spec_of(self, _SPEC_BUILDERS)

    def _check_arg(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"operator of dimension {self.dim} applied to vector of shape {x.shape}"
            )
        return x

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} class={self.declared_class.kind}>"


def _stacked_product(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """matrix @ points[i] for each row, or matrix[i] @ points[i] for a stack of n matrices.

    np.matmul takes one matrix-vector product per row, with the bits of
    matrix @ point on that row alone; points @ matrix.T is one matrix
    product, whose rows differ from those in their last bits.
    """
    return np.matmul(matrix, points[..., None])[..., 0]


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """rows[i] . other[i] for each row of an (n, d) array, or rows[i] . other for a vector.

    np.matmul takes one dot product per row, with the bits of np.dot on that
    row alone (rows @ other is one product whose rows differ). It flags an
    overflow that np.dot does not, so that flag is silenced.
    """
    with np.errstate(over="ignore"):
        return np.matmul(rows[:, None, :], other[..., None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """||rows[i]|| for each row, with space.norm's bits row by row."""
    return np.sqrt(_row_dots(rows, rows))


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
        self._global_form = _Piece(self.matrix, np.zeros(self.dim), True)

    def _apply(self, x):
        return self.matrix @ x if x.ndim == 1 else _stacked_product(self.matrix, x)


class AffineOperator(Operator):
    """x -> M x + c.

    Without a declared class the class comes from the spectral norm
    ||M||_2. matrix_norm is the bound on ||M||_2 that picard_solve reads
    to decide whether it may lift, and holds:

    * ||M||_2, for a map built without a declared class and for a blend
      that blend() collapsed: one SVD, or the norm of a planned collapse
      from the schedule plan's batched SVD, which has the same bits;
    * the blend's declared modulus q_n, for the affine piece of a blend
      that a solver's step solves (see schemes._Stepper.step);
    * otherwise None: a map built with a declared class, which picard_solve
      gives one SVD.
    """

    kind = "affine"

    def __init__(self, matrix, offset, declared_class: DeclaredClass | None = None):
        matrix = _square_matrix(matrix)
        offset = as_vector(offset)
        if offset.shape[0] != matrix.shape[0]:
            raise InvalidSpec("affine offset dimension does not match the matrix")
        _affine(_Piece(matrix, offset, True), declared_class, None, self)

    def _apply(self, x):
        return (self.matrix @ x if x.ndim == 1 else _stacked_product(self.matrix, x)) + self.offset


def _affine(piece: _Piece, declared_class: DeclaredClass | None, matrix_norm: float | None, op=None) -> AffineOperator:
    """The AffineOperator whose global form is piece, on its arrays, with no copy.

    declared_class is as for AffineOperator; without one the class comes
    from matrix_norm (see AffineOperator), or from one SVD when that is
    None. op, when given, is the instance to set up. A solver's local piece
    is taken as it is: its everywhere flag still tells about the map it was
    asked of, and the operator is only solved.
    """
    op = AffineOperator.__new__(AffineOperator) if op is None else op
    op._global_form = piece
    op.matrix, op.offset = piece.matrix, piece.offset
    if declared_class is None:
        if matrix_norm is None:
            matrix_norm = spectral_norm(piece.matrix)
        declared_class = _class_from_bound(matrix_norm)
    # Operator.__init__'s check is redundant: a piece's matrix is square and
    # nonempty, as AffineOperator checks its argument and every other piece
    # comes from operators.
    op.matrix_norm, op.dim, op.declared_class = matrix_norm, piece.matrix.shape[0], declared_class
    return op


class Identity(Operator):
    kind = "identity"

    def __init__(self, dim: int):
        super().__init__(dim, ISOMETRY)

    def _apply(self, x):
        return x.copy()

    def affine_piece(self, x=None):
        return _Piece(np.eye(self.dim), np.zeros(self.dim), True)


class Negation(Operator):
    kind = "negation"

    def __init__(self, dim: int):
        super().__init__(dim, NONEXPANSIVE)

    def _apply(self, x):
        return -x

    def affine_piece(self, x=None):
        return _Piece(-np.eye(self.dim), np.zeros(self.dim), True)


class ConstantOperator(Operator):
    """x -> value, a contraction with modulus 0."""

    kind = "constant"

    def __init__(self, value):
        self.value = as_vector(value)
        super().__init__(self.value.shape[0], contraction(0.0))

    def _apply(self, x):
        return self.value.copy() if x.ndim == 1 else np.tile(self.value, (len(x), 1))

    def affine_piece(self, x=None):
        return _Piece(np.zeros((self.dim, self.dim)), self.value, True)


class BallProjection(Operator):
    """Metric projection onto the closed ball B(center, radius)."""

    kind = "projection_ball"

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise InvalidSpec("ball radius must be positive")
        super().__init__(self.center.shape[0], NONEXPANSIVE)
        self._interior = _Piece(np.eye(self.dim), np.zeros(self.dim), False)

    def _apply(self, x):
        if x.ndim == 1:
            return self._apply_piece(x)[0]
        shifted = x - self.center
        dist = _row_norms(shifted)
        # A NaN distance is outside, as in _apply_piece.
        outside = ~(dist <= self.radius)
        out = x.copy()
        out[outside] = self.center + shifted[outside] * (self.radius / dist[outside])[:, None]
        return out

    def _apply_piece(self, x):
        """The projection, with the identity piece inside the closed ball and none outside, from one distance."""
        shifted = x - self.center
        dist = math.sqrt(shifted.dot(shifted))
        if dist <= self.radius:
            return x.copy(), self._interior
        return self.center + shifted * (self.radius / dist), None


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


class PlaneRotation(Operator):
    """Rotation by a fixed angle in the coordinate plane (i, j)."""

    kind = "rotation"

    def __init__(self, dim: int, plane: tuple[int, int], angle: float):
        super().__init__(dim, ISOMETRY)
        if np.ndim(plane) != 1 or len(plane) != 2:
            raise InvalidSpec("rotation plane must be a pair of coordinate indices")
        i, j = int(plane[0]), int(plane[1])
        if i == j or not (0 <= i < self.dim) or not (0 <= j < self.dim):
            raise InvalidSpec(f"rotation plane {plane} invalid for dimension {self.dim}")
        self.plane = (i, j)
        self.angle = float(angle)
        self._cos_sin = (math.cos(self.angle), math.sin(self.angle))

    def _apply(self, x):
        out = x.copy()
        i, j = self.plane
        c, s = self._cos_sin
        if x.ndim == 1:
            # A vector's two coordinates as floats: the array path costs six times as much on one vector.
            xi, xj = x.item(i), x.item(j)
            out[i] = c * xi - s * xj
            out[j] = s * xi + c * xj
        else:
            xi, xj = x[:, i], x[:, j]
            out[:, i] = c * xi - s * xj
            out[:, j] = s * xi + c * xj
        return out

    def affine_piece(self, x=None):
        m = np.eye(self.dim)
        i, j = self.plane
        c, s = self._cos_sin
        m[i, i] = c
        m[i, j] = -s
        m[j, i] = s
        m[j, j] = c
        return _Piece(m, np.zeros(self.dim), True)


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

    def _apply_piece(self, x):
        inner, piece = self.inner_op._apply_piece(x)
        return (1.0 - self.lam) * x + self.lam * inner, _kept(self, (piece,), self._average)

    def affine_piece(self, x=None):
        """((1 - lam) I + lam M, lam c) for the inner map's global form (M, c), kept as a composite's is."""
        if x is not None:
            return super().affine_piece(x)
        return _kept(self, (self.inner_op.affine_parts(),), self._average)

    def _average(self, pieces, dim):
        ((m, c),) = pieces
        return (1.0 - self.lam) * np.eye(dim) + self.lam * m, self.lam * c


def _walk(op, operators, x):
    """(the value, op's piece) for op the operators applied in order from x, in one pass.

    Each operator's value is the next one's point, and op's piece is the
    composition of each operator's piece at the point it receives, kept as
    _kept keeps it.
    """
    pieces = []
    for child in operators:
        x, piece = child._apply_piece(x)
        pieces.append(piece)
    return x, _kept(op, pieces, _compose)


def _compose(pieces, dim: int):
    """(M, c) of the pieces' maps applied in order, the first first.

    It starts from the first piece, not from (I, 0), and is (I, 0) for no
    pieces; a single piece comes back as it was given.
    """
    if not pieces:
        return np.eye(dim), np.zeros(dim)
    m, c = pieces[0]
    for mk, ck in pieces[1:]:
        m, c = mk @ m, mk @ c + ck
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

    def _apply_piece(self, x):
        return _walk(self, self.operators, x)

    def affine_piece(self, x=None):
        """The composition of the operators' global forms.

        A local piece composes each operator's piece at the point it
        receives, from one pass (_walk). The same piece comes back while
        every operator's piece is the same object as at the last call (see
        _kept): inside its ball, rotation ∘ ball has one piece object.
        """
        if x is not None:
            return super().affine_piece(x)
        return _kept(self, (op.affine_parts() for op in self.operators), _compose)


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

    def _apply_piece(self, x):
        # The copy makes n = 0's value fresh, as _apply's is.
        return _walk(self, (self.base,) * self.n, x.copy())

    def affine_piece(self, x=None):
        """The composition of n copies of the base's global form, kept as a composite's is; a local one
        composes the base's pieces at x and its next n - 1 iterates. For n = 0 the empty composition
        (I, 0), which holds everywhere."""
        if x is not None:
            return super().affine_piece(x)
        return _kept(self, [self.base.affine_parts()] * self.n, _compose)


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
        # Operator.__init__'s check is redundant: first.dim is an operator's, checked when it was built.
        self.dim, self.declared_class = first.dim, declared

    def _apply(self, x):
        return self.a * self.first._apply(x) + self.b * self.second._apply(x)

    def _apply_piece(self, x, parts=None):
        """(g(x), g's piece at x) from one pass over the maps at x, T evaluated with its piece.

        parts, when given, is (S(x), T(x), T's piece at x) from a pass at x
        made already, such as a solver's certificate at its last point (see
        schemes._Stepper._certify), and neither map is evaluated again. g's
        piece is built from T's piece and S's, kept as a composite's is, and
        is None where T has none: S is asked for its piece (S._piece, which
        costs nothing for a global form) only when T has one.
        """
        first, second, piece = parts or (self.first._apply(x), *self.second._apply_piece(x))
        if piece is not None:
            piece = _kept(self, (piece, self.first._piece(x)), self._blend)
        return self.a * first + self.b * second, piece

    def affine_piece(self, x=None):
        """(a M_S + b M_T, a c_S + b c_T) for the maps' pieces, kept as a composite's is.

        The second map (a solve's target) is the one that may have no
        piece, so it is asked first and the first map's piece is not built.
        """
        second = self.second._piece(x)
        return None if second is None else _kept(self, (second, self.first._piece(x)), self._blend)

    def _blend(self, pieces, dim):
        second, first = pieces
        return _blend_form(self.a, first, self.b, second)


def _blend_form(a, first: _Piece, b, second: _Piece):
    """(a M_S + b M_T, a c_S + b c_T): the affine form of x -> a S(x) + b T(x).

    first and second are the pieces (M_S, c_S) and (M_T, c_T). a and b are
    floats, or arrays of n weights for n blends at once, whose forms are
    then stacked, (n, d, d) and (n, d), or shared by all n. Either way
    each entry takes the same products and sum, so a blend has the same
    bits alone and in a stack. An overflow shows as a non-finite entry,
    which the piece built from the form rejects, not as a warning.
    """
    ms, cs, mt, ct = first.matrix, first.offset, second.matrix, second.offset
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(a, np.ndarray) and a.ndim:
            return a[:, None, None] * ms + b[:, None, None] * mt, a[:, None] * cs + b[:, None] * ct
        return a * ms + b * mt, a * cs + b * ct


class FunctionOperator(Operator):
    """Arbitrary callable with a caller-supplied Lipschitz class (not serializable)."""

    kind = "function"

    def __init__(self, func, dim: int, declared_class: DeclaredClass = UNKNOWN, name: str = "function"):
        super().__init__(dim, declared_class)
        self.func = func
        self.name = name

    def _apply(self, x):
        if x.ndim == 1:
            # The callable is outside code, so its output shape is checked on every call.
            y = np.asarray(self.func(x), dtype=float)
            if y.shape != (self.dim,):
                raise DimensionMismatch(f"callable '{self.name}' returned shape {y.shape}")
            return y
        # The callable takes vectors, so a stack is applied row by row.
        return np.array([self._apply(row) for row in x], dtype=float).reshape(x.shape)


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

    def _apply_piece(self, x):
        return self.wrapped._apply_piece(x)

    def affine_piece(self, x=None):
        return self.wrapped._piece(x)

    def to_spec(self):
        return self.wrapped.to_spec()


def blend(a: float, first: Operator, b: float, second: Operator, collapse: _Piece | None = None) -> Operator:
    """a*S + b*T as an operator, collapsed to a single affine map when possible.

    The collapse keeps inner Picard loops cheap and lets the affine
    constructor declare the sharp contraction modulus ||a M_S + b M_T||.
    Collapsed here, the global piece is built from S's and T's (a blend
    whose weights overflow it raises InvalidSpec) and the modulus takes one
    SVD. A caller that has collapsed this very blend (a schedule plan)
    passes its global piece as collapse, with the modulus as its norm, and
    blend() only wraps it in an AffineOperator.
    """
    if first.dim != second.dim:
        raise DimensionMismatch("blend mixes operators of different dimensions")
    if collapse is None:
        ps, pt = first.affine_parts(), second.affine_parts()
        if ps is None or pt is None:
            # Its global form is known to be None, which picard_solve asks for.
            g = BlendOperator(a, first, b, second)
            g._global_form = None
            return g
        collapse = _Piece(*_blend_form(a, ps, b, pt), True)
    return _affine(collapse, None, collapse.norm)


# ---------------------------------------------------------------------------
# Serialized specs
#
# One row per kind declares its constructor and the fields it takes, each
# with a type. _build_spec checks and builds every spec from its row, and
# _spec_of writes every spec back from it: make_operator and to_spec here,
# make_family and the families' to_spec in semigroup.


def _numbers_only(value) -> bool:
    """Whether value is a number or nested lists of numbers; a bool or a string is not a number."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        # A row of plain numbers, as json.load makes them, is passed at once.
        return set(map(type, value)) <= {int, float} or all(map(_numbers_only, value))
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _listed(value) -> bool:
    return isinstance(value, (list, tuple))


def _flat_list(value) -> bool:
    return _listed(value) and not any(map(_listed, value))


def _all_whole(value) -> bool:
    """Whether each number in value is whole: 2.0 is one, 2.5 is not."""
    return all(isinstance(v, (int, np.integer)) or float(v).is_integer() for v in np.ravel(value))


def _given(value, *_):
    return value


def _keyed_operators(table: dict, where: str, field: str) -> dict:
    """A number-keyed table of operator specs as {index: operator}, built entry by entry.

    Each key must parse to a finite number, and no two keys to the same one
    (such as "1" and "1.0"); the message names where, as the field checks do.
    """
    built, keys = {}, {}
    for key, spec in table.items():
        try:
            index = float(key)
        except (TypeError, ValueError):
            index = math.nan
        if not math.isfinite(index):
            raise InvalidSpec(f"{where} needs finite numbers as '{field}' keys, got {key!r}")
        if index in keys:
            raise InvalidSpec(f"{where} has '{field}' keys {keys[index]!r} and {key!r} for the same index {index!r}")
        keys[index] = key
        built[index] = make_operator(spec)
    return built


class _SpecType(NamedTuple):
    """The type of a spec field: how its value is checked, built and written back.

    checks are (test, phrase) pairs, taken in turn: the first test the value
    fails raises "<operator|family> spec of kind '<kind>' needs <phrase> in
    '<field>'". load(value, where, field), where that message's start, makes
    a value that passed them the constructor's argument. dump makes the
    attribute the constructor set the field's value again; None for a type
    that no serializable kind has.
    """

    name: str
    checks: tuple
    load: Callable
    dump: Callable | None


_NUMBERS = ((_numbers_only, "numbers"),)
_WHOLE_NUMBERS = _NUMBERS + ((_all_whole, "whole numbers"),)
_NUMBER = _SpecType("number", _NUMBERS, _given, _given)
_VECTOR = _SpecType("vector", _NUMBERS, _given, np.ndarray.tolist)
_MATRIX = _SpecType("matrix", _NUMBERS, _given, np.ndarray.tolist)
_WHOLE = _SpecType("whole number", _WHOLE_NUMBERS, _given, _given)
_INDEX_PAIR = _SpecType("index pair", _WHOLE_NUMBERS, _given, list)
_NUMBER_LIST = _SpecType("number list", ((_flat_list, "a list of numbers"),) + _NUMBERS, _given, list)
_SPEC = _SpecType("nested spec", (), lambda spec, *_: make_operator(spec), operator.methodcaller("to_spec"))
_SPEC_LIST = _SpecType("spec list", ((_listed, "a list of operator specs"),),
                       lambda specs, *_: list(map(make_operator, specs)), lambda ops: [op.to_spec() for op in ops])
_TABLE = _SpecType("number-keyed table", ((lambda value: isinstance(value, dict), "an object of operator specs"),),
                   _keyed_operators, None)

#: kind -> (constructor, the spec's fields in the order the constructor takes
#: them), each field (name, type), or (name, type, attribute) when the
#: attribute the constructor sets from it has another name.
_SPEC_BUILDERS = {
    "linear": (LinearOperator, (("matrix", _MATRIX),)),
    "affine": (AffineOperator, (("matrix", _MATRIX), ("offset", _VECTOR))),
    "identity": (Identity, (("dim", _WHOLE),)),
    "negation": (Negation, (("dim", _WHOLE),)),
    "constant": (ConstantOperator, (("value", _VECTOR),)),
    "projection_ball": (BallProjection, (("center", _VECTOR), ("radius", _NUMBER))),
    "projection_box": (BoxProjection, (("lower", _VECTOR), ("upper", _VECTOR))),
    "rotation": (PlaneRotation, (("dim", _WHOLE), ("plane", _INDEX_PAIR), ("angle", _NUMBER))),
    "averaged": (AveragedOperator, (("inner", _SPEC, "inner_op"), ("lambda", _NUMBER, "lam"))),
    "composite": (CompositeOperator, (("operators", _SPEC_LIST),)),
    "iterated": (IteratedOperator, (("base", _SPEC), ("n", _WHOLE))),
}


def _build_spec(what: str, rows: dict, spec):
    """The operator or family (what) that spec's row of rows builds.

    The first failing check raises InvalidSpec, in this order: spec is an
    object; its kind is a row; each field of the row is present; each
    field's value passes its type's checks and loads, in row order, nested
    specs built depth-first. Then the constructor runs. A TypeError or
    ValueError in the last two, such as a wrong shape, reads "malformed
    '<kind>' spec: ...". Keys outside the row are ignored.
    """
    if not isinstance(spec, dict):
        raise InvalidSpec(f"{what} spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in rows:
        raise InvalidSpec(f"unknown {what} kind '{kind}' (known: {', '.join(sorted(rows))})")
    build, fields = rows[kind]
    where = f"{what} spec of kind '{kind}'"
    for name, *_ in fields:
        if name not in spec:
            raise InvalidSpec(f"{where} is missing '{name}'")
    try:
        args = []
        for name, field_type, *_ in fields:
            value = spec[name]
            for test, phrase in field_type.checks:
                if not test(value):
                    raise InvalidSpec(f"{where} needs {phrase} in '{name}'")
            args.append(field_type.load(value, where, name))
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed '{kind}' spec: {exc}") from exc


def _spec_of(obj, rows: dict) -> dict:
    """obj's spec: each field of its kind's row written back from the attribute it set."""
    spec = {"kind": obj.kind}
    for name, field_type, *attribute in rows[obj.kind][1]:
        spec[name] = field_type.dump(getattr(obj, attribute[0] if attribute else name))
    return spec


def make_operator(spec: dict) -> Operator:
    """Build a cataloged operator from its serialized (JSON-style) spec, by its kind's row of _SPEC_BUILDERS.

    A field that is not a nested spec must hold numbers: a string or a bool
    in it raises InvalidSpec naming the field, as does a fraction in a field
    that counts or indexes.
    """
    return _build_spec("operator", _SPEC_BUILDERS, spec)


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
    that overflows on finite values is yielded as it is. An affine T's
    values overflow without numpy's warnings, as in picard_solve; any other
    map, outside code included, keeps its warnings.
    """
    affine = T.affine_parts() is not None
    rng = make_rng(seed)
    for _ in range(n_samples):
        x = sample_ball(rng, T.dim, radius)
        y = sample_ball(rng, T.dim, radius)
        while np.array_equal(x, y):
            y = sample_ball(rng, T.dim, radius)
        with np.errstate(over="ignore", invalid="ignore") if affine else contextlib.nullcontext():
            tx, ty = T._apply(x), T._apply(y)
            image = tx - ty
            spread = math.sqrt(image.dot(image))
        gap = x - y
        ratio = spread / math.sqrt(gap.dot(gap))
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


def _probed_class(T: Operator, probe) -> DeclaredClass:
    """The class probe(T) finds for T, probed once per operator object.

    probe returns the class T earns, or the error that says it earns none;
    an error it raises instead (a non-finite value) is not kept. The
    outcome is kept on T under probe, as affine_parts keeps T's global
    form, and every later ask takes it without a probe, whoever asks: the
    class, or a new error of the kept one's type and message. T keeps a
    class, not a wrapper around itself, so it holds no reference cycle.
    """
    kept = T._probed
    if kept is None:
        kept = T._probed = {}
    if probe not in kept:
        kept[probe] = probe(T)
    outcome = kept[probe]
    if isinstance(outcome, ViscofixError):
        raise type(outcome)(*outcome.args)
    return outcome


# ---------------------------------------------------------------------------
# Norm-attainment certification


@dataclass(frozen=True)
class NACertificate:
    """Certificate that a unit vector attains the operator norm of a linear map.

    sigma = ||S vector|| <= ||S||_2 <= sigma + residual; residual is inf when
    no upper bound was proved. iterations counts this package's own steps
    toward the vector: 0, since one eigensolver call finds it.
    """

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


#: Unit roundoff of float64.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
#: Width of the bracket [sigma, t], in Cholesky shifts k: B's smallest
#: eigenvalue is then about 3 k sigma, so the factorization succeeds even when
#: its rounding reaches the worst case the shift covers.
_BRACKET_SHIFTS = 4


def _certify(matrix: np.ndarray, v: np.ndarray) -> NACertificate:
    """Bracket ||S||_2 between ||S v|| and an upper bound t that a Cholesky factorization proves.

    v is any unit vector, however it was found, so sigma = ||S v|| is a lower
    bound (up to the rounding of S v). The symmetric block matrix
    A(t) = [[t I, S^T], [S, t I]] of order n = 2d has the eigenvalues
    t +- sigma_i(S), so it is positive definite exactly when t > ||S||_2; it
    holds S itself, so no rounding of S^T S enters. A floating-point Cholesky
    factorization of a symmetric B that runs to completion is exact for B + E,
    |E| <= a d d^T with d_i = sqrt(b_ii), a = g / (1 - g) and
    g = (n + 1) u / (1 - (n + 1) u) (Demmel's bound; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 10.1), so
    ||E||_2 <= a trace(B). B is A(t) shifted down by k t, with k = n a + 3 u
    covering that trace and the rounding of the shifted diagonal s; if B
    factors, A(t) is positive definite (Rump's test, BIT 46 (2006) 433-452)
    and ||S||_2 < t. The analysis assumes no underflow or overflow, which
    entries of S below 1 in magnitude, as certify_norm_attainable passes,
    keep clear of.

    residual is the width t - sigma of the bracket, or inf when the
    factorization fails.
    """
    d = matrix.shape[0]
    sigma = norm(matrix @ v)
    g = (2 * d + 1) * _UNIT_ROUNDOFF / (1.0 - (2 * d + 1) * _UNIT_ROUNDOFF)
    k = 2 * d * g / (1.0 - g) + 3 * _UNIT_ROUNDOFF
    # The smallest normal number keeps t positive when S v = 0.
    t = sigma * (1.0 + _BRACKET_SHIFTS * k) + float(np.finfo(float).tiny)
    block = np.zeros((2 * d, 2 * d))
    block[d:, :d] = matrix
    block[:d, d:] = matrix.T
    np.fill_diagonal(block, t * (1.0 - k))
    try:
        np.linalg.cholesky(block)
        residual = t - sigma
    except np.linalg.LinAlgError:
        residual = math.inf
    return NACertificate(sigma=sigma, vector=as_vector(v), residual=residual, iterations=0)


def operator_norm(S: Operator) -> tuple[float, np.ndarray]:
    """Operator norm of a linear map together with a maximizing unit vector, as certified."""
    cert = certify_norm_attainable(S)
    return cert.sigma, cert.vector


def certify_norm_attainable(S: Operator) -> NACertificate:
    """Certify that S attains its operator norm at a concrete unit vector.

    The vector is the top eigenvector of S^T S from LAPACK's symmetric
    eigensolver; _certify bounds the norm on both sides of ||S x|| without
    relying on how it was found. Both work on S scaled by a power of two,
    which is exact, to entries below 1 in magnitude: S^T S then neither
    overflows nor underflows.

    Scaling the bracket back is exact unless it leaves the normal float
    range, so its ends are rounded outward: sigma down, as a subnormal
    result can round up, and sigma + residual up, as one can round down
    (to 0 for a residual). An upper end past the float range is inf, like
    a bound not proved. Raises OverflowError when sigma itself, and so
    ||S||_2, lies past the float range.
    """
    matrix = S.linear_matrix()
    exponent = math.frexp(float(np.abs(matrix).max()))[1]
    scaled = np.ldexp(matrix, -exponent)
    _, vectors = np.linalg.eigh(scaled.T @ scaled)
    cert = _certify(scaled, vectors[:, -1])
    try:
        sigma = _scaled_back(cert.sigma, exponent, -math.inf)
    except OverflowError:
        raise OverflowError(
            f"operator norm lies past the float range (at least {cert.sigma!r} * 2**{exponent})"
        ) from None
    # The scaled ends are sigma and t, whose difference _certify took exactly (Sterbenz).
    upper = _scaled_back(cert.sigma + cert.residual, exponent, math.inf)
    residual = upper - sigma
    if sigma + residual < upper:
        residual = math.nextafter(residual, math.inf)
    return NACertificate(sigma=sigma, vector=cert.vector, residual=residual, iterations=cert.iterations)


def _scaled_back(value: float, exponent: int, toward: float) -> float:
    """value * 2**exponent, rounded toward -inf or inf; inf past the float range toward inf.

    ldexp rounds to nearest only where the result is subnormal, and there
    scaling it up again is exact, which tells the way it rounded.
    """
    try:
        result = math.ldexp(value, exponent)
    except OverflowError:
        if toward > 0:
            return math.inf
        raise
    back = math.ldexp(result, -exponent)
    rounded_against = back < value if toward > 0 else back > value
    return math.nextafter(result, toward) if rounded_against else result


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

    The right singular vectors of one SVD whose singular values are at most
    tol, those past the row count included, so every returned b has
    ||matrix b|| <= tol up to the SVD's rounding (about eps ||matrix||). A
    non-finite entry raises ValueError.
    """
    r = np.asarray(matrix, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("matrix has non-finite entries")
    _, singular, vt = np.linalg.svd(r)
    return [v.copy() for v in vt[np.count_nonzero(singular > tol):]]


def _common_fixed_set(dim: int, matrices, tol: float) -> FixedPointSet:
    """The common fixed points of linear maps: the null space of the stacked blocks I - M."""
    eye = np.eye(dim)
    basis = nullspace_basis(np.vstack([eye - m for m in matrices]), tol)
    return FixedPointSet(dim=dim, basis=tuple(as_vector(b) for b in basis), tol_used=float(tol))


def fixed_points_linear(T: Operator, tol: float = DEFAULT_POLICY.abs_tol) -> FixedPointSet:
    """Orthonormal basis of Fix(T) = null(I - T) for a linear map T."""
    return _common_fixed_set(T.dim, [T.linear_matrix()], tol)
