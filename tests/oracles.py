"""Hand-built oracles the tests check the library against.

Everything here is deliberately independent of the package internals: the
singular-value oracle goes through the characteristic polynomial and
bisection, the closed forms are worked out on paper, the rank oracle
enumerates minors, and the exact step solution is rational arithmetic.
Slow is fine; these only run at test scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def _rank_two_d6() -> list:
    """u u^T + 3 w w^T, u the unit all-ones vector and w orthogonal to it: norm 3."""
    u = np.ones(6) / math.sqrt(6.0)
    w = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
    return (np.outer(u, u) + 3.0 * np.outer(w, w)).tolist()


#: Symmetric matrices with their norms, worked on paper, where the all-ones
#: vector spans an invariant subspace below the norm (||S 1|| / ||1|| is 1).
ALL_ONES_FALLS_SHORT = {
    "two-by-two": ([[2.5, -1.5], [-1.5, 2.5]], 4.0),
    "rank-two-d6": (_rank_two_d6(), 3.0),
}


def bisect_increasing(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing function with fn(lo) < 0 < fn(hi)."""
    if not fn(lo) < 0.0 < fn(hi):
        raise ValueError("bisection bracket does not straddle a sign change")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _charpoly_coeffs(gram: np.ndarray) -> list[float]:
    """Monic characteristic polynomial coefficients for symmetric gram, d <= 3."""
    d = gram.shape[0]
    if d == 1:
        return [1.0, -gram[0, 0]]
    if d == 2:
        tr = gram[0, 0] + gram[1, 1]
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        return [1.0, -tr, det]
    if d == 3:
        tr = gram[0, 0] + gram[1, 1] + gram[2, 2]
        minors = (
            gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
            + gram[0, 0] * gram[2, 2] - gram[0, 2] * gram[2, 0]
            + gram[1, 1] * gram[2, 2] - gram[1, 2] * gram[2, 1]
        )
        det = (
            gram[0, 0] * (gram[1, 1] * gram[2, 2] - gram[1, 2] * gram[2, 1])
            - gram[0, 1] * (gram[1, 0] * gram[2, 2] - gram[1, 2] * gram[2, 0])
            + gram[0, 2] * (gram[1, 0] * gram[2, 1] - gram[1, 1] * gram[2, 0])
        )
        return [1.0, -tr, minors, -det]
    raise ValueError("characteristic-polynomial oracle only covers d <= 3")


def _beyond_largest_root(coeffs: list[float], x: float) -> bool:
    # For a monic polynomial with only real roots, x exceeds every root
    # exactly when the polynomial and all its derivatives are positive at x.
    poly = list(coeffs)
    while len(poly) > 1:
        value = 0.0
        for c in poly:
            value = value * x + c
        if value <= 0.0:
            return False
        degree = len(poly) - 1
        poly = [c * (degree - i) for i, c in enumerate(poly[:-1])]
    return True


def charpoly_sigma(matrix) -> float:
    """Largest singular value of a d <= 3 matrix via its gram characteristic
    polynomial and bisection. No eigenvalue routine, no power iteration."""
    m = np.asarray(matrix, dtype=float)
    gram = m.T @ m
    coeffs = _charpoly_coeffs(gram)
    lo = 0.0
    hi = 1.0 + max(abs(c) for c in coeffs)
    for _ in range(160):
        mid = 0.5 * (lo + hi)
        if _beyond_largest_root(coeffs, mid):
            hi = mid
        else:
            lo = mid
    return math.sqrt(hi)


def rotation_step_oracle(eps: float) -> np.ndarray:
    """Exact solution of ((1 - eps/2) I - (1 - eps) R) xi = eps (1, 0)
    for R the rotation by 1 radian; solved by the hand 2x2 inverse of a
    matrix of the form [[a, c], [-c, a]]."""
    a = 1.0 - 0.5 * eps - (1.0 - eps) * math.cos(1.0)
    c = (1.0 - eps) * math.sin(1.0)
    scale = eps / (a * a + c * c)
    return np.array([scale * a, scale * c])


def ball_iterate_oracle(eps: float) -> np.ndarray:
    """Implicit iterate for the unit-ball projection with forcing (2, 0)."""
    return np.array([1.0 + eps, 0.0])


def scalar_iterate_oracle(n: int) -> float:
    """Anchored iterate for T = -x with anchor 1: xi_n (2 - 1/n) = 1/n."""
    return 1.0 / (2 * n - 1)


def exact_affine_step(a: float, forcing, b: float, target) -> list[Fraction]:
    """The exact solution of x = a (M_f x + c_f) + b (M_T x + c_T), as Fractions.

    forcing and target are the (matrix, offset) pairs of two affine maps.
    Every float, a and b included, is read exactly, and the system
    (I - a M_f - b M_T) x = a c_f + b c_T is solved by Gauss-Jordan
    elimination in rationals, so the answer has no rounding at all.
    """
    (mf, cf), (mt, ct) = forcing, target
    a, b = Fraction(a), Fraction(b)
    d = len(cf)
    rows = [
        [Fraction(int(i == j)) - a * Fraction(float(mf[i][j])) - b * Fraction(float(mt[i][j])) for j in range(d)]
        + [a * Fraction(float(cf[i])) + b * Fraction(float(ct[i]))]
        for i in range(d)
    ]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [value / lead for value in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [value - factor * top for value, top in zip(rows[r], rows[col])]
    return [row[d] for row in rows]


def exact_squared_distance(point, exact: list[Fraction]) -> Fraction:
    """||point - exact||^2 with point's floats read exactly."""
    return sum((Fraction(float(x)) - e) ** 2 for x, e in zip(point, exact))


def _det(m: np.ndarray) -> float:
    d = m.shape[0]
    if d == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(d):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * float(m[0, j]) * _det(minor)
    return total


def brute_force_nullity(matrix, tol: float = 1e-8) -> int:
    """Nullity via the largest nonvanishing minor; only sane for d <= 4."""
    m = np.asarray(matrix, dtype=float)
    nrows, ncols = m.shape
    for size in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                if abs(_det(m[np.ix_(rows, cols)])) > tol:
                    return ncols - size
    return ncols


# ---------------------------------------------------------------------------
# Spec corpus: specs that make_operator and make_family accept, and specs
# they reject, each with the message worked out from the spec rules (see the
# README's spec section). tools/same_bits.py records the same corpus.

_TURN = {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.5}
_BALL = {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0}
_ID2 = {"kind": "identity", "dim": 2}
_NEG2 = {"kind": "negation", "dim": 2}

#: One spec of each operator kind, then nested ones; each is its own to_spec().
ACCEPTED_OPERATOR_SPECS = [
    {"kind": "linear", "matrix": [[0.5, 0.25], [0.0, 0.5]]},
    {"kind": "affine", "matrix": [[0.5, 0.0], [0.25, 0.5]], "offset": [1.0, -2.0]},
    {"kind": "identity", "dim": 3},
    {"kind": "negation", "dim": 2},
    {"kind": "constant", "value": [2.0, -1.0]},
    {"kind": "projection_ball", "center": [0.5, 0.0], "radius": 1.5},
    {"kind": "projection_box", "lower": [-1.0, 0.0, -2.0], "upper": [1.0, 0.5, 2.0]},
    {"kind": "rotation", "dim": 3, "plane": [2, 0], "angle": -0.75},
    {"kind": "averaged", "inner": _NEG2, "lambda": 0.25},
    {"kind": "composite", "operators": [_TURN, _BALL]},
    {"kind": "iterated", "base": _TURN, "n": 3},
    {"kind": "iterated", "base": _NEG2, "n": 0},
    {"kind": "averaged", "inner": {"kind": "composite", "operators": [_TURN, _BALL]}, "lambda": 0.5},
    {"kind": "composite", "operators": [
        {"kind": "iterated", "base": {"kind": "averaged", "inner": _TURN, "lambda": 1.0}, "n": 2}, _NEG2,
    ]},
]

#: Family specs make_family accepts: a custom family has no to_spec, the others are their own.
ACCEPTED_FAMILY_SPECS = [
    {"kind": "power", "base": _TURN},
    {"kind": "power", "base": {"kind": "composite", "operators": [_TURN, _BALL]}},
    {"kind": "rotation_flow", "rates": [1.0, -0.5], "grid": [0.0, 0.5, 1.0]},
    {"kind": "custom", "table": {"0": _ID2, "1": _TURN, "2.5": {"kind": "iterated", "base": _TURN, "n": 2}}},
]

_KNOWN = (
    "affine, averaged, composite, constant, identity, iterated, linear, negation, projection_ball, "
    "projection_box, rotation"
)
_KNOWN_FAMILIES = "custom, power, rotation_flow"

#: (id, "operator" or "family", spec, the InvalidSpec message it raises), by field type, then the
#: checks that come before any field's.
REJECTED_SPECS = [
    # number
    ("number-string", "operator", {**_BALL, "radius": "1.0"},
     "operator spec of kind 'projection_ball' needs numbers in 'radius'"),
    ("number-bool", "operator", {"kind": "averaged", "inner": _NEG2, "lambda": True},
     "operator spec of kind 'averaged' needs numbers in 'lambda'"),
    ("number-list", "operator", {**_TURN, "angle": [0.5]},
     "malformed 'rotation' spec: float() argument must be a string or a real number, not 'list'"),
    # vector
    ("vector-string", "operator", {"kind": "constant", "value": "1.0"},
     "operator spec of kind 'constant' needs numbers in 'value'"),
    ("vector-bool", "operator", {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, False]},
     "operator spec of kind 'affine' needs numbers in 'offset'"),
    ("vector-bare-number", "operator", {**_BALL, "center": 1.0},
     "malformed 'projection_ball' spec: expected a 1-D vector with at least one coordinate, got shape ()"),
    # matrix
    ("matrix-string", "operator", {"kind": "linear", "matrix": [["1", 0.0], [0.0, 1.0]]},
     "operator spec of kind 'linear' needs numbers in 'matrix'"),
    ("matrix-bool", "operator", {"kind": "linear", "matrix": [[True, 0.0], [0.0, 1.0]]},
     "operator spec of kind 'linear' needs numbers in 'matrix'"),
    ("matrix-bare-number", "operator", {"kind": "linear", "matrix": 1.0}, "expected a square matrix, got shape ()"),
    # whole number
    ("whole-string", "operator", {"kind": "identity", "dim": "2"},
     "operator spec of kind 'identity' needs numbers in 'dim'"),
    ("whole-bool", "operator", {"kind": "negation", "dim": True},
     "operator spec of kind 'negation' needs numbers in 'dim'"),
    ("whole-fraction", "operator", {"kind": "iterated", "base": _NEG2, "n": 1.5},
     "operator spec of kind 'iterated' needs whole numbers in 'n'"),
    ("whole-infinite", "operator", {"kind": "identity", "dim": math.inf},
     "operator spec of kind 'identity' needs whole numbers in 'dim'"),
    # index pair
    ("pair-string", "operator", {**_TURN, "plane": [0, "1"]},
     "operator spec of kind 'rotation' needs numbers in 'plane'"),
    ("pair-bool", "operator", {**_TURN, "plane": [True, 0]},
     "operator spec of kind 'rotation' needs numbers in 'plane'"),
    ("pair-fraction", "operator", {**_TURN, "plane": [0, 1.5]},
     "operator spec of kind 'rotation' needs whole numbers in 'plane'"),
    ("pair-bare-number", "operator", {**_TURN, "plane": 1}, "rotation plane must be a pair of coordinate indices"),
    # number list
    ("list-string", "family", {"kind": "rotation_flow", "rates": "1.0", "grid": [1.0]},
     "family spec of kind 'rotation_flow' needs a list of numbers in 'rates'"),
    ("list-bool", "family", {"kind": "rotation_flow", "rates": [1.0], "grid": [False, 1.0]},
     "family spec of kind 'rotation_flow' needs numbers in 'grid'"),
    ("list-bare-number", "family", {"kind": "rotation_flow", "rates": [1.0], "grid": 1.0},
     "family spec of kind 'rotation_flow' needs a list of numbers in 'grid'"),
    ("list-nested", "family", {"kind": "rotation_flow", "rates": [[1.0]], "grid": [1.0]},
     "family spec of kind 'rotation_flow' needs a list of numbers in 'rates'"),
    # nested spec
    ("nested-string", "operator", {"kind": "iterated", "base": "negation", "n": 2},
     "operator spec must be an object, got str"),
    ("nested-unknown", "operator", {"kind": "averaged", "inner": {"kind": "teleport"}, "lambda": 0.5},
     f"unknown operator kind 'teleport' (known: {_KNOWN})"),
    ("nested-bad-field", "family", {"kind": "power", "base": {"kind": "identity", "dim": "2"}},
     "operator spec of kind 'identity' needs numbers in 'dim'"),
    # spec list
    ("spec-list-object", "operator", {"kind": "composite", "operators": _ID2},
     "operator spec of kind 'composite' needs a list of operator specs in 'operators'"),
    ("spec-list-bare-number", "operator", {"kind": "composite", "operators": 1.0},
     "operator spec of kind 'composite' needs a list of operator specs in 'operators'"),
    ("spec-list-bad-entry", "operator", {"kind": "composite", "operators": [_ID2, {"kind": "negation"}]},
     "operator spec of kind 'negation' is missing 'dim'"),
    ("spec-list-empty", "operator", {"kind": "composite", "operators": []}, "composite requires at least one operator"),
    # number-keyed table
    ("table-list", "family", {"kind": "custom", "table": [_ID2]},
     "family spec of kind 'custom' needs an object of operator specs in 'table'"),
    ("table-key-string", "family", {"kind": "custom", "table": {"a": _ID2}},
     "family spec of kind 'custom' needs finite numbers as 'table' keys, got 'a'"),
    ("table-key-nan", "family", {"kind": "custom", "table": {"nan": _ID2}},
     "family spec of kind 'custom' needs finite numbers as 'table' keys, got 'nan'"),
    ("table-same-index", "family", {"kind": "custom", "table": {"2": _ID2, "2.0": _NEG2}},
     "family spec of kind 'custom' has 'table' keys '2' and '2.0' for the same index 2.0"),
    ("table-bad-entry", "family", {"kind": "custom", "table": {"1": {**_TURN, "dim": True}}},
     "operator spec of kind 'rotation' needs numbers in 'dim'"),
    # a missing field, reported in row order before any field is checked
    ("missing-operator-field", "operator", {"kind": "rotation", "dim": "2", "angle": 0.5},
     "operator spec of kind 'rotation' is missing 'plane'"),
    ("missing-base", "family", {"kind": "power"},
     "family spec of kind 'power' is missing 'base'"),
    ("missing-grid", "family", {"kind": "rotation_flow", "rates": "1.0"},
     "family spec of kind 'rotation_flow' is missing 'grid'"),
    ("missing-table", "family", {"kind": "custom"},
     "family spec of kind 'custom' is missing 'table'"),
    # an unknown kind
    ("unknown-operator", "operator", {"kind": "teleport", "dim": 2},
     f"unknown operator kind 'teleport' (known: {_KNOWN})"),
    ("no-operator-kind", "operator", {"dim": 2}, f"unknown operator kind 'None' (known: {_KNOWN})"),
    ("unknown-family", "family", {"kind": "spiral"}, f"unknown family kind 'spiral' (known: {_KNOWN_FAMILIES})"),
    ("list-operator-kind", "operator", {"kind": ["linear"]}, f"unknown operator kind '['linear']' (known: {_KNOWN})"),
    ("list-family-kind", "family", {"kind": ["power"]}, f"unknown family kind '['power']' (known: {_KNOWN_FAMILIES})"),
    # a spec that is not an object
    ("operator-not-object", "operator", ["kind", "identity"], "operator spec must be an object, got list"),
    ("family-not-object", "family", "power", "family spec must be an object, got str"),
]
