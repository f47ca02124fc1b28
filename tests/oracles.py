"""Hand-built oracles the tests check the library against.

Everything here is deliberately independent of the package internals: the
singular-value oracle goes through the characteristic polynomial and
bisection, the closed forms are worked out on paper, and the rank oracle
enumerates minors. Slow is fine; these only run at test scale.
"""

from __future__ import annotations

import math
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
