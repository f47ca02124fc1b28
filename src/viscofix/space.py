"""Finite-dimensional real Hilbert space primitives.

Vectors are plain float64 numpy arrays treated as immutable values: every
operation returns a fresh array and never mutates its inputs. Scalars follow
IEEE-754 double semantics throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Seed used by every randomized sampler unless the caller supplies one.
DEFAULT_SEED = 42


class ViscofixError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(ViscofixError):
    """Vectors or operators of incompatible dimensions were combined."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical tolerances and iteration budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_POLICY = TolerancePolicy()


def as_vector(x) -> np.ndarray:
    """Validate ``x`` as an element of R^d (1-D, finite, d >= 1).

    Returns a read-only float64 copy so stored vectors cannot be mutated
    behind the back of whoever holds them.
    """
    v = np.array(x, dtype=float, copy=True)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one coordinate, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    v.flags.writeable = False
    return v


def check_same_dim(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")


def inner(u, v) -> float:
    """Euclidean inner product <u, v>."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    check_same_dim(u, v)
    return float(np.dot(u, v))


def norm(u) -> float:
    """Euclidean norm sqrt(<u, u>), the same bits as np.linalg.norm."""
    v = np.asarray(u, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def convex_combine(a: float, u, b: float, v) -> np.ndarray:
    """Coordinatewise a*u + b*v, returned as a fresh vector."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    check_same_dim(u, v)
    return a * u + b * v


def make_rng(seed=DEFAULT_SEED) -> np.random.Generator:
    """Deterministic generator for the given seed; a Generator passes through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform sample from the origin-centered closed ball of the given radius."""
    g = rng.standard_normal(dim)
    n = np.linalg.norm(g)
    while n == 0.0:
        g = rng.standard_normal(dim)
        n = np.linalg.norm(g)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / n) * g


def sample_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform sample from the unit sphere."""
    g = rng.standard_normal(dim)
    n = np.linalg.norm(g)
    while n == 0.0:
        g = rng.standard_normal(dim)
        n = np.linalg.norm(g)
    return g / n
