"""Implicit viscosity iteration for fixed points of nonexpansive maps.

Outer loop: for a strictly decreasing eps schedule, solve the implicit step

    xi_n = eps_n * f(xi_n) + (1 - eps_n) * T_n(xi_n)

where f is a contraction and T_n is a fixed nonexpansive operator or a member
of an operator family cycled round-robin over its sampled indices. Each step
is a Banach fixed-point problem for the blended map G, a contraction with
modulus at most q = 1 - eps_n * (1 - alpha), and is solved by Picard
iteration with an a-posteriori stopping rule, unless the blend certifies
the point of a solve on its affine piece around the warm start, or its
first Picard iterate, handed on from the step before, which is then kept.
Picard has two paths: an affine map x -> M x + c with ||M||_2 < 1 finds
its stop by binary lifting, and every other map is iterated step by step
through its apply, as are the step norms of a lifted solve when read. The
anchored variant freezes f to a constant anchor and uses the anchored
schedule eps_n = 1/n, which selects the value of the limiting retraction at
that anchor.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import (
    PROBE_RADIUS,
    PROBE_SAMPLES,
    AffineOperator,
    BlendOperator,
    ConstantOperator,
    DeclaredWrapper,
    InvalidSpec,
    NonFiniteValue,
    Operator,
    _affine,
    _as_piece,
    _blend_form,
    _Piece,
    _probed_class,
    _row_norms,
    _stacked_product,
    blend,
    contraction,
    estimate_lipschitz,
    spectral_norm,
)
from .operators import check_nonexpansive  # noqa: F401  (bench/tracer.py wraps this binding)
from .semigroup import OperatorFamily, resolve_nonexpansive
from .space import (
    DEFAULT_POLICY,
    DimensionMismatch,
    TolerancePolicy,
    ViscofixError,
    as_vector,
)
from .trace import ConvergenceTrace


class InvalidSchedule(ViscofixError):
    """Schedule values outside (0, 1) or otherwise malformed."""


class NonDecreasingSchedule(InvalidSchedule):
    """Schedule values fail to decrease strictly."""


class NotAContraction(ViscofixError):
    """Picard iteration needs a contraction modulus strictly below 1."""


class MaxIterExceeded(ViscofixError):
    """The inner iteration budget ran out before the stopping rule fired."""


#: Estimated moduli must stay below 1 by this margin to count as contractions.
CONTRACTION_MARGIN = 1e-6

#: Relative rounding of one float64 operation, the floor of every Picard bound.
_MACHINE_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class EpsilonSchedule:
    """Materialized sequence eps_1 > eps_2 > ... inside (0, 1); only the
    anchored kind may start at eps_1 = 1.

    The values are checked once, when the schedule is built, and kept as a
    tuple of floats; InvalidSchedule (NonDecreasingSchedule for values that
    do not decrease) names what is wrong with them.
    """

    kind: str
    n_max: int
    values: tuple[float, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise InvalidSchedule("schedule is empty")
        for v in values:
            if not (0.0 < v < 1.0 or (v == 1.0 and self.kind == "anchored")):
                raise InvalidSchedule(f"schedule values must lie in (0, 1), got {v}")
        for a, b in zip(values, values[1:]):
            if b >= a:
                raise NonDecreasingSchedule("schedule not strictly decreasing")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def eps(self, n: int) -> float:
        return self.values[n - 1]


#: The params each schedule kind reads; any other param is an error.
_SCHEDULE_PARAMS = {"harmonic": ("p",), "geometric": ("r",), "explicit": ("values",), "anchored": ()}


def make_schedule(kind: str = "harmonic", params: dict | None = None, n_max: int | None = None) -> EpsilonSchedule:
    """Build and validate an eps schedule.

    Kinds: "harmonic" (eps_n = 1/(n+1)^p), "geometric" (eps_n = r^n),
    "anchored" (eps_n = 1/n, which paired with a constant forcing term gives
    the anchored iteration), and "explicit" (a literal value list in
    params["values"]).
    """
    params = dict(params or {})
    reads = _SCHEDULE_PARAMS.get(kind)
    if reads is None:
        raise InvalidSchedule(f"unknown schedule kind '{kind}'")
    for key in params:
        if key not in reads:
            names = ", ".join(f"'{name}'" for name in reads) or "none"
            raise InvalidSchedule(f"unknown schedule param '{key}' for kind '{kind}', which reads {names}")
    if kind == "explicit":
        raw = params.get("values")
        if raw is None:
            raise InvalidSchedule("explicit schedule needs params['values']")
        raw = tuple(raw)
        schedule = EpsilonSchedule(kind="explicit", n_max=len(raw), values=raw, params={})
        if n_max is not None and n_max != len(raw):
            raise InvalidSchedule(f"explicit schedule has {len(raw)} values but n_max={n_max}")
        return schedule
    n_max = 200 if n_max is None else int(n_max)
    if n_max < 1:
        raise InvalidSchedule("n_max must be at least 1")
    if kind == "harmonic":
        p = float(params.get("p", 1.0))
        if not p > 0.0:
            raise InvalidSchedule(f"harmonic exponent must be positive, got {p}")
        values, params = tuple(1.0 / (n + 1) ** p for n in range(1, n_max + 1)), {"p": p}
    elif kind == "geometric":
        r = float(params.get("r", 0.5))
        if not 0.0 < r < 1.0:
            raise InvalidSchedule(f"geometric ratio must lie in (0, 1), got {r}")
        values, params = tuple(r**n for n in range(1, n_max + 1)), {"r": r}
    else:
        values, params = tuple(1.0 / n for n in range(1, n_max + 1)), {}
    return EpsilonSchedule(kind=kind, n_max=n_max, values=values, params=params)


# ---------------------------------------------------------------------------
# Options and results


@dataclass(frozen=True)
class InnerTolRule:
    """Inner tolerance per outer step: fixed delta, or min(outer_tol, c*eps^2)."""

    kind: str = "coupled"  # "fixed" | "coupled"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "coupled"):
            raise ValueError(f"unknown inner tolerance rule '{self.kind}'")
        if not self.value > 0.0:
            raise ValueError("inner tolerance rule constant must be positive")

    def delta(self, eps: float, outer_tol: float) -> float:
        if self.kind == "fixed":
            return self.value
        return min(outer_tol, self.value * eps * eps)


def fixed_inner_tol(delta: float) -> InnerTolRule:
    return InnerTolRule("fixed", delta)


def coupled_inner_tol(c: float = 1.0) -> InnerTolRule:
    return InnerTolRule("coupled", c)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the outer solvers."""

    outer_tol: float = 1e-8
    inner_tol_rule: InnerTolRule = InnerTolRule()
    warm_start: bool = True
    policy: TolerancePolicy = DEFAULT_POLICY

    def __post_init__(self):
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")


class _FixedPointFields(NamedTuple):
    point: np.ndarray
    residual: float
    iterations: int
    converged: bool
    step_norms: tuple[float, ...] = ()


class FixedPointResult(_FixedPointFields):
    """Outcome of a fixed-point solve, as an immutable value.

    For picard_solve, residual is the a-posteriori bound on the distance to
    the true fixed point and step_norms holds every ||x_{k+1} - x_k||. For
    the outer solvers, residual is the final fixed-point residual
    ||xi_N - T(xi_N)|| and iterations counts outer steps.

    step_norms may be built with a callable that computes the tuple; it then
    runs on the first read only.
    """

    __slots__ = ()

    def __new__(cls, point, residual, iterations, converged, step_norms=()):
        # A callable is held in a one-item list, where its tuple replaces it on the first read.
        if callable(step_norms):
            step_norms = [step_norms]
        return tuple.__new__(cls, (point, residual, iterations, converged, step_norms))

    @property
    def step_norms(self) -> tuple[float, ...]:
        steps = self[4]
        if type(steps) is list:
            if callable(steps[0]):
                steps[0] = tuple(steps[0]())
            steps = steps[0]
        return steps


# ---------------------------------------------------------------------------
# Inner solver


def _resolve_contraction(G: Operator) -> Operator:
    """G when declared a contraction, else G declared with its estimated modulus.

    The estimate runs once per operator object: G keeps its outcome, the
    modulus or the NotAContraction it earned (see operators._probed_class),
    so a later ask about the same G makes no probe and gets the same answer.
    """
    declared = G.declared_class
    if declared.kind == "contraction":
        return G
    if declared.kind == "unknown":
        return DeclaredWrapper(G, _probed_class(G, _estimate_contraction))
    raise NotAContraction(f"operator declared '{declared.kind}' has Lipschitz bound 1")


def _estimate_contraction(G: Operator):
    """G's class from its sampled Lipschitz estimate, or the NotAContraction that says why it has none."""
    estimate = estimate_lipschitz(G, PROBE_SAMPLES, PROBE_RADIUS)
    if estimate <= 1.0 - CONTRACTION_MARGIN:
        return contraction(estimate)
    return NotAContraction(f"estimated Lipschitz constant {estimate:.6g} is not below 1 - {CONTRACTION_MARGIN}")


def _picard_generic(G: Operator, x: np.ndarray, threshold: float, max_iter: int, held=()):
    """Picard step by step through G's apply: (last iterate, step norms).

    Returns whether or not the stopping rule fired within max_iter >= 1
    steps. held holds the first iterates G(x), G(G(x)), ... as its caller
    holds them, which are taken in place of applying G. The iterate is one
    of G's apply outputs, never x itself, and may be an array that G's
    apply still holds. Raises NonFiniteValue at the first step where G
    returns NaN or inf.
    """
    # x was checked by picard_solve and every operator keeps the shape of its
    # argument, so the loop skips the public apply's check.
    apply = G._apply
    steps: list[float] = []
    current, nxt = x, (held[0] if held else apply(x))
    for k in range(1, max_iter + 1):
        step = nxt - current
        # vdot gives dot's bits without numpy's warning when the square overflows.
        delta = math.sqrt(np.vdot(step, step))
        # A norm can overflow while the iterate stays finite; only a
        # non-finite value of G ends the loop.
        if not math.isfinite(delta) and not np.all(np.isfinite(nxt)):
            raise NonFiniteValue(
                f"Picard step {k} produced a non-finite value (operator kind '{G.kind}')"
            )
        steps.append(delta)
        current = nxt
        if delta <= threshold or k == max_iter:
            break
        nxt = held[k] if k < len(held) else apply(current)
    return current, steps


# A lifting level j holds P = M^(2^j) over S = I + M + ... + M^(2^j - 1).
# Applied to the step s_p it gives s_(p + 2^j) and the sum s_p + ... +
# s_(p + 2^j - 1); squared, it gives level j + 1, because S' = S + S P.


def _lift(matrix, step, threshold, max_iter):
    """First k <= max_iter with ||M^(k-1) s_1|| <= threshold, by binary lifting.

    For ||M|| < 1 the step norms ||s_k|| decrease strictly, so the stop is
    found by galloping, trying s_2p from s_p with level log2(p) while the
    step stays above the threshold, and then by descending, trying each
    lower level once from the last step above it. No step past max_iter is
    tried. A NaN norm counts as above the threshold, so that a non-finite
    step lands in the sum. step is s_1, an array, or for d = 2 also a pair
    of floats, and matrix is M, an array, or for d = 2 also its rows as
    lists of floats.

    Returns (k, s_1 + ... + s_k, ||s_k||), or (None, s_1 + ... +
    s_max_iter, None) when every step within the budget is above. For
    d = 2 the sum is a pair of floats: the levels are eight plain floats
    and the loop is written out on them, which skips numpy's per-call cost.
    Otherwise a level is one (2d, d) array [P; S], so that each costs one
    product, and the sum is an array.
    """
    if type(step) is not tuple:
        if step.shape[0] != 2:
            return _lift_stacked(matrix, step, threshold, max_iter)
        step = step.tolist()
    (p00, p01), (p10, p11) = matrix if type(matrix) is list else matrix.tolist()
    a, b = step
    first = math.sqrt(a * a + b * b)
    if first <= threshold:
        return 1, (a, b), first
    # (a, b) = s_p, (t0, t1) = s_1 + ... + s_(p-1); last = the least step tried at or below.
    p, t0, t1, last = 1, 0.0, 0.0, None
    level = (p00, p01, p10, p11, 1.0, 0.0, 0.0, 1.0)
    levels: list = []
    while 2 * p <= max_iter:
        if levels:
            level = (
                p00 * p00 + p01 * p10, p00 * p01 + p01 * p11,
                p10 * p00 + p11 * p10, p10 * p01 + p11 * p11,
                s00 + (s00 * p00 + s01 * p10), s01 + (s00 * p01 + s01 * p11),
                s10 + (s10 * p00 + s11 * p10), s11 + (s10 * p01 + s11 * p11),
            )
        p00, p01, p10, p11, s00, s01, s10, s11 = level
        na = p00 * a + p01 * b
        nb = p10 * a + p11 * b
        h = math.sqrt(na * na + nb * nb)
        if h <= threshold:
            last = na, nb, h
            break
        levels.append(level)
        t0 += s00 * a + s01 * b
        t1 += s10 * a + s11 * b
        p, a, b = 2 * p, na, nb
    for j in range(len(levels) - 1, -1, -1):
        if p + (1 << j) > max_iter:
            continue
        p00, p01, p10, p11, s00, s01, s10, s11 = levels[j]
        na = p00 * a + p01 * b
        nb = p10 * a + p11 * b
        h = math.sqrt(na * na + nb * nb)
        if h <= threshold:
            last = na, nb, h
        else:
            t0 += s00 * a + s01 * b
            t1 += s10 * a + s11 * b
            p, a, b = p + (1 << j), na, nb
    t0 += a
    t1 += b
    if last is None:
        return None, (t0, t1), None
    return p + 1, (t0 + last[0], t1 + last[1]), last[2]


def _lift_stacked(matrix, step, threshold, max_iter):
    """_lift for d != 2, on stacked (2d, d) levels."""
    d = step.shape[0]
    # space.norm's bits without its conversions: the vectors here are 1-D float arrays.
    first = math.sqrt(step.dot(step))
    if first <= threshold:
        return 1, step, first
    # v = s_p, total = s_1 + ... + s_(p-1); last = the least step tried at or below.
    p, v, total, last = 1, step, np.zeros(d), None
    level = np.vstack((matrix, np.eye(d)))
    levels: list = []
    while 2 * p <= max_iter:
        if levels:
            square = level @ level[:d]
            square[d:] += level[d:]
            level = square
        out = level @ v
        head = out[:d]
        h = math.sqrt(head.dot(head))
        if h <= threshold:
            last = head, h
            break
        levels.append(level)
        p, v, total = 2 * p, head, total + out[d:]
    for j in range(len(levels) - 1, -1, -1):
        if p + (1 << j) > max_iter:
            continue
        out = levels[j] @ v
        head = out[:d]
        h = math.sqrt(head.dot(head))
        if h <= threshold:
            last = head, h
        else:
            p, v, total = p + (1 << j), head, total + out[d:]
    total = total + v
    if last is None:
        return None, total, None
    return p + 1, total + last[0], last[1]


#: A bound on sum |M_ij| sum |x_j| below which no term or sum of M x can
#: overflow, nor a NaN arise from finite entries: 2^1000, far under 2^1024.
_PAIR_PRODUCT_LIMIT = 2.0**1000


def _picard_affine(G: Operator, parts, x0: np.ndarray, threshold: float, max_iter: int):
    """Picard for x -> M x + c with ||M||_2 < 1, whose step norms never increase.

    _lift finds the stop in about 3 log2(k) small products in place of the
    k steps. The step norms are left to _picard_generic run for exactly the
    k steps, when they are read.

    Returns (point, iterations, last step norm, the callable that computes
    the step norms), or None when max_iter steps pass without a stop. The
    point at the stop is not checked here: picard_solve checks it with the
    same vdot that gives its rounding floor. Raises NonFiniteValue when the
    iterate at max_iter is not finite.
    """
    matrix, offset = parts.matrix, parts.offset
    # Huge steps overflow to inf without warnings; a non-finite iterate is
    # reported below at the budget, and by picard_solve at the stop.
    if x0.shape[0] == 2:
        # The plain floats of _lift: Python's sums and differences have
        # numpy's bits and never warn. Only M x0 is numpy's, whose bits
        # may come from fused multiply-adds, and it needs numpy's warnings
        # silenced only where its terms can leave the float range.
        (p00, p01), (p10, p11) = rows = matrix.tolist()
        y0, y1 = x0.tolist()
        if (abs(p00) + abs(p01) + abs(p10) + abs(p11)) * (abs(y0) + abs(y1)) < _PAIR_PRODUCT_LIMIT:
            m0, m1 = (matrix @ x0).tolist()
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                m0, m1 = (matrix @ x0).tolist()
        c0, c1 = offset.tolist()
        found, (t0, t1), last = _lift(rows, (m0 + c0 - y0, m1 + c1 - y1), threshold, max_iter)
        x = np.array((y0 + t0, y1 + t1))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            step = matrix @ x0 + offset - x0
            found, total, last = _lift(matrix, step, threshold, max_iter)
            x = x0 + total
    if found is None:
        if not np.isfinite(x).all():
            raise _non_finite_iterate(G, max_iter)
        return None
    # A start that owns its data and is read-only cannot change before the
    # norms are read, so it is kept as it is.
    start = x0 if x0.base is None and not x0.flags.writeable else x0.copy()
    return x, found, last, functools.partial(_scanned_norms, G, start, found)


def _non_finite_iterate(G: Operator, count: int) -> NonFiniteValue:
    return NonFiniteValue(f"Picard steps 1-{count} produced a non-finite value (operator kind '{G.kind}')")


def _scanned_norms(G, x0, count):
    """The norms of the first count steps of _picard_generic on an affine G."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _picard_generic(G, x0, -math.inf, count)[1]


def picard_solve(
    G: Operator, x0, tol: float, policy: TolerancePolicy = DEFAULT_POLICY, *, _first=()
) -> FixedPointResult:
    """Banach-Picard iteration x_{k+1} = G(x_k) for a contraction G.

    Parameters
    ----------
    G : Operator
        Declared contraction, or an operator whose sampled Lipschitz estimate
        stays below 1 - 1e-6.
    x0 : array_like
        Starting point.
    tol : float
        Target bound on the distance to the fixed point. With modulus
        alpha > 0 the loop stops once ||x_{k+1} - x_k|| <= tol*(1-alpha)/alpha,
        which guarantees ||x_k - x*|| <= tol; modulus 0 returns after one
        application, which already sits on the fixed point.
    policy : TolerancePolicy
        Supplies the iteration budget.

    Returns
    -------
    FixedPointResult
        residual carries the a-posteriori error bound
        ||s_k|| alpha / (1 - alpha) plus a rounding floor
        eps_machine ||x_k|| / (1 - alpha), step_norms the full sequence of
        update norms.

    An affine G = M x + c with ||M||_2 < 1 runs the same iteration with the
    same stopping rule and step norms, up to rounding. ||M||_2 is the
    AffineOperator's matrix_norm when it has one, else one SVD here. Its
    step norms never increase, so the stop is found by binary lifting on
    M^(2^j) in O(log k) small products (see _picard_affine), and step_norms
    is computed only when read. Every other map, whose steps may grow
    before they decay, takes every step through G's apply.

    A solver that holds G(x0), or G(x0) and G(G(x0)), already passes them
    as _first, and the step-by-step loop takes them as its first iterates,
    each counted as a step.

    Raises MaxIterExceeded when the budget, counted in Picard steps, runs
    out. Raises NonFiniteValue when an iterate is NaN or infinite: the
    step-by-step loop at the first step where G returns such a value, the
    lifted solve when its iterate at the stop (or at the budget) is not
    finite. A step norm that overflows while the iterate stays finite ends
    neither.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    alpha = _resolve_contraction(G).declared_class.alpha
    x = np.asarray(x0, dtype=float)
    if x.shape != (G.dim,):
        raise DimensionMismatch(f"start point shape {x.shape} does not match dimension {G.dim}")
    if alpha == 0.0:
        # Modulus 0 means one application lands on the fixed point exactly.
        point, steps = _picard_generic(G, x, math.inf, 1, _first)
        # G's apply may return an array its caller still holds: copy it.
        point = point.copy()
        point.setflags(write=False)
        return FixedPointResult(point, 0.0, 1, True, tuple(steps))
    threshold = tol * (1.0 - alpha) / alpha

    parts = G.affine_parts()
    # The bound on ||M||_2 that decides a lift: an AffineOperator's matrix_norm, else one SVD.
    known = G.matrix_norm if isinstance(G, AffineOperator) else None
    if parts is not None and (spectral_norm(parts.matrix) if known is None else known) < 1.0:
        outcome = _picard_affine(G, parts, x, threshold, policy.max_iter)
    else:
        # Huge affine steps overflow to inf without numpy's warnings, as in
        # the lifted solve; a non-finite value raises NonFiniteValue.
        with np.errstate(over="ignore", invalid="ignore") if parts is not None else contextlib.nullcontext():
            point, steps = _picard_generic(G, x, threshold, policy.max_iter, _first)
        # G's apply may return an array its caller still holds: copy it.
        outcome = (point.copy(), len(steps), steps[-1], tuple(steps)) if steps[-1] <= threshold else None
    if outcome is None:
        raise MaxIterExceeded(
            f"Picard iteration hit the budget of {policy.max_iter} steps before reaching "
            f"tol={tol:.3g} (contraction modulus q={alpha:.12g})"
        )
    point, iterations, last, steps = outcome
    # The step-by-step loop stopped on a finite step from its point, which
    # a non-finite iterate cannot take, so only a lifted point can fail here.
    floor = _rounding_floor(point, alpha)
    if floor is None:
        raise _non_finite_iterate(G, iterations)
    # Both paths give a fresh point. setflags costs half of flags.writeable's setter.
    point.setflags(write=False)
    return FixedPointResult(point, last * alpha / (1.0 - alpha) + floor, iterations, True, steps)


def _rounding_floor(point: np.ndarray, alpha: float) -> float | None:
    """eps_machine ||point|| / (1 - alpha), the floor of every bound on the distance to an alpha-contraction's fixed point.

    Each step rounds the iterate by about eps_machine ||x||, and the
    contraction keeps such errors within that over (1 - alpha) of x*. One
    vdot gives ||x||^2 with dot's bits and without numpy's overflow
    warning. Only a square past the float range needs the coordinates
    checked: a finite point's norm is then hypot's scaled sum, and a
    non-finite point has no floor (None).
    """
    squared = np.vdot(point, point)
    if squared < math.inf:
        size = math.sqrt(squared)
    elif np.isfinite(point).all():
        size = math.hypot(*point)
    else:
        return None
    return _MACHINE_EPS * size / (1.0 - alpha)


#: Most matrix entries in one batch of a schedule plan.
_PLAN_BATCH = 1 << 16


class _Step(namedtuple("_Step", "point iterations bound implicit at_target path solved moved")):
    """One outer step as a _Stepper took it.

    bound is the certified bound on the distance to the step's exact
    solution. implicit is ||xi - g(xi)||, or for a step that blend()
    collapsed g's global form (M, c), whose residual the caller computes
    (at_target, T(xi), is then None). path names the candidate kept:
    "collapsed", "piece", "image", "picard", or "modulus-0" for Picard on
    a blend of modulus 0, which one application solves. solved is the
    Picard solve whose point was kept, and moved, for a kept image only,
    its move ||x1 - warm||.
    """

    # A step builds its record as FixedPointResult does, with tuple.__new__,
    # which skips the generated __new__'s argument handling.
    __slots__ = ()


def _solved(res: FixedPointResult, implicit, at_target, path: str) -> _Step:
    """The record of a step whose point the Picard solve res found."""
    return tuple.__new__(_Step, (res.point, res.iterations, res.residual, implicit, at_target, path, res, None))


class _Stepper:
    """The outer steps on one step operator T: each solves xi = g(xi), g = eps f + (1 - eps) T, to within delta.

    A stepper takes steps member, member + count, ... of the schedule
    values, in turn; step(eps, warm, delta) takes the next, eps being its
    schedule value, and returns its record (see _Step). It holds f, T,
    f's global form, the plan of g's pieces for a batch of its steps, and
    the last pass over f and T: (x, f(x), T(x), T's piece at x) at the
    last point certified, each map evaluated once there. With hand_on
    (warm starts and one step operator) the pass serves a step that starts
    at x, and T is evaluated there with its piece.

    The plan. Planned, with f's global form, each step is keyed on T's
    piece at its warm start (its global form when it has one, else the
    piece from the pass that serves, else T's own answer), compared by
    identity, and g's piece is M = eps M_f + (1 - eps) M_T, c = eps c_f +
    (1 - eps) c_T, global or local as T's is. Pieces are planned for the
    rest of a batch of steps at once, stacked with the products and sums
    blend() and BlendOperator use (operators._blend_form), so a planned row
    has the bits of a row built alone; the stack is checked for
    finiteness once.

    * A global piece is planned from its first step in the batch. Its rows
      carry their norms ||M_n||_2 from one batched SVD, with the bits of
      one SVD per matrix: each is the collapse blend() adopts.
    * A local piece seen for the first time has its row built alone; when
      the member's next step with a piece sees the very same object (a
      ball's interior, a composite's or an average's kept piece), the rest
      of the batch is planned. It takes no SVD: the piece solve lifts it on
      q_n.

    A stack with a non-finite entry is not planned, and its rows are built
    alone, so the first of them to overflow raises InvalidSpec at its own
    step. A step where T has no piece asks nothing of the plan. Without f's
    global form, or unplanned, each step asks g for its own piece.
    """

    def __init__(self, f, T, values, member=0, count=1, policy=DEFAULT_POLICY, hand_on=False, planned=True):
        self.f, self.T, self.policy, self.hand_on = f, T, policy, hand_on
        self.forcing = f.affine_parts() if planned else None
        self.values, self.idx, self.count = values, member, count
        self.batch = max(1, _PLAN_BATCH // (f.dim * f.dim))
        # The plan, (piece, its first step, end of the batch, stack or None), T's last piece, the last pass.
        self.plan = self.seen = self.last = None

    def step(self, eps: float, warm: np.ndarray, delta: float) -> _Step:
        """The next step, from warm: the first candidate whose point xi g certifies.

        g = blend(...) is built once, with the plan's global piece as its
        collapse; without one, blend() collapses g itself when f and T
        have global forms, and Picard solves that. Any other step tries its
        candidates in turn: the bound ||xi - g(xi)|| / (1 - q) on the
        distance to the fixed point of the q-contraction g holds however xi
        was found, so a class that overstates how f contracts costs no
        soundness.

        * The piece solve. g's piece at warm is solved declared with g's
          own modulus q, which is also its matrix_norm: a nonexpansive T's
          local piece has ||M||_2 <= 1, so with honest classes the piece's
          norm is at most eps ||M_f||_2 + (1 - eps) <= q < 1, and
          picard_solve lifts on q without an SVD, with the threshold g
          would get. Its point is kept if ||xi - g(xi)|| <= delta (1 - q);
          a piece solve that fails is passed over.
        * The handed-on image. When the last pass serves, x1 = g.a f(warm)
          + g.b T(warm) is g's value at warm with its own bits, Picard's
          first iterate, and the step's one pass is made there. x1 is kept
          as one iteration when the bound plus the rounding floor is at
          most delta, which is then its residual. Where Picard would stop
          at x1 on its own threshold, or x1 is not finite, Picard is left
          to do so.
        * Picard on g, from warm. It takes x1, and g(x1) from the pass at
          x1 when one was made, as its first iterates, so a step that
          falls back has the bits it would have had without the image,
          and no map is evaluated twice at a point.

        An undeclared g and a start of the wrong shape are left to
        picard_solve, which resolves the one and rejects the other. A kept
        image's record carries its move ||x1 - warm||, which is the step's
        step_delta when warm is the last step's point, and no
        FixedPointResult.
        """
        idx = self.idx
        self.idx += self.count
        last = self.last if self.hand_on and self.last is not None and self.last[0] is warm else None
        # T's piece at warm, from the pass that serves, else from T: its global form is built at
        # its first step, where a non-finite one raises. Without a piece the plan is not asked.
        piece = None if self.forcing is None else last[3] if last is not None else self.T._piece(warm)
        # The plan's row for the piece is taken here; a step with any other piece asks _planned.
        if (plan := self.plan) is not None and plan[0] is piece and idx < plan[2] and plan[3] is not None:
            self.seen, planned = piece, plan[3].row((idx - plan[1]) // self.count)
        else:
            planned = None if piece is None else self._planned(idx, eps, piece)
        g = blend(eps, self.f, 1.0 - eps, self.T, planned if planned is not None and planned.everywhere else None)
        if not isinstance(g, BlendOperator):
            res = picard_solve(g, warm, delta, self.policy)
            return _solved(res, g.affine_parts(), None, "collapsed")
        declared, policy, first = g.declared_class, self.policy, ()
        q = declared.alpha
        if declared.kind == "contraction" and warm.shape == (g.dim,):
            if self.forcing is None:
                planned = _as_piece(g.affine_piece(warm) if last is None else g._apply_piece(warm, last[1:])[1], False)
            if planned is not None:
                try:
                    res = picard_solve(_affine(planned, declared, q), warm, delta, policy)
                except (MaxIterExceeded, NonFiniteValue):
                    pass
                else:
                    size, _, at_target = self._certify(g, res.point)
                    if size <= delta * (1.0 - q):
                        return _solved(res, size, at_target, "piece")
            if last is not None:
                x = g.a * last[1] + g.b * last[2]
                gap = x - warm
                moved, first = math.sqrt(np.vdot(gap, gap)), (x,)
                if delta * (1.0 - q) / q < moved < math.inf:
                    x.setflags(write=False)
                    size, at_forcing, at_target = self._certify(g, x)
                    bound = size / (1.0 - q) + _rounding_floor(x, q)
                    if bound <= delta:
                        return tuple.__new__(_Step, (x, 1, bound, size, at_target, "image", None, moved))
                    first = (x, g.a * at_forcing + g.b * at_target)
        res = picard_solve(g, warm, delta, policy, _first=first)
        size, _, at_target = self._certify(g, res.point)
        return _solved(res, size, at_target, "picard" if q else "modulus-0")

    def _planned(self, idx: int, eps: float, piece: _Piece) -> _Piece:
        """g's piece for step idx from T's piece at its warm start: the plan's row, or one built alone."""
        plan, seen, self.seen = self.plan, self.seen, piece
        if plan is None or plan[0] is not piece or idx >= plan[2]:
            plan = self.plan = None
            if piece.everywhere or piece is seen:
                stop = min(len(self.values), (idx // self.batch + 1) * self.batch)
                weights = np.array(self.values[idx:stop:self.count])
                try:
                    stack = _Piece(*_blend_form(weights, self.forcing, 1.0 - weights, piece), piece.everywhere)
                except InvalidSpec:
                    stack = None
                else:
                    if piece.everywhere:
                        stack.norm = np.linalg.svd(stack.matrix, compute_uv=False)[:, 0].tolist()
                plan = self.plan = (piece, idx, stop, stack)
        if plan is None or plan[3] is None:
            return _Piece(*_blend_form(eps, self.forcing, 1.0 - eps, piece), piece.everywhere)
        return plan[3].row((idx - plan[1]) // self.count)

    def _certify(self, g: BlendOperator, x: np.ndarray) -> tuple:
        """(||x - g(x)||, f(x), T(x)) from one pass over f and T at x, kept as the last pass.

        T is evaluated with its piece only with hand_on. g(x) = a f(x) +
        b T(x) has the bits of g._apply(x).
        """
        at_forcing = self.f._apply(x)
        at_target, piece = self.T._apply_piece(x) if self.hand_on else (self.T._apply(x), None)
        self.last = (x, at_forcing, at_target, piece)
        # space.norm's bits without its conversions: the gap is a fresh 1-D float array.
        gap = x - (g.a * at_forcing + g.b * at_target)
        return math.sqrt(gap.dot(gap)), at_forcing, at_target


def implicit_step(
    f: Operator, T: Operator, eps: float, warm, inner_tol: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Solve xi = eps*f(xi) + (1-eps)*T(xi) to within inner_tol.

    The blended map is a contraction with modulus at most
    q = eps*alpha + (1-eps) and is solved from the warm start as one outer
    step of viscosity_implicit_solve is, by an unplanned stepper: f and T
    are resolved as the solver resolves them, f to its contraction class
    and T, after the solver's dimension check, to its nonexpansive one,
    each probed once per operator object when undeclared. eps = 1 is
    allowed (the anchored scheme starts there) and reduces the equation to
    xi = f(xi).
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    f = _resolve_contraction(f)
    (T,) = _step_operators(T, f.dim)
    return _Stepper(f, T, (eps,), policy=policy, planned=False).step(eps, np.asarray(warm, dtype=float), inner_tol).point


# ---------------------------------------------------------------------------
# Outer solvers


def _step_operators(target, dim: int) -> tuple[Operator, ...]:
    """Resolved nonexpansive step operators; outer step n uses entry (n-1) % len."""
    if isinstance(target, OperatorFamily):
        noun, members = "family", (target.evaluate(t) for t in target.sample_indices())
    elif isinstance(target, Operator):
        noun, members = "operator", (target,)
    else:
        raise TypeError(f"target must be an Operator or OperatorFamily, got {type(target).__name__}")
    if target.dim != dim:
        raise DimensionMismatch(f"{noun} dimension {target.dim} does not match forcing dimension {dim}")
    return tuple(resolve_nonexpansive(op) for op in members)


def viscosity_implicit_solve(
    f: Operator,
    target,
    schedule: EpsilonSchedule,
    opts: SolveOptions | None = None,
    problem_id: str | None = None,
    inner_monitor=None,
) -> tuple[FixedPointResult, ConvergenceTrace]:
    """Implicit viscosity iteration along an eps schedule.

    Parameters
    ----------
    f : Operator
        Contraction forcing term (declared, or estimable below 1 - 1e-6).
    target : Operator or OperatorFamily
        Nonexpansive target map; a family is cycled round-robin over its
        sampled indices, one index per outer step.
    schedule : EpsilonSchedule
        Strictly decreasing eps values in (0, 1), or in (0, 1] for the
        anchored kind.
    opts : SolveOptions
        Tolerances, inner rule, warm-start switch.
    inner_monitor : callable, optional
        Called as inner_monitor(n, eps, picard_result) after every outer step.

    Returns
    -------
    (FixedPointResult, ConvergenceTrace)
        The result's converged flag means the final step met both
        ||xi - T(xi)|| <= outer_tol and ||xi_n - xi_{n-1}|| <= outer_tol.
        The trace's metadata holds the run's wall-clock timestamps, its
        stop record, {"reason": "outer_tol" | "n_max", "n": n}: the stop
        test met at step n, or the schedule's last step n reached without
        it, and its step count by path, such as {"image": 199, "piece":
        1} (see _Step).

    Each step operator T_n has one stepper (see _Stepper), which solves
    each of its steps' blends g = eps_n f + (1 - eps_n) T_n from the warm
    start: on g's collapse when T_n has a global form, else on g's local
    piece there, or from the image handed on, or by Picard, keeping the
    first point g certifies. Either way ||xi_n - xi_n*|| <= delta_n for the
    step's exact solution xi_n*, and the trace and inner_monitor see the
    solve whose point was kept, built as a FixedPointResult only for
    inner_monitor. The value of T_n at xi_n that a step's certificate
    computes also gives the step's fix_residual. With warm starts and a
    single step operator the same pass gives T_n's piece at xi_n, from
    which the next step's piece is planned, and its values of f and T_n at
    xi_n give g_(n+1)(xi_n), the next step's first Picard iterate. That
    step makes its one pass at this image and keeps it when g_(n+1)
    certifies it, as it does when f is constant and T a projection, whose
    step solution the image is up to rounding; its step_delta is then the
    image's move from xi_n. Either way f and T are evaluated once at each
    point, so a step that keeps its image evaluates each once.

    A step computes only what the stop test reads, in its order:
    step_delta, then fix_residual only when step_delta <= outer_tol. The
    rest comes from stacked passes whose rows have the bits of the step's
    own products and dot (see _fill_gaps): a plan batch of steps at a time,
    a collapsed step's implicit residual and a certified step's
    fix_residual, from the T_n(xi_n) its certificate computed; after the
    loop, a collapsed step's fix_residual.

    MaxIterExceeded and NonFiniteValue from an inner solve are raised again
    with the outer step n and eps_n in front of the message.
    """
    opts = opts or SolveOptions()
    if not isinstance(schedule, EpsilonSchedule):
        raise InvalidSchedule("schedule must be an EpsilonSchedule (see make_schedule)")
    values = schedule.values
    f = _resolve_contraction(f)
    step_ops = _step_operators(target, f.dim)
    origin = np.zeros(f.dim)
    x_prev = origin
    started = time.time()
    count, delta, outer_tol = len(step_ops), opts.inner_tol_rule.delta, opts.outer_tol
    # With warm starts and one member, a step starts where the last ended,
    # on the same T, and the last certificate's pass serves it.
    warm_start = opts.warm_start
    hand_on = warm_start and count == 1
    steppers = [_Stepper(f, T, values, k, count, opts.policy, hand_on) for k, T in enumerate(step_ops)]
    # The trace's columns but n and eps, which are the schedule's.
    points, implicit, fixes, deltas, iters, paths = [], [], [], [], [], []
    # Forms and images wait for their residuals at most a plan batch of
    # steps, so that no more of them than of the plan's rows are held at once.
    batch, end = steppers[0].batch, len(values)
    # values holds floats, as the trace and inner_monitor take them.
    for idx, eps in enumerate(values):
        n = idx + 1
        stepper = steppers[idx % count]
        try:
            step = stepper.step(eps, x_prev if warm_start else origin, delta(eps, outer_tol))
        except (MaxIterExceeded, NonFiniteValue) as exc:
            raise type(exc)(f"outer step n={n}, eps_n={eps:.6g}: {exc}") from exc
        xi, iterations, bound, implicit_res, fix_res, path, solved, step_delta = step
        if step_delta is None:
            # space.norm's bits, without its conversions: both are fresh 1-D float arrays.
            gap = xi - x_prev
            step_delta = math.sqrt(gap.dot(gap))
        # The stop test reads fix_residual only after step_delta; the rest
        # is left to the stacked passes below, as T_n(xi_n) where the
        # step's certificate computed it, else as None.
        if step_delta <= outer_tol:
            gap = xi - (stepper.T._apply(xi) if fix_res is None else fix_res)
            fix_res = math.sqrt(gap.dot(gap))
        points.append(xi)
        implicit.append(implicit_res)
        fixes.append(fix_res)
        deltas.append(step_delta)
        iters.append(iterations)
        paths.append(path)
        converged = step_delta <= outer_tol and fix_res <= outer_tol
        if converged or n % batch == 0 or n == end:
            # The steps since the last batch left g_n's form in place of a
            # collapsed step's implicit residual, and T_n(xi_n) in place of
            # a certified step's fixed-point residual.
            window = range((n - 1) // batch * batch, n)
            _fill_gaps(implicit, window, points, _Piece, _collapsed_images)
            _fill_gaps(fixes, window, points, np.ndarray, lambda X, images: np.array(images))
        if inner_monitor is not None:
            # A kept image's inner solve is built only here.
            inner_monitor(n, eps, FixedPointResult(xi, bound, 1, True, (step_delta,)) if solved is None else solved)
        x_prev = xi
        if converged:
            break
    # A collapsed step left None in place of a fixed-point residual that no stop test read.
    for member, op in enumerate(step_ops):
        _fill_gaps(fixes, range(member, n, count), points, type(None), lambda X, _: op._apply(X))
    trace = ConvergenceTrace({"problem_id": problem_id, "schedule": schedule.kind, "seed": None})
    # The trace takes the columns as they are (n, the last step's number, is the number of steps).
    trace._columns, trace._points = (list(range(1, n + 1)), list(values[:n]), implicit, fixes, deltas, iters), points
    trace.metadata["timestamps"] = {"started": started, "finished": time.time()}
    trace.metadata["stop"] = {"reason": "outer_tol" if converged else "n_max", "n": n}
    trace.metadata["paths"] = dict(Counter(paths))
    return FixedPointResult(as_vector(x_prev), fixes[-1], n, converged), trace


def _fill_gaps(column: list, steps, points: list, held: type, images_of) -> None:
    """column[k] = ||points[k] - image_k|| for each k of steps where column holds a value of type held, in one pass.

    images_of maps the points of those steps, stacked in an (n, d) array,
    and the list of what column held there, to their images. Each value
    has the bits of math.sqrt(gap.dot(gap)) on its step alone (see
    operators._row_norms) when each image has that step's own bits (see
    operators._stacked_product).
    """
    steps = [k for k in steps if isinstance(column[k], held)]
    if steps:
        X = np.array([points[k] for k in steps])
        sizes = _row_norms(X - images_of(X, [column[k] for k in steps]))
        for k, size in zip(steps, sizes.tolist()):
            column[k] = size


def _collapsed_images(X: np.ndarray, forms: list) -> np.ndarray:
    """M_k x_k + c_k for each row x_k of X and its step's collapsed form (M_k, c_k)."""
    return _stacked_product(np.array([form.matrix for form in forms]), X) + np.array([form.offset for form in forms])


def anchored_implicit_solve(
    anchor,
    target,
    n_max: int = 200,
    opts: SolveOptions | None = None,
    problem_id: str | None = None,
    inner_monitor=None,
) -> tuple[FixedPointResult, ConvergenceTrace]:
    """Anchored implicit iteration xi_n = (1/n) x + (1 - 1/n) T(xi_n).

    The viscosity solve with the constant anchor x as forcing term and the
    anchored schedule eps_n = 1/n, so the limit of xi_n is the value at x of
    the nonexpansive retraction onto the fixed-point set. The first step has
    eps = 1 and returns the anchor itself.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    schedule = make_schedule("anchored", n_max=n_max)
    return viscosity_implicit_solve(ConstantOperator(anchor), target, schedule, opts, problem_id, inner_monitor)


@dataclass
class RetractionValues:
    """Anchored limits per anchor, with per-anchor failures kept separate."""

    limits: dict[tuple[float, ...], np.ndarray]
    results: dict[tuple[float, ...], FixedPointResult]
    failures: dict[tuple[float, ...], str]


def retraction_eval(
    T, anchors, n_max: int = 200, opts: SolveOptions | None = None
) -> RetractionValues:
    """Evaluate the limiting retraction at each anchor via anchored solves.

    Solver errors are reported per anchor in .failures instead of aborting
    the whole sweep. An undeclared target, or family member, is probed
    once however many anchors reach its probe (see
    semigroup.resolve_nonexpansive): each later one takes the kept outcome,
    the class or the failure.
    """
    results: dict[tuple[float, ...], FixedPointResult] = {}
    failures: dict[tuple[float, ...], str] = {}
    for anchor in anchors:
        key = tuple(float(c) for c in np.asarray(anchor, dtype=float))
        try:
            res, _ = anchored_implicit_solve(anchor, T, n_max=n_max, opts=opts)
        except ViscofixError as exc:
            failures[key] = f"{type(exc).__name__}: {exc}"
            continue
        results[key] = res
    return RetractionValues({key: res.point for key, res in results.items()}, results, failures)
