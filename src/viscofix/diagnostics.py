"""Runnable convergence checks on recorded viscosity traces.

Each check mirrors one stage of the convergence argument for the implicit
scheme and turns it into an inequality that can be evaluated on a
ConvergenceTrace:

  step 2  a-priori boundedness of the iterates around any fixed point,
  step 3  the fixed-point residual is controlled by eps_n,
  step 4  the variational inequality gap decays linearly in eps_n,
  step 5  the iterates converge (against an oracle limit, or via a Cauchy
          tail when no oracle is available).

All checks are conservative: a small additive slack absorbs float noise and
the recorded inner-solve inexactness, and every report carries the worst
observed margin so a failure is attributable to a specific step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .operators import FixedPointSet, Operator, _row_dots, _row_norms
from .space import ViscofixError, as_vector, norm
from .trace import ConvergenceTrace

#: Additive slack for float noise in per-step inequality checks.
STEP_SLACK = 1e-9
#: Multiplier on the recorded inner inexactness in the boundedness check.
INEXACT_FACTOR = 10.0
#: A VI gap already below this at the tail counts as converged outright.
VI_TOL = 1e-6
#: Otherwise the gap must decay like c*eps, explained to this relative residual.
VI_REL_TOL = 0.2
#: Tail/head windows take this fraction of the trace, at least MIN_WINDOW steps.
TAIL_FRACTION = 0.1
MIN_WINDOW = 5
#: A candidate fixed point may miss T(p) = p by at most this much.
FIXED_POINT_TOL = 1e-9
#: Pairwise slack for anchored limits, ten times the default outer tolerance.
RETRACTION_SLACK = 1e-7


class NotAFixedPoint(ViscofixError):
    """The reference point p fails residual(T, p) <= tol."""


def residual(T: Operator, x) -> float:
    """Fixed-point residual ||x - T(x)||."""
    x = as_vector(x)
    return norm(x - T.apply(x))


def is_fixed_point(T: Operator, x, tol: float = 1e-8) -> bool:
    return residual(T, x) <= tol


def _deltas_from(trace: ConvergenceTrace, deltas) -> np.ndarray:
    if deltas is None:
        return trace.implicit_residuals()
    arr = np.asarray(deltas, dtype=float)
    if arr.shape != (len(trace),):
        raise ValueError(f"deltas must have one entry per trace step, got shape {arr.shape}")
    return arr


def _worst(excess, trace: ConvergenceTrace) -> tuple[float, int]:
    """The largest excess over the steps and its step number.

    The first of equal maxima wins, and a NaN excess is worse than any
    number: the first NaN is the worst step, and its NaN fails the stage's
    check. Without a step the result is (-inf, 0).
    """
    max_excess, worst = -np.inf, 0
    for value, n in zip(excess, trace._columns[0]):
        if math.isnan(value):
            return math.nan, n
        if value > max_excess:
            max_excess, worst = value, n
    return float(max_excess), worst


def _largest(values) -> float:
    """max(values), or NaN when one of them is NaN: Python's max skips a NaN unless it comes first.

    Raises ValueError for no values, as max does.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


def _points(trace: ConvergenceTrace, dim: int, *ops: Operator) -> np.ndarray:
    """The trace's points as one (n, d) array, (0, dim) for an empty trace.

    The first point is checked against each operator in turn, as its
    public apply checks it: the trace's points all have one dimension.
    """
    points = trace.points()
    if not len(points):
        return np.empty((0, dim))
    for op in ops:
        op._check_arg(points[0])
    return points


@dataclass(frozen=True)
class Step2Report:
    """Boundedness: ||xi_n - p|| <= ||f(p) - p||/(1 - alpha) + 10*delta_n."""

    bound_base: float
    max_violation: float
    worst_step: int
    ok: bool


def check_step2_bound(
    trace: ConvergenceTrace,
    f: Operator,
    alpha: float,
    p,
    deltas=None,
    T: Operator | None = None,
) -> Step2Report:
    """Check the a-priori bound around the fixed point p of the target.

    delta_n is the allowance for inner-solve inexactness at step n; it
    defaults to the recorded implicit residuals. When the target T is
    supplied, p is verified to actually be a fixed point first.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    p = as_vector(p)
    if T is not None and residual(T, p) > FIXED_POINT_TOL:
        raise NotAFixedPoint(
            f"reference point has fixed-point residual {residual(T, p):.3g} > {FIXED_POINT_TOL}"
        )
    base = norm(f.apply(p) - p) / (1.0 - alpha)
    rhs = base + INEXACT_FACTOR * _deltas_from(trace, deltas)
    max_violation, worst = _worst(_row_norms(_points(trace, p.shape[0]) - p) - rhs, trace)
    return Step2Report(
        bound_base=base, max_violation=max_violation, worst_step=worst, ok=max_violation <= STEP_SLACK
    )


@dataclass(frozen=True)
class Step3Report:
    """Residual control: ||xi_n - T(xi_n)|| <= eps_n*||f(xi_n) - T(xi_n)|| + delta_n."""

    final_residual: float
    max_violation: float
    worst_step: int
    ok: bool


def check_step3_residual(
    trace: ConvergenceTrace,
    f: Operator,
    T: Operator,
) -> Step3Report:
    """Check that the fixed-point residual is controlled by eps_n.

    The implicit step equation makes this an identity up to the implicit
    residual, so violations beyond float slack indicate a corrupted trace or
    a mismatched operator.
    """
    points = _points(trace, f.dim, f, T)
    gaps = _row_norms(f._apply(points) - T._apply(points))
    rhs = trace.eps_values() * gaps + trace.implicit_residuals()
    max_violation, worst = _worst(trace.fix_residuals() - rhs, trace)
    return Step3Report(
        final_residual=float(trace.last().fix_residual),
        max_violation=max_violation,
        worst_step=worst,
        ok=max_violation <= STEP_SLACK,
    )


@dataclass(frozen=True)
class Step4Report:
    """VI gap: <anchor - limit, xi_n - limit> vanishing, or decaying ~ c*eps_n."""

    vi_value: float
    fit_coeff: float
    fit_rel_residual: float
    ok: bool


def check_step4_vi(trace: ConvergenceTrace, anchor, limit) -> Step4Report:
    """Check the variational-inequality gap along the trace.

    vi_value is the maximum of v_n = <anchor - limit, xi_n - limit> over the
    tail window; the limit target is a limsup <= 0, so at finite n the check
    accepts either vi_value <= VI_TOL outright or a positive-decaying gap:
    v ~ c*eps fitted by least squares over the last half of the trace, with
    c >= 0 and relative fit residual <= VI_REL_TOL.
    """
    anchor = as_vector(anchor)
    limit = as_vector(limit)
    direction = anchor - limit
    values = _row_dots(_points(trace, limit.shape[0]) - limit, direction)
    eps = trace.eps_values()

    half = len(values) // 2 if len(values) >= 4 else 0
    v_fit = values[half:]
    e_fit = eps[half:]
    denom = float(np.dot(e_fit, e_fit))
    coeff = float(np.dot(v_fit, e_fit) / denom) if denom > 0.0 else 0.0
    scale = float(np.linalg.norm(v_fit))
    if scale <= 1e-15:
        rel = 0.0
    else:
        rel = float(np.linalg.norm(v_fit - coeff * e_fit) / scale)

    tail = len(trace.window(TAIL_FRACTION, MIN_WINDOW))
    # A NaN in the tail window is the VI value, and fails the check.
    vi_value = _largest(values[-tail:])
    ok = not math.isnan(vi_value) and (vi_value <= VI_TOL or (coeff >= -STEP_SLACK and rel <= VI_REL_TOL))
    return Step4Report(
        vi_value=float(vi_value),
        fit_coeff=coeff,
        fit_rel_residual=rel,
        ok=bool(ok),
    )


@dataclass(frozen=True)
class Step5Report:
    """Convergence of the iterates: oracle distance, or Cauchy tail spread."""

    distance: float
    used_oracle: bool
    ok: bool


def check_step5_convergence(
    trace: ConvergenceTrace, oracle_limit=None, tol: float = 1e-6
) -> Step5Report:
    """Measure how far the trace end is from its limit.

    With an oracle limit the distance is exact; without one the check falls
    back to the Cauchy proxy max step_delta over the tail window.
    """
    final = np.array(trace.last().point)
    if oracle_limit is not None:
        dist = norm(final - as_vector(oracle_limit))
        return Step5Report(distance=float(dist), used_oracle=True, ok=bool(dist <= tol))
    tail = trace.window(TAIL_FRACTION, MIN_WINDOW)
    # A NaN step_delta in the tail window is the distance, and fails the check.
    cauchy = _largest([s.step_delta for s in tail])
    return Step5Report(distance=float(cauchy), used_oracle=False, ok=bool(cauchy <= tol))


@dataclass(frozen=True)
class RetractionCheck:
    """Pairwise nonexpansiveness of anchored limits: ||R(x)-R(y)|| <= ||x-y||."""

    passed: bool
    max_excess: float
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]] | None


def check_retraction_nonexpansive(limits, tol: float = RETRACTION_SLACK) -> RetractionCheck:
    """Check every anchor pair in a {anchor: limit} mapping.

    max_excess is the largest ||R(x)-R(y)|| - ||x-y|| seen; the check passes
    when it stays below tol (ten outer tolerances by default, to absorb the
    finite-step error in each limit).
    """
    items = [(np.asarray(k, dtype=float), as_vector(v)) for k, v in dict(limits).items()]
    if len(items) < 2:
        raise ValueError("nonexpansiveness needs at least two anchored limits")
    max_excess = -np.inf
    worst = None
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            xi, ri = items[i]
            xj, rj = items[j]
            excess = norm(ri - rj) - norm(xi - xj)
            if excess > max_excess:
                max_excess = excess
                worst = (tuple(float(c) for c in xi), tuple(float(c) for c in xj))
    return RetractionCheck(passed=bool(max_excess <= tol), max_excess=float(max_excess), worst_pair=worst)


@dataclass(frozen=True)
class StagnationReport:
    """Residual stagnation evidence used to flag a missing fixed point."""

    stalled: bool
    tail_min: float
    head_min: float


def detect_no_common_fixed_point(
    trace: ConvergenceTrace, converged: bool, outer_tol: float
) -> StagnationReport:
    """Flag runs whose fixed-point residual neither met tol nor decayed.

    The rule: the run did not converge, the best residual in the tail window
    is still above outer_tol, and that tail best is no better than half the
    head-window best (so the residual is not trending down). Decaying
    residuals that merely miss the tolerance are not flagged. A NaN in a
    window is that window's best: a NaN tail best, or a NaN head best with
    the tail above outer_tol, shows neither the tolerance met nor a decay,
    so the run is flagged.
    """
    if converged or len(trace) == 0:
        return StagnationReport(stalled=False, tail_min=0.0, head_min=0.0)
    residuals = trace.fix_residuals()
    count = len(trace.window(TAIL_FRACTION, MIN_WINDOW))
    # numpy's min, unlike Python's, gives NaN whenever a NaN is among the values.
    tail_min, head_min = float(residuals[-count:].min()), float(residuals[:count].min())
    stalled = not (tail_min <= outer_tol or tail_min < 0.5 * head_min)
    return StagnationReport(stalled=stalled, tail_min=tail_min, head_min=head_min)


@dataclass(frozen=True)
class ProofStepReport:
    """Bundle of the stage checks for one run.

    The retraction slot is filled only when anchored limits were computed
    alongside the run; it needs more than one solve, so it cannot come from
    the trace alone.
    """

    step2: Step2Report
    step3: Step3Report
    step4: Step4Report
    step5: Step5Report
    retraction: RetractionCheck | None = None

    @property
    def ok(self) -> bool:
        stages = self.step2.ok and self.step3.ok and self.step4.ok and self.step5.ok
        if self.retraction is not None:
            stages = stages and self.retraction.passed
        return stages

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def build_proof_step_report(
    trace: ConvergenceTrace,
    f: Operator,
    T: Operator,
    fixed_point=None,
    fixed_set: FixedPointSet | None = None,
    oracle_limit=None,
    step5_tol: float = 1e-6,
    retraction_limits=None,
) -> ProofStepReport:
    """Run the stage checks against one trace.

    Parameters
    ----------
    trace : ConvergenceTrace
        Recorded run for a fixed target operator T (families are not
        supported here since step 3 needs T at every step).
    f : Operator
        The forcing contraction used in the run; its declared modulus feeds
        the boundedness constant.
    fixed_point, fixed_set : optional
        A known fixed point of T, or a linear fixed-point set to project
        onto. When neither is given the trace limit itself stands in, which
        is sound only for converged runs (and then skips the fixed-point
        verification).
    oracle_limit : optional
        Independently known limit for the step 5 distance check.
    retraction_limits : optional
        Mapping anchor -> anchored limit; when given, the pairwise
        nonexpansiveness check joins the report.
    """
    if len(trace) == 0:
        raise ValueError("cannot build a report from an empty trace")
    declared = f.declared_class
    if declared.kind != "contraction":
        raise ValueError("forcing term must declare a contraction modulus for the report")
    alpha = declared.alpha

    limit = as_vector(oracle_limit) if oracle_limit is not None else np.array(trace.last().point)
    verify_against = T
    if fixed_set is not None:
        p = fixed_set.project(limit)
    elif fixed_point is not None:
        p = as_vector(fixed_point)
    else:
        p = limit
        verify_against = None
    anchor = f.apply(limit)

    step2 = check_step2_bound(trace, f, alpha, p, T=verify_against)
    step3 = check_step3_residual(trace, f, T)
    step4 = check_step4_vi(trace, anchor, limit)
    step5 = check_step5_convergence(trace, oracle_limit=oracle_limit, tol=step5_tol)
    retraction = (
        check_retraction_nonexpansive(retraction_limits) if retraction_limits else None
    )
    return ProofStepReport(
        step2=step2, step3=step3, step4=step4, step5=step5, retraction=retraction
    )
