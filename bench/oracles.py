"""Output checks that share no code with the solver.

Each check rebuilds the problem from the generated inputs with plain numpy
and compares the program's output against a closed form or a dense linear
solve. Nothing here imports viscofix.

For a contraction G with modulus q, Picard's stopping rule certifies
||x - x*|| <= delta for the returned x, so each outer iterate must lie
within the step's inner tolerance delta_n of the exact implicit solution.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Absolute slack for rounding in the oracle's own arithmetic.
SLACK = 1e-10
#: Library defaults mirrored by the oracle: outer_tol and the coupled rule's constant.
DEFAULT_OUTER_TOL = 1e-8
DEFAULT_COUPLED_C = 1.0
#: The power iteration stops on a relative Rayleigh-quotient change of tol.
SIGMA_REL_TOL = 1e-6


class CheckFailed(Exception):
    """An op's output disagrees with the independent route."""


class KnownFailure(CheckFailed):
    """A failure expected at the seed commit and documented in BENCHMARK.json."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Problem data rebuilt from specs


def inner_tol(options: dict, eps: float) -> float:
    """delta_n of the configured inner rule: fixed, or min(outer_tol, c eps^2)."""
    rule = options.get("inner_tol", {"kind": "coupled"})
    if rule["kind"] == "fixed":
        return float(rule.get("value", 1e-10))
    outer_tol = float(options.get("outer_tol", DEFAULT_OUTER_TOL))
    return min(outer_tol, float(rule.get("value", DEFAULT_COUPLED_C)) * eps * eps)


def rotation_flow_matrix(rates, t: float) -> np.ndarray:
    """Block-diagonal rotation by rates[i] * t in planes (2i, 2i+1)."""
    m = np.zeros((2 * len(rates), 2 * len(rates)))
    for i, rate in enumerate(rates):
        c, s = math.cos(rate * t), math.sin(rate * t)
        m[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = [[c, -s], [s, c]]
    return m


def plane_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def affine_forcing(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.array(spec["matrix"], dtype=float), np.array(spec["offset"], dtype=float)


def target_matrix(problem: dict) -> np.ndarray:
    """Matrix of a linear target: a one-rate-per-plane rotation flow at t = grid[0], or a linear spec."""
    if "family" in problem:
        family = problem["family"]
        require(len(family["grid"]) == 1, "oracle expects a single-index rotation flow")
        return rotation_flow_matrix(family["rates"], family["grid"][0])
    return np.array(problem["target"]["matrix"], dtype=float)


def rotation_ball_parts(target: dict) -> tuple[np.ndarray, float]:
    """(R, radius) of the composite 'rotate, then project onto a centred ball'."""
    rotation, ball = target["operators"]
    require(not any(ball["center"]), "oracle expects a ball centred at the origin")
    return plane_rotation(rotation["angle"]), float(ball["radius"])


# ---------------------------------------------------------------------------
# Per-step checks


def check_affine_steps(eps, points, forcing: dict, matrix: np.ndarray, options: dict) -> None:
    """Each x_n against a direct solve of (I - M_n) x = eps_n c.

    M_n = eps_n A + (1 - eps_n) T for f(x) = A x + c and linear T.
    """
    a, c = affine_forcing(forcing)
    eye = np.eye(len(c))
    for n, (e, x) in enumerate(zip(eps, points), start=1):
        exact = np.linalg.solve(eye - (e * a + (1.0 - e) * matrix), e * c)
        gap = float(np.linalg.norm(x - exact))
        require(gap <= inner_tol(options, e) + SLACK,
                f"step {n}: |x - x*| = {gap:.3e} exceeds the inner tolerance")


def ball_step(center, radius: float, anchor, eps: float) -> np.ndarray:
    """Exact solution of x = eps a + (1 - eps) P_B(x) for constant forcing a."""
    center = np.asarray(center, dtype=float)
    offset = np.asarray(anchor, dtype=float) - center
    dist = float(np.linalg.norm(offset))
    if dist <= radius:
        return center + offset
    return center + (eps * dist + (1.0 - eps) * radius) * (offset / dist)


def check_ball_steps(eps, points, ball: dict, anchor, options: dict) -> None:
    for n, (e, x) in enumerate(zip(eps, points), start=1):
        exact = ball_step(ball["center"], ball["radius"], anchor, e)
        gap = float(np.linalg.norm(x - exact))
        require(gap <= inner_tol(options, e) + SLACK,
                f"step {n}: |x - x*| = {gap:.3e} exceeds the inner tolerance")


def check_box_steps(eps, points, box: dict, anchor, options: dict) -> None:
    """Constant forcing a onto a box: x*_n = clip(a) + eps_n (a - clip(a))."""
    anchor = np.asarray(anchor, dtype=float)
    clipped = np.clip(anchor, box["lower"], box["upper"])
    for n, (e, x) in enumerate(zip(eps, points), start=1):
        gap = float(np.linalg.norm(x - (clipped + e * (anchor - clipped))))
        require(gap <= inner_tol(options, e) + SLACK,
                f"step {n}: |x - x*| = {gap:.3e} exceeds the inner tolerance")


def _project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    r = float(np.linalg.norm(x))
    return x if r <= radius else x * (radius / r)


def check_rotation_ball_steps(eps, points, forcing: dict, target: dict, options: dict) -> None:
    """Implicit residual at every step, a dense solve wherever it is exact.

    Inside the ball T = R is linear, so when the solution y of
    (I - eps A - (1 - eps) R) y = eps c lies in the ball it is the exact
    implicit solution and x_n must be within delta_n of it.
    """
    a, c = affine_forcing(forcing)
    rot, radius = rotation_ball_parts(target)
    eye = np.eye(2)
    for n, (e, x) in enumerate(zip(eps, points), start=1):
        delta = inner_tol(options, e)
        blended = e * (a @ x + c) + (1.0 - e) * (rot @ _project_ball(x, radius))
        res = float(np.linalg.norm(x - blended))
        require(res <= delta + SLACK, f"step {n}: implicit residual {res:.3e} exceeds {delta:.3e}")
        linear = np.linalg.solve(eye - e * a - (1.0 - e) * rot, e * c)
        if np.linalg.norm(linear) <= radius:
            gap = float(np.linalg.norm(x - linear))
            require(gap <= delta + SLACK, f"step {n}: |x - x*| = {gap:.3e} exceeds {delta:.3e}")


def check_rotation_ball_retraction(anchor, point, target: dict, n_max: int) -> None:
    """Anchored limit at step N: eps = 1/N, forcing the anchor; Fix T = {0}.

    Inside the ball the last step solves (I - (1 - 1/N) R) y = a / N, whose
    solution tends to the fixed set {0} as N grows.
    """
    rot, radius = rotation_ball_parts(target)
    eps = 1.0 / n_max
    delta = inner_tol({}, eps)
    exact = np.linalg.solve(np.eye(2) - (1.0 - eps) * rot, eps * np.asarray(anchor, dtype=float))
    require(np.linalg.norm(exact) <= radius, "anchor too far out for the linear oracle")
    gap = float(np.linalg.norm(np.asarray(point) - exact))
    require(gap <= delta + SLACK, f"anchor {anchor}: |x - x*| = {gap:.3e} exceeds {delta:.3e}")
    distance = float(np.linalg.norm(point))
    require(distance <= float(np.linalg.norm(exact)) + delta + SLACK,
            f"anchor {anchor}: distance {distance:.3e} to Fix T = {{0}} exceeds the oracle's")


# ---------------------------------------------------------------------------
# CLI artifacts


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(eps, points) from a trace.csv, parsed without the package's loader."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    require(bool(body), f"{path} has no steps")
    eps_col = header.index("eps")
    first_x = header.index("x0")
    eps = np.array([float(r[eps_col]) for r in body])
    points = np.array([[float(v) for v in r[first_x:]] for r in body])
    return eps, points


def check_run_artifacts(out_dir, cfg: dict) -> None:
    """Check a `run` output directory against the oracle for its config."""
    eps, points = read_trace_csv(out_dir / "trace.csv")
    problem, options = cfg["problem"], cfg.get("options", {})
    forcing = problem["contraction"]
    target = problem.get("target", {})
    if target.get("kind") == "projection_ball":
        check_ball_steps(eps, points, target, forcing["value"], options)
    elif target.get("kind") == "projection_box":
        check_box_steps(eps, points, target, forcing["value"], options)
    else:
        check_affine_steps(eps, points, forcing, target_matrix(problem), options)


def check_ball_retraction(summary: dict, cfg: dict) -> None:
    """Anchored limits on a ball: the retraction is the projection itself."""
    ball = cfg["problem"]["target"]
    retraction = summary["retraction"]
    require(retraction is not None and retraction["passed"], "retraction check did not pass")
    require(not retraction["failures"], f"anchor failures: {retraction['failures']}")
    limits = {tuple(item["anchor"]): item["limit"] for item in retraction["limits"]}
    require(len(limits) == len(cfg["anchors"]), "missing anchored limits")
    n_max = cfg["schedule"]["n_max"]
    for anchor in cfg["anchors"]:
        exact = ball_step(ball["center"], ball["radius"], anchor, 1.0 / n_max)
        gap = float(np.linalg.norm(np.asarray(limits[tuple(anchor)]) - exact))
        require(gap <= inner_tol({}, 1.0 / n_max) + SLACK, f"anchor {anchor}: limit off by {gap:.3e}")


def check_certificate(payload: dict, matrix, tol: float) -> None:
    sigma = float(np.linalg.norm(np.asarray(matrix), 2))
    require(abs(payload["sigma"] - sigma) <= SIGMA_REL_TOL * sigma,
            f"sigma {payload['sigma']!r} differs from the SVD's {sigma!r}")
    require(payload["residual"] <= tol, f"certificate residual {payload['residual']:.3e} > {tol}")
    require(payload["attained"] is True, "certificate reports attained = false")


def check_family_report(payload: dict) -> None:
    require(payload["max_defect"] <= payload["tol"],
            f"composition defect {payload['max_defect']:.3e} exceeds {payload['tol']}")
    require(payload["passed"] is True, "family check reports passed = false")
