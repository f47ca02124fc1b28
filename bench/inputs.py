"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the seed: rotation
rates and angles, forcing directions, anchors, box bounds and matrices.
Seeded values stay inside narrow bands so that the amount of solver work
(outer steps, inner iterations) is nearly the same from seed to seed; the
spread between runs with different seeds is then timing noise, not a
change of problem size.

The 0.1 rad `linear` rotation in `cli-pipeline` is deliberately not
seeded: its computed 2-norm is 1 + 2**-52, so it is classed `unknown` and
costs a 1000-sample nonexpansiveness probe, a known cost this benchmark
keeps visible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("solve-affine", "solve-nonaffine", "cli-pipeline")

#: Relative jitter applied to rotation rates and angles. Vector norms are
#: fixed and only directions are seeded: a 5% larger forcing offset alone
#: adds 2% inner iterations to the d = 2 rotation solve.
RATE_JITTER = 0.002


def _jitter(rng, value: float, rel: float = RATE_JITTER) -> float:
    return float(value * (1.0 + rng.uniform(-rel, rel)))


def _direction(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def _vector(rng, dim: int, length: float) -> list[float]:
    """A vector of the given length in a seeded direction."""
    return (_direction(rng, dim) * length).tolist()


def _half_affine(offset) -> dict:
    """Spec of the forcing term f(x) = x/2 + offset, a 0.5-contraction."""
    dim = len(offset)
    return {"kind": "affine", "matrix": (0.5 * np.eye(dim)).tolist(), "offset": list(offset)}


def _rotation_ball(rng) -> dict:
    """Rotation of the plane composed with projection onto the unit ball; Fix = {0}."""
    return {
        "kind": "composite",
        "operators": [
            {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": _jitter(rng, 1.0)},
            {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
    }


def solve_affine(rng) -> dict:
    return {
        "ops": [
            {
                # d = 2 takes the hand-unrolled affine Picard loop.
                "name": "rotation-d2-n2000",
                "kind": "solve",
                "contraction": _half_affine(_vector(rng, 2, 1.0)),
                "family": {"kind": "rotation_flow", "rates": [_jitter(rng, 1.0)], "grid": [1.0]},
                "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 2000},
                "options": {
                    "outer_tol": 1e-6,
                    "inner_tol": {"kind": "fixed", "value": 1e-4},
                    "max_iter": 50_000,
                },
            },
            {
                # d = 8 is above the fast-path dimension: generic numpy loop.
                "name": "rotation-d8-n100",
                "kind": "solve",
                "contraction": _half_affine(_vector(rng, 8, 1.0)),
                "family": {
                    "kind": "rotation_flow",
                    "rates": [_jitter(rng, r) for r in (1.0, 0.7, 1.3, 0.4)],
                    "grid": [1.0],
                },
                "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 100},
                "options": {},
            },
        ]
    }


def solve_nonaffine(rng) -> dict:
    target = _rotation_ball(rng)
    return {
        "ops": [
            {
                "name": "rotation-ball-d2-n100",
                "kind": "solve",
                "contraction": _half_affine(_vector(rng, 2, 1.0)),
                "target": target,
                "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 100},
                "options": {},
            },
            {
                "name": "retraction-3-anchors-n50",
                "kind": "retraction",
                "target": target,
                "anchors": [_vector(rng, 2, 3.0) for _ in range(3)],
                "n_max": 50,
            },
        ]
    }


def _ball_config(rng, schedule: dict, anchors: int) -> dict:
    center = rng.uniform(-0.1, 0.1, size=2)
    cfg = {
        "problem": {
            "target": {"kind": "projection_ball", "center": center.tolist(), "radius": 1.0},
            "contraction": {"kind": "constant", "value": (center + _vector(rng, 2, 2.0)).tolist()},
        },
        "schedule": schedule,
    }
    if anchors:
        cfg["anchors"] = [(center + _vector(rng, 2, r)).tolist() for r in (0.5, 1.2, 2.0, 2.5, 3.0)[:anchors]]
    return cfg


def _linear_rotation_spec(angle: float) -> dict:
    c, s = math.cos(angle), math.sin(angle)
    return {"kind": "linear", "matrix": [[c, -s], [s, c]]}


def _spectral_matrix(rng, dim: int) -> list[list[float]]:
    """U diag(s) V^T with seeded orthogonal U, V and a fixed spectrum.

    The fixed singular values (top two 2.0 and 1.6) pin the power
    iteration's convergence rate, so its iteration count barely moves with
    the seed.
    """
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spectrum = np.linspace(1.2, 0.1, dim)
    spectrum[:2] = (2.0, 1.6)
    return ((u * spectrum) @ v.T).tolist()


def cli_pipeline(rng, seed: int) -> dict:
    rotation = {
        "problem": {
            "family": {"kind": "rotation_flow", "rates": [_jitter(rng, 1.0)], "grid": [1.0]},
            "contraction": _half_affine(_vector(rng, 2, 1.0)),
        },
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 50},
    }
    lower = rng.uniform(-1.2, -0.8, size=3)
    upper = rng.uniform(0.8, 1.2, size=3)
    configs = {
        "anchored-ball": _ball_config(rng, {"kind": "anchored", "n_max": 200}, anchors=5),
        "rotation-flow": rotation,
        "linear-rotation": {
            "problem": {
                "target": _linear_rotation_spec(0.1),
                "contraction": _half_affine(_vector(rng, 2, 1.0)),
            },
            "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 50},
        },
        "box": {
            "problem": {
                "target": {"kind": "projection_box", "lower": lower.tolist(), "upper": upper.tolist()},
                "contraction": {"kind": "constant", "value": _vector(rng, 3, 2.0)},
            },
            "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 400},
        },
        "geometric-ball": _ball_config(
            rng, {"kind": "geometric", "params": {"r": 0.9}, "n_max": 50}, anchors=0
        ),
    }
    for name, cfg in configs.items():
        cfg["seed"] = seed
        cfg["problem_id"] = name
    plane = [[0, 1], [1, 2], [0, 2]][int(rng.integers(3))]
    family = {"kind": "power", "base": {"kind": "rotation", "dim": 3, "plane": plane,
                                         "angle": float(rng.uniform(0.3, 1.2))}}
    commands = [
        {"name": name, "argv": ["run", f"{name}.json", "--out", f"out/{name}", "--quiet"]}
        for name in configs
    ]
    commands += [
        {"name": "sweep-p", "argv": ["sweep", "rotation-flow.json", "--param", "schedule.p",
                                      "--values", "0.5", "1", "2", "--out", "out/sweep-p", "--quiet"]},
        {"name": "certify-na", "argv": ["certify-na", "matrix.json"]},
        {"name": "check-family", "argv": ["check-family", "family.json"]},
    ]
    return {
        "configs": configs,
        "matrix": _spectral_matrix(rng, 40),
        "family": family,
        "commands": commands,
    }


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload for one seed; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "solve-affine":
        return solve_affine(rng)
    if workload == "solve-nonaffine":
        return solve_nonaffine(rng)
    return cli_pipeline(rng, seed)


def write(workload: str, seed: int, work: Path) -> None:
    """Write inputs.json, plus the CLI's input files for cli-pipeline, into work."""
    inputs = generate(workload, seed)
    if workload == "cli-pipeline":
        for name, cfg in inputs["configs"].items():
            (work / f"{name}.json").write_text(json.dumps(cfg, indent=1))
        (work / "matrix.json").write_text(json.dumps({"matrix": inputs["matrix"]}))
        (work / "family.json").write_text(json.dumps(inputs["family"]))
    (work / "inputs.json").write_text(json.dumps({"workload": workload, "seed": seed, **inputs}))
