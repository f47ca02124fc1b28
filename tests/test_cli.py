"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsonschema
from jsonschema.validators import validator_for

from viscofix import cli, diagnostics, load_trace, schemes, semigroup
from viscofix.cli import RUN_CONFIG_SCHEMA, ConfigInvalid, config_hash, load_run_config, main
from viscofix.operators import make_operator
from viscofix.space import DEFAULT_SEED

from oracles import ALL_ONES_FALLS_SHORT

BALL_PROBLEM = {
    "target": {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
    "contraction": {"kind": "constant", "value": [2.0, 0.0]},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _ball_config(n_max=40):
    return {
        "problem": copy.deepcopy(BALL_PROBLEM),
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": n_max},
        "seed": 42,
        "problem_id": "ball",
    }


def _read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# ---------------------------------------------------------------------------
# run


def test_run_ball_writes_artifacts(tmp_path, capsys):
    cfg = _ball_config()
    cfg_path = _write(tmp_path, "ball.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    for name in ("trace.csv", "trace.json", "summary.json"):
        assert (out / name).exists()
    summary = _read_summary(out)
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["seed"] == 42
    assert summary["problem_id"] == "ball"
    assert summary["outer_steps"] == 40
    assert summary["exit_code"] == 0
    assert summary["limit"][0] == pytest.approx(1.0 + 1.0 / 41.0, abs=1e-8)
    first_line = (out / "trace.csv").read_text().splitlines()[0]
    assert first_line == f"# config_hash={config_hash(cfg)} seed=42"


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = _write(tmp_path, "ball.json", _ball_config())
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(first), "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--out", str(second), "--quiet"]) == 0
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_run_record_holds_the_metadata_and_the_stop_record(tmp_path):
    # Fix T = span{e1}, and the run ends at n_max without meeting outer_tol.
    cfg = {
        "problem": {
            "target": {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 0.0]]},
            "contraction": {"kind": "affine", "matrix": [[0.0, -0.5], [0.5, 0.0]], "offset": [1.0, 1.0]},
        },
        "schedule": {"kind": "harmonic", "n_max": 2000},
        "options": {"outer_tol": 1e-6},
        "seed": 7,
    }
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "fix-e1.json", cfg)), "--out", str(out), "--quiet"]) == 0
    text = (out / "trace.json").read_text()
    record = json.loads(text)
    assert text.count("\n") == 1 and sorted(record) == ["metadata", "schema"] and record["schema"] == 2
    metadata = record["metadata"]
    assert metadata["config_hash"] == config_hash(cfg) and metadata["seed"] == 7
    assert metadata["timestamps"]["started"] <= metadata["timestamps"]["finished"]
    assert metadata["stop"] == {"reason": "n_max", "n": 2000}
    summary = _read_summary(out)
    assert not summary["converged"] and summary["outer_steps"] == 2000 and "stop" not in summary


@pytest.mark.parametrize(
    "problem, schedule, paths",
    [
        # The benchmark's anchored-ball run: step 1 starts inside the ball
        # and solves its piece; every later step keeps its handed-on image.
        (
            {
                "target": {"kind": "projection_ball", "center": [-0.0855, 0.0052], "radius": 1.0},
                "contraction": {"kind": "constant", "value": [-0.467, -1.958]},
            },
            {"kind": "anchored", "n_max": 200},
            {"image": 199, "piece": 1},
        ),
        # A rotation flow's blends all collapse to one affine map.
        (
            {
                "family": {"kind": "rotation_flow", "rates": [1.0], "grid": [1.0]},
                "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.6, -0.8]},
            },
            {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 50},
            {"collapsed": 50},
        ),
    ],
)
def test_the_run_record_counts_the_steps_by_path(tmp_path, problem, schedule, paths):
    cfg = {"problem": problem, "schedule": schedule, "seed": 4242}
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "cfg.json", cfg)), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "trace.json").read_text())["metadata"]["paths"] == paths
    # The step table and the summary carry no path.
    assert "paths" not in _read_summary(out)
    assert "path" not in (out / "trace.csv").read_text()


def test_run_seed_override_changes_the_hash(tmp_path):
    cfg = _ball_config()
    cfg_path = _write(tmp_path, "ball.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "7", "--quiet"]) == 0
    summary = _read_summary(out)
    assert summary["seed"] == 7
    reseeded = dict(cfg, seed=7)
    assert summary["config_hash"] == config_hash(reseeded)
    assert summary["config_hash"] != config_hash(cfg)


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    cfg_path = _write(tmp_path, "ball.json", _ball_config())
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "5", "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert _read_summary(tmp_path / "a")["seed"] == 5
    assert _read_summary(tmp_path / "b")["seed"] == 42


def _rotation_config(angle, scale=1.0):
    c, s = math.cos(angle), math.sin(angle)
    return {
        "problem": {
            "target": {"kind": "linear", "matrix": [[scale * c, -scale * s], [scale * s, scale * c]]},
            "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.3, 0.4]},
        },
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 30},
        "seed": 3,
        "problem_id": "rotation",
    }


def _count_probes(monkeypatch):
    probes = []
    original = semigroup.check_nonexpansive

    def counted(*args, **kwargs):
        probes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semigroup, "check_nonexpansive", counted)
    return probes


def test_run_of_a_rotation_needs_no_nonexpansive_probe(tmp_path, monkeypatch):
    # The 0.1 rad rotation's computed 2-norm is 1 + 2^-52: 1 up to rounding.
    probes = _count_probes(monkeypatch)
    cfg_path = _write(tmp_path, "rotation.json", _rotation_config(0.1))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert probes == []


def test_run_of_a_slightly_expansive_map_is_still_probed(tmp_path, monkeypatch):
    probes = _count_probes(monkeypatch)
    cfg_path = _write(tmp_path, "rotation.json", _rotation_config(0.1, scale=1.0 + 1e-12))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(probes) == 1


def test_run_probes_an_undeclared_target_once_for_its_solve_and_anchors(tmp_path, capsys, monkeypatch):
    # A norm of 1 + 1e-12 lies past rounding but within the probe's tolerance.
    target = {"kind": "linear", "matrix": [[1.000000000001, 0.0], [0.0, 0.5]]}
    anchors = [[3.0, 0.0], [0.0, -3.0], [-2.0, 2.0]]
    cfg = {
        "problem": {"target": target, "contraction": {"kind": "constant", "value": [2.0, 1.0]}},
        "schedule": {"kind": "anchored", "n_max": 50},
        "anchors": anchors,
        "seed": 5,
    }
    probes = _count_probes(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "probe.json", cfg)), "--out", str(out), "--quiet"]) == 0
    assert len(probes) == 1
    rows = _read_summary(out)["retraction"]["limits"]
    limits = {tuple(row["anchor"]): [c.hex() for c in row["limit"]] for row in rows}
    # retraction_eval on the unresolved target probes it once for its three anchors.
    unresolved = schemes.retraction_eval(make_operator(target), anchors, n_max=50)
    assert limits == {a: [float(c).hex() for c in limit] for a, limit in unresolved.limits.items()}
    assert len(probes) == 2
    # A dimension mismatch is still reported before any probe.
    cfg["problem"]["target"] = {"kind": "linear", "matrix": (1.000000000001 * np.eye(3)).tolist()}
    assert main(["run", str(_write(tmp_path, "probe.json", cfg)), "--out", str(out), "--quiet"]) == 1
    assert "DimensionMismatch: operator dimension 3 does not match forcing dimension 2" in capsys.readouterr().err
    assert len(probes) == 2


def test_run_probes_an_undeclared_custom_family_member_once(tmp_path, monkeypatch):
    # The family keeps its member as the main solve resolved it, so the
    # anchored solves of the retraction check take it without a probe.
    member = {"kind": "linear", "matrix": [[1.000000000001, 0.0], [0.0, 0.5]]}
    anchors = [[3.0, 0.0], [0.0, -3.0], [-2.0, 2.0]]
    cfg = {
        "problem": {"family": {"kind": "custom", "table": {"1": member}}, "contraction": {"kind": "constant", "value": [2.0, 1.0]}},
        "schedule": {"kind": "anchored", "n_max": 50},
        "anchors": anchors,
        "seed": 5,
    }
    probes = _count_probes(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "family.json", cfg)), "--out", str(out), "--quiet"]) == 0
    assert len(probes) == 1
    retraction = _read_summary(out)["retraction"]
    assert len(retraction["limits"]) == 3 and retraction["failures"] == {}


def test_run_bad_schedule_exits_one(tmp_path, capsys):
    cfg = _ball_config()
    cfg["schedule"] = {"kind": "explicit", "params": {"values": [0.5, 0.6]}}
    cfg_path = _write(tmp_path, "bad.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "schedule not strictly decreasing" in capsys.readouterr().err


def test_run_rejects_a_schedule_param_its_kind_does_not_read(tmp_path, capsys):
    cfg = _ball_config()
    cfg["schedule"]["params"] = {"q": 2}
    cfg_path = _write(tmp_path, "bad.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: InvalidSchedule: unknown schedule param 'q' for kind 'harmonic', which reads 'p'\n"
    assert not (tmp_path / "o").exists()


def _count_solves(monkeypatch):
    solves = []
    original = cli.viscosity_implicit_solve

    def counted(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "viscosity_implicit_solve", counted)
    return solves


@pytest.mark.parametrize("where", ["flag", "config", "parent"])
def test_run_rejects_an_output_path_that_is_a_file_before_solving(tmp_path, capsys, monkeypatch, where):
    solves = _count_solves(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    out = taken / "sub" if where == "parent" else taken
    cfg = _ball_config()
    argv = ["run", "--quiet"]
    if where == "config":
        cfg["output_dir"] = str(out)
    else:
        argv += ["--out", str(out)]
    assert main(argv + [str(_write(tmp_path, "ball.json", cfg))]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {out} is not a directory: {taken} exists and is not one\n"
    assert solves == [] and taken.read_text() == "keep me"


def test_run_writes_into_an_existing_directory(tmp_path):
    cfg_path = _write(tmp_path, "ball.json", _ball_config())
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert _read_summary(out)["exit_code"] == 0


def test_run_translation_exits_two_and_reports_stagnation(tmp_path, capsys):
    cfg = {
        "problem": {
            "target": {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [1.0, 0.0]},
            "contraction": {"kind": "constant", "value": [0.0, 0.0]},
        },
        "schedule": {"kind": "harmonic", "n_max": 30},
        "seed": 42,
        "problem_id": "translation",
    }
    cfg_path = _write(tmp_path, "translation.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    assert "NoCommonFixedPoint" in capsys.readouterr().err
    summary = _read_summary(out)
    assert summary["stagnation"]["stalled"] is True
    assert summary["converged"] is False
    assert summary["exit_code"] == 2


def test_run_stagnation_names_the_last_outer_step(tmp_path, capsys):
    # The translation x -> x + (0, 1) has no fixed point, so the fixed-point
    # residual stays at 1 for every outer step.
    cfg = {
        "problem": {
            "target": {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 1.0]},
            "contraction": {"kind": "constant", "value": [3.0, 0.0]},
        },
        "schedule": {"kind": "harmonic", "n_max": 25},
        "seed": 7,
        "problem_id": "shift",
    }
    cfg_path = _write(tmp_path, "shift.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    stagnation = _read_summary(out)["stagnation"]
    assert err.startswith("NoCommonFixedPoint: fixed-point residual stagnated above tolerance")
    assert f"outer step n=25, eps_n={1 / 26:.6g}" in err
    assert f"tail min {stagnation['tail_min']:.6g}" in err
    assert f"head min {stagnation['head_min']:.6g}" in err


def test_run_stagnation_names_q_n_of_the_last_outer_step(tmp_path, capsys):
    # A half-contraction forcing term: q_n = 1 - eps_n (1 - 0.5) at the last step.
    cfg = {
        "problem": {
            "target": {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 1.0]},
            "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 0.0]},
        },
        "schedule": {"kind": "harmonic", "n_max": 25},
        "seed": 7,
        "problem_id": "shift",
    }
    cfg_path = _write(tmp_path, "shift.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    eps = 1 / 26
    assert f"outer step n=25, eps_n={eps:.6g}, q_n={1.0 - eps * 0.5:.12g}: " in err
    summary = (out / "summary.json").read_bytes()
    trace_csv = (out / "trace.csv").read_bytes()
    # The line goes to stderr only: a rerun writes the same artifacts.
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "again"), "--quiet"]) == 2
    assert (tmp_path / "again" / "summary.json").read_bytes() == summary
    assert (tmp_path / "again" / "trace.csv").read_bytes() == trace_csv
    assert b"q_n" not in summary and b"q_n" not in trace_csv


def test_run_stagnation_probes_an_undeclared_forcing_term_once(tmp_path, capsys, monkeypatch):
    # x -> (2x) / 4 + (1, 0) as a composite: a 0.5-contraction whose class
    # the catalog cannot declare, so the solve estimates it with a probe.
    estimates = []
    original = schemes.estimate_lipschitz

    def counted(*args, **kwargs):
        estimates.append(original(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(schemes, "estimate_lipschitz", counted)
    cfg = {
        "problem": {
            "target": {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 1.0]},
            "contraction": {
                "kind": "composite",
                "operators": [
                    {"kind": "linear", "matrix": [[2.0, 0.0], [0.0, 2.0]]},
                    {"kind": "affine", "matrix": [[0.25, 0.0], [0.0, 0.25]], "offset": [1.0, 0.0]},
                ],
            },
        },
        "schedule": {"kind": "harmonic", "n_max": 25},
        "seed": 7,
        "problem_id": "shift",
    }
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "shift.json", cfg)), "--out", str(out), "--quiet"]) == 2
    assert len(estimates) == 1
    err = capsys.readouterr().err
    stagnation = _read_summary(out)["stagnation"]
    eps = 1 / 26
    assert err == (
        "NoCommonFixedPoint: fixed-point residual stagnated above tolerance "
        f"(outer step n=25, eps_n={eps:.6g}, q_n={1.0 - eps * (1.0 - estimates[0]):.12g}: "
        f"tail min {stagnation['tail_min']:.6g}, head min {stagnation['head_min']:.6g})\n"
    )


def test_run_proof_report_takes_the_probed_modulus_of_an_undeclared_forcing_term(tmp_path):
    # x -> 0.5 (1.5 x) + (1, 0.5): Lipschitz constant 0.75, but classed
    # unknown, so the report needs the contraction the solve resolved.
    cfg = {
        "problem": {
            "target": {"kind": "projection_ball", "center": [0.0, 0.0], "radius": 1.0},
            "contraction": {
                "kind": "composite",
                "operators": [
                    {"kind": "linear", "matrix": [[1.5, 0.0], [0.0, 1.5]]},
                    {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 0.5]},
                ],
            },
        },
        "schedule": {"kind": "harmonic", "n_max": 30},
        "seed": 3,
    }
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "probed.json", cfg)), "--out", str(out), "--quiet"]) == 0
    summary = _read_summary(out)
    assert summary["proof_steps_error"] is None
    assert summary["proof_steps"] is not None


def test_run_inner_budget_exhaustion_exits_two(tmp_path, capsys):
    # A constant contraction solves each inner problem in one application, so
    # the budget needs a genuinely iterative contraction to bite.
    cfg = _ball_config()
    cfg["problem"]["contraction"] = {
        "kind": "affine",
        "matrix": [[0.9, 0.0], [0.0, 0.9]],
        "offset": [2.0, 0.0],
    }
    cfg["options"] = {"max_iter": 3}
    cfg_path = _write(tmp_path, "tight.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "MaxIterExceeded" in capsys.readouterr().err


def test_run_non_finite_inner_value_exits_two(tmp_path, capsys):
    # x = f(x) = x/2 + c has the solution 2c, which overflows, so the inner
    # iterates of the first outer step reach inf.
    cfg = _ball_config()
    cfg["problem"] = {
        "target": {"kind": "identity", "dim": 5},
        "contraction": {"kind": "affine", "matrix": (0.5 * np.eye(5)).tolist(), "offset": [1.7e308] * 5},
    }
    cfg_path = _write(tmp_path, "overflow.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "NonFiniteValue" in capsys.readouterr().err


def test_run_non_finite_inner_value_exits_two_in_the_plane(tmp_path, capsys):
    # The same overflowing inner problem at d = 2, lifted on plain floats.
    cfg = _ball_config()
    cfg["problem"] = {
        "target": {"kind": "identity", "dim": 2},
        "contraction": {"kind": "affine", "matrix": (0.5 * np.eye(2)).tolist(), "offset": [1.7e308] * 2},
    }
    cfg_path = _write(tmp_path, "overflow.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "NonFiniteValue" in err
    assert "outer step n=1," in err and "operator kind 'affine'" in err


def _count_checks(monkeypatch):
    """Names of the step 5 and retraction checks called, through cli's bindings or diagnostics' own."""
    calls = []
    for name in ("check_step5_convergence", "check_retraction_nonexpansive"):

        def counted(*args, _name=name, _original=getattr(diagnostics, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (cli, diagnostics):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_run_anchored_with_anchors_reports_retraction(tmp_path, monkeypatch):
    checks = _count_checks(monkeypatch)
    cfg = {
        "problem": {
            "target": {"kind": "negation", "dim": 1},
            "contraction": {"kind": "constant", "value": [1.0]},
        },
        "schedule": {"kind": "anchored", "n_max": 60},
        "anchors": [[1.0], [-1.0], [0.5]],
        "seed": 42,
        "problem_id": "anchored-negation",
    }
    cfg_path = _write(tmp_path, "anchored.json", cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    summary = _read_summary(out)
    retraction = summary["retraction"]
    assert retraction["passed"] is True
    assert len(retraction["limits"]) == 3
    assert retraction["failures"] == {}
    assert summary["limit"][0] == pytest.approx(1.0 / 119.0, abs=1e-8)
    # The summary and the proof-step report share one step 5 and one retraction check.
    assert sorted(checks) == ["check_retraction_nonexpansive", "check_step5_convergence"]
    proof = summary["proof_steps"]
    assert summary["tail_spread"] == proof["step5"]["distance"]
    assert retraction["max_excess"] == proof["retraction"]["max_excess"]


def test_run_without_a_proof_report_still_reports_its_tail_spread(tmp_path, monkeypatch):
    checks = _count_checks(monkeypatch)
    cfg = {
        "problem": {
            "family": {"kind": "rotation_flow", "rates": [1.0], "grid": [1.0, 2.0]},
            "contraction": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 1.0]},
        },
        "schedule": {"kind": "harmonic", "n_max": 50},
        "seed": 1,
    }
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "flow.json", cfg)), "--out", str(out), "--quiet"]) == 0
    summary = _read_summary(out)
    assert summary["proof_steps"] is None
    assert summary["proof_steps_error"] == "proof-step report needs a single step operator"
    assert checks == ["check_step5_convergence"]
    assert summary["tail_spread"] == diagnostics.check_step5_convergence(load_trace(out / "trace.csv")).distance


def test_run_anchored_needs_constant_contraction(tmp_path, capsys):
    cfg = {
        "problem": {
            "target": {"kind": "negation", "dim": 1},
            "contraction": {"kind": "affine", "matrix": [[0.5]], "offset": [1.0]},
        },
        "schedule": {"kind": "anchored", "n_max": 10},
        "seed": 42,
    }
    cfg_path = _write(tmp_path, "anchored-bad.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("seed"), "seed"),
        (lambda c: c.update(extra_knob=1), "extra_knob"),
        (lambda c: c["schedule"].update(kind="spiral"), "spiral"),
        (lambda c: c["problem"].update(family={"kind": "power"}), "problem"),
    ],
)
def test_run_schema_rejections(tmp_path, capsys, mutate, fragment):
    cfg = _ball_config()
    mutate(cfg)
    cfg_path = _write(tmp_path, "bad.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config invalid" in err or fragment in err


def test_run_config_schema_passes_its_metaschema():
    # The validator is built once, so nothing checks the schema at run time.
    validator_for(RUN_CONFIG_SCHEMA).check_schema(RUN_CONFIG_SCHEMA)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("seed"),
        lambda c: c.update(extra_knob=1),
        lambda c: c["schedule"].update(kind="spiral"),
        lambda c: c["problem"].update(family={"kind": "power"}),
        lambda c: c["schedule"].update(n_max=0),
        lambda c: c.update(options={"outer_tol": -1.0, "warm_start": "yes"}),
        lambda c: c.update(anchors=[[1.0, "a"], []]),
        lambda c: c["problem"].pop("contraction"),
        lambda c: c.update(seed=True),
        lambda c: c["schedule"].update(n_max=2.5),
        lambda c: c.update(options={"outer_tol": 0}),
        lambda c: c.update(options={"max_iter": 0}),
        lambda c: c["problem"].update(family={"kind": "power"}),
        lambda c: c.update(anchors=[[]]),
        lambda c: c.update(options={"inner_tol": {"kind": "fixed", "value": -1}}),
        lambda c: c.update(output_dir=3),
    ],
)
def test_run_config_errors_match_jsonschema_validate(tmp_path, mutate):
    cfg = _ball_config()
    mutate(cfg)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, RUN_CONFIG_SCHEMA)
    where = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(ConfigInvalid) as raised:
        load_run_config(_write(tmp_path, "bad.json", cfg))
    assert str(raised.value) == f"config invalid at {where}: {expected.value.message}"


def test_an_integral_float_seed_is_an_integer(tmp_path):
    cfg = _ball_config()
    cfg["seed"] = 3.0
    jsonschema.validate(cfg, RUN_CONFIG_SCHEMA)
    assert load_run_config(_write(tmp_path, "seed.json", cfg))["seed"] == 3.0


def _subschemas(schema):
    yield schema
    for key, arg in schema.items():
        if key == "properties":
            subs = arg.values()
        elif key == "oneOf":
            subs = arg
        elif key in ("items", "additionalProperties") and isinstance(arg, dict):
            subs = [arg]
        else:
            subs = []
        for sub in subs:
            yield from _subschemas(sub)


def test_conforms_reads_every_keyword_of_the_run_config_schema():
    # A keyword that _conforms does not implement must fail here, not pass
    # configs that jsonschema would reject.
    for schema in _subschemas(RUN_CONFIG_SCHEMA):
        assert set(schema) <= set(cli._KEYWORDS), schema
        assert schema.get("type", "object") in cli._TYPES, schema
        assert all(isinstance(option, str) for option in schema.get("enum", [])), schema
        assert isinstance(schema.get("additionalProperties", False), (bool, dict)), schema
    with pytest.raises(KeyError):
        cli._conforms(1, {"maximum": 3})


def _full_config():
    """A valid run config that sets every optional key."""
    return {
        **_ball_config(),
        "options": {
            "outer_tol": 1e-6,
            "inner_tol": {"kind": "coupled", "value": 0.5},
            "warm_start": True,
            "max_iter": 1000,
        },
        "anchors": [[1.0, 0.0], [0.0, 2]],
        "output_dir": "out",
    }


_JSON_LEAVES = st.sampled_from(
    [None, True, False, 0, 1, -1, 3, 0.0, 1e-9, 2.5, 3.0, -1.0, "", "x", "harmonic", "fixed", "coupled"]
)
_JSON_KEYS = st.sampled_from(
    ["problem", "target", "family", "contraction", "schedule", "kind", "params", "n_max", "options",
     "outer_tol", "inner_tol", "value", "warm_start", "max_iter", "anchors", "seed", "output_dir",
     "problem_id", "extra"]
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_conforms_agrees_with_jsonschema_on_mutated_configs(data):
    validator = validator_for(RUN_CONFIG_SCHEMA)(RUN_CONFIG_SCHEMA)
    cfg = _full_config()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        if not path:
            continue
        *head, key = path
        parent = cfg
        for step in head:
            parent = parent[step]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[key] = data.draw(_JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[data.draw(_JSON_KEYS)] = data.draw(_JSON_VALUES)
        else:
            parent.append(data.draw(_JSON_VALUES))
    assert cli._conforms(cfg, RUN_CONFIG_SCHEMA) == validator.is_valid(cfg)


def _in_a_fresh_interpreter(tmp_path, code: str) -> dict:
    """The JSON that code prints when run by a new interpreter on this viscofix.

    This module imports jsonschema itself, so what the CLI imports shows
    only in a process of its own.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_jsonschema_is_imported_only_to_word_a_rejected_config(tmp_path):
    _write(tmp_path, "matrix.json", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
    _write(tmp_path, "family.json", {"kind": "rotation_flow", "rates": [1.0], "grid": [0.5, 1.0]})
    _write(tmp_path, "ball.json", _ball_config())
    bad = _ball_config()
    bad["schedule"]["n_max"] = 0
    _write(tmp_path, "bad.json", bad)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(bad, RUN_CONFIG_SCHEMA)
    code = """
import contextlib, io, json, sys
import viscofix.cli as cli
seen = {"import": "jsonschema" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["certify-na", "matrix.json"]), cli.main(["check-family", "family.json"])]
    codes.append(cli.main(["spin"]))
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
    seen["commands"] = "jsonschema" in sys.modules
    cli.load_run_config("ball.json")
    codes.append(cli.main(["run", "ball.json", "--out", "ball", "--quiet"]))
    codes.append(cli.main(["sweep", "ball.json", "--param", "schedule.p", "--values", "1", "--out", "sw", "--quiet"]))
seen["valid"] = "jsonschema" in sys.modules
try:
    cli.load_run_config("bad.json")
    message = None
except cli.ConfigInvalid as exc:
    message = str(exc)
seen["rejected"] = "jsonschema" in sys.modules
print(json.dumps({"codes": codes, "seen": seen, "message": message}))
"""
    out = _in_a_fresh_interpreter(tmp_path, code)
    assert out["codes"] == [0, 0, 1, 0, 0, 0]
    assert out["seen"] == {"import": False, "commands": False, "valid": False, "rejected": True}
    assert out["message"] == f"config invalid at schedule/n_max: {expected.value.message}"


def test_the_jsonschema_binding_is_the_module_itself(tmp_path):
    code = """
import json, sys
import viscofix.cli as cli
binding = cli.jsonschema
try:
    cli.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps({"same": binding is sys.modules["jsonschema"] and cli.jsonschema is binding, "missing": missing}))
"""
    assert _in_a_fresh_interpreter(tmp_path, code) == {"same": True, "missing": True}


@pytest.mark.parametrize("spelling", ["NaN", "1e999"])
def test_run_rejects_a_non_finite_anchor_at_load_time(tmp_path, capsys, spelling):
    # json reads both spellings as floats that no solve can use.
    cfg = _ball_config()
    cfg["anchors"] = [["x"], [1.0, 0.0]]
    cfg_path = tmp_path / "anchors.json"
    cfg_path.write_text(json.dumps(cfg).replace('["x"]', f"[{spelling}, 0.0]"))
    with pytest.raises(ConfigInvalid, match="^config invalid at anchors/0/0: numbers must be finite$"):
        load_run_config(cfg_path)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config invalid at anchors/0/0: numbers must be finite\n"
    assert not (tmp_path / "o").exists()


#: A number in the inputs below that each test spells as an integer literal
#: past the float range, which json reads as an int that no float can hold.
_MARK = 12345.25


@pytest.mark.parametrize(
    "command, payload, where",
    [
        ("run", {**_ball_config(), "options": {"outer_tol": _MARK}}, "config invalid at options/outer_tol"),
        ("run", {**_ball_config(), "anchors": [[0.0, _MARK]]}, "config invalid at anchors/0/1"),
        (
            "run",
            {**_ball_config(), "problem": {**BALL_PROBLEM, "target": {**BALL_PROBLEM["target"], "radius": _MARK}}},
            "config invalid at problem/target/radius",
        ),
        ("sweep", {**_ball_config(), "options": {"outer_tol": _MARK}}, "config invalid at options/outer_tol"),
        ("certify-na", {"matrix": [[2.0, 0.0], [0.0, _MARK]]}, "matrix invalid at matrix/1/1"),
        (
            "check-family",
            {"kind": "rotation_flow", "rates": [_MARK], "grid": [0.5, 1.0]},
            "family config invalid at rates/0",
        ),
    ],
)
def test_an_integer_past_the_float_range_fails_as_one_error_line(tmp_path, capsys, command, payload, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload).replace(repr(_MARK), "1" + "0" * 400))
    flags = {
        "run": ["--out", str(tmp_path / "o"), "--quiet"],
        "sweep": ["--param", "schedule.p", "--values", "1", "--out", str(tmp_path / "o"), "--quiet"],
    }
    assert main([command, str(path), *flags.get(command, [])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {where}: numbers must be finite\n" and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_run_missing_and_unparseable_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 1
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["run", str(broken), "--quiet"]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["run"]) == 1
    assert "missing config path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify-na


def test_certify_na_diagonal(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
    assert main(["certify-na", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["attained"] is True
    assert payload["sigma"] == pytest.approx(2.0, abs=1e-6)
    assert abs(payload["vector"][0]) == pytest.approx(1.0, abs=1e-6)
    # The certificate draws no random numbers, so it takes no seed.
    assert set(payload) == {"sigma", "vector", "residual", "iterations", "tol", "attained"}


def test_certify_na_accepts_a_bare_matrix_array(tmp_path, capsys):
    path = _write(tmp_path, "shear.json", [[0.0, 1.0], [0.0, 0.0]])
    assert main(["certify-na", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(1.0, abs=1e-6)


def test_certify_na_rejects_nonsquare(tmp_path, capsys):
    path = _write(tmp_path, "wide.json", {"matrix": [[1.0, 2.0, 3.0]]})
    assert main(["certify-na", str(path)]) == 1
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload", [{"matrix": [["2", "0"], ["0", "1"]]}, [[True, False], [False, True]]], ids=["strings", "booleans"]
)
def test_certify_na_rejects_entries_that_are_not_numbers(tmp_path, capsys, payload):
    # np.asarray would read "2" as 2.0 and true as 1.0.
    path = _write(tmp_path, "matrix.json", payload)
    assert main(["certify-na", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entries must be numbers (a string or a boolean is not one)\n"


def _clustered_d20():
    return [[(i + 1.0) / (i + 2.0) if i == j else 0.0 for j in range(20)] for i in range(20)]


def test_certify_na_clustered_spectrum(tmp_path, capsys):
    path = _write(tmp_path, "clustered.json", {"matrix": _clustered_d20()})
    assert main(["certify-na", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(20.0 / 21.0, abs=1e-8)
    assert abs(payload["vector"][19]) >= 1.0 - 1e-8


def test_certify_na_fails_as_one_error_line_on_a_norm_past_the_float_range(tmp_path, capsys):
    path = _write(tmp_path, "matrix.json", {"matrix": [[1.7e308, 1.7e308], [0.0, 0.0]]})
    assert main(["certify-na", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix invalid: operator norm lies past the float range")
    assert captured.err.count("\n") == 1


def test_certify_na_exits_two_when_the_bracket_is_wider_than_tol(tmp_path, capsys):
    # At d = 20 the proved bracket on the norm is about 1e-12 wide.
    path = _write(tmp_path, "clustered.json", {"matrix": _clustered_d20()})
    assert main(["certify-na", str(path), "--tol", "1e-14"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["attained"] is False
    assert 1e-14 < payload["residual"] <= 1e-10
    assert payload["sigma"] == pytest.approx(20.0 / 21.0, abs=1e-12)


@pytest.mark.parametrize("matrix, norm_2", ALL_ONES_FALLS_SHORT.values(), ids=ALL_ONES_FALLS_SHORT.keys())
def test_certify_na_finds_the_norm_where_the_all_ones_vector_falls_short(tmp_path, capsys, matrix, norm_2):
    path = _write(tmp_path, "matrix.json", {"matrix": matrix})
    assert main(["certify-na", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["attained"] is True
    assert abs(payload["sigma"] - norm_2) <= 1e-12
    assert payload["residual"] <= 1e-12


# ---------------------------------------------------------------------------
# check-family


def _custom_rotation(key, value):
    rotation = {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.5, key: value}
    return {"kind": "custom", "table": {"1": rotation}}, f"operator spec of kind 'rotation' needs numbers in '{key}'"


@pytest.mark.parametrize(
    "family, error",
    [
        _custom_rotation("dim", "2"),
        _custom_rotation("plane", [0, True]),
        _custom_rotation("angle", "0.5"),
        (
            {"kind": "rotation_flow", "rates": ["1.0"], "grid": [True]},
            "family spec of kind 'rotation_flow' needs numbers in 'rates'",
        ),
        (
            {"kind": "rotation_flow", "rates": 1.0, "grid": [1.0]},
            "family spec of kind 'rotation_flow' needs a list of numbers in 'rates'",
        ),
        (
            {"kind": "rotation_flow", "rates": [1.0], "grid": 1.0},
            "family spec of kind 'rotation_flow' needs a list of numbers in 'grid'",
        ),
        (
            {"kind": "custom", "table": {"a": {"kind": "identity", "dim": 2}}},
            "family spec of kind 'custom' needs finite numbers as 'table' keys, got 'a'",
        ),
        (
            {"kind": "custom", "table": {"inf": {"kind": "identity", "dim": 2}}},
            "family spec of kind 'custom' needs finite numbers as 'table' keys, got 'inf'",
        ),
        (
            {"kind": "custom", "table": {"1": {"kind": "identity", "dim": 2}, "1.0": {"kind": "negation", "dim": 2}}},
            "family spec of kind 'custom' has 'table' keys '1' and '1.0' for the same index 1.0",
        ),
    ],
    ids=[
        "dim-2", "plane-value1", "angle-0.5", "rotation_flow", "bare-rates", "bare-grid", "key-a", "key-inf",
        "key-1-and-1.0",
    ],
)
def test_check_family_rejects_spec_fields_that_are_not_numbers(tmp_path, capsys, family, error):
    path = _write(tmp_path, "family.json", {"family": family})
    assert main(["check-family", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: InvalidSpec: {error}\n"
    # A run config takes the same family spec and fails the same way.
    config = _ball_config()
    del config["problem"]["target"]
    config["problem"]["family"] = family
    path = _write(tmp_path, "cfg.json", config)
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config invalid at problem/family: {error}\n"
    assert not (tmp_path / "o").exists()


def test_check_family_rejects_a_kind_that_is_not_a_string(tmp_path, capsys):
    # A list is no kind: it is reported as unknown, not as an unhashable key.
    path = _write(tmp_path, "family.json", {"family": {"kind": "custom", "table": {"1": {"kind": ["linear"]}}}})
    assert main(["check-family", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidSpec: unknown operator kind '['linear']' (known: affine, ")


@pytest.mark.parametrize("value", ["0.5", True], ids=["string", "boolean"])
def test_run_rejects_fields_that_are_not_numbers(tmp_path, capsys, value):
    # A field the run schema types is rejected by the schema; an operator
    # spec, which the schema leaves open, by make_operator, as for
    # check-family, with the spec's place in the config in front.
    path = _write(tmp_path, "cfg.json", {**_ball_config(), "anchors": [[value, 0.0]]})
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: config invalid at anchors/0/0: ")
    cfg = _ball_config()
    cfg["problem"]["target"]["radius"] = value
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: config invalid at problem/target: operator spec of kind 'projection_ball' needs numbers in 'radius'\n"
    )
    assert not (tmp_path / "o").exists()


def test_check_family_power_rotation(tmp_path, capsys):
    spec = {
        "family": {
            "kind": "power",
            "base": {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.9},
        }
    }
    path = _write(tmp_path, "powerfam.json", spec)
    assert main(["check-family", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["max_defect"] == 0.0


def test_check_family_accepts_bare_spec(tmp_path, capsys):
    spec = {"kind": "rotation_flow", "rates": [1.0], "grid": [0.3, 0.7, 1.0]}
    path = _write(tmp_path, "flow.json", spec)
    assert main(["check-family", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_defect"] <= 1e-12


def test_check_family_planted_violation_exits_two(tmp_path, capsys):
    import math

    def rot(angle):
        return {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": angle}

    table = {str(k): rot(k * math.pi / 5.0) for k in range(7)}
    c, s = math.cos(3.0 * math.pi / 5.0), math.sin(3.0 * math.pi / 5.0)
    table["3"] = {"kind": "affine", "matrix": [[c, -s], [s, c]], "offset": [0.1, 0.0]}
    path = _write(tmp_path, "planted.json", {"family": {"kind": "custom", "table": table}})
    assert main(["check-family", str(path), "--pairs", "100"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["max_defect"] >= 0.09


# ---------------------------------------------------------------------------
# Numeric flags


def _flag_inputs(tmp_path):
    family = {"kind": "power", "base": {"kind": "rotation", "dim": 2, "plane": [0, 1], "angle": 0.9}}
    return {
        "check-family": _write(tmp_path, "family.json", family),
        "certify-na": _write(tmp_path, "matrix.json", {"matrix": [[2.0, 0.0], [0.0, 1.0]]}),
    }


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("check-family", "--pairs", "0"),
        ("check-family", "--pairs", "2.5"),
        ("check-family", "--vectors", "-1"),
        ("check-family", "--tol", "nan"),
        ("check-family", "--tol", "0"),
        ("certify-na", "--tol", "-1"),
        ("certify-na", "--tol", "nan"),
        ("certify-na", "--tol", "inf"),
        ("certify-na", "--tol", "tight"),
        ("check-family", "--seed", "-1"),
        ("check-family", "--seed", "1.5"),
    ],
)
def test_bad_numeric_flags_fail_as_errors_that_name_the_flag(tmp_path, capsys, command, flag, value):
    # The input file is valid: only the flag can fail, and it fails when the
    # arguments are parsed, before any sampling or factorization.
    path = _flag_inputs(tmp_path)[command]
    assert main([command, str(path), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: argument {flag}: ")
    assert repr(value) in captured.err


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("check-family", ["--pairs", "40", "--vectors", "5", "--tol", "1e-9"]),
        ("certify-na", ["--tol", "1e-8"]),
        ("check-family", ["--seed", str(DEFAULT_SEED)]),
    ],
)
def test_numeric_flags_at_their_defaults_print_the_default_output(tmp_path, capsys, command, defaults):
    path = _flag_inputs(tmp_path)[command]
    assert main([command, str(path)]) == 0
    implicit = capsys.readouterr().out
    assert main([command, str(path), *defaults]) == 0
    assert capsys.readouterr().out == implicit
    json.loads(implicit)


def test_certify_na_takes_no_seed(tmp_path, capsys):
    path = _flag_inputs(tmp_path)["certify-na"]
    assert main(["certify-na", str(path), "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 0" in captured.err


@pytest.mark.parametrize("command", ["check-family"])
def test_seed_zero_is_a_seed(tmp_path, capsys, command):
    path = _flag_inputs(tmp_path)[command]
    assert main([command, str(path), "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_config():
    return {
        "problem": {
            "family": {"kind": "rotation_flow", "rates": [1.0], "grid": [1.0]},
            "contraction": {
                "kind": "affine",
                "matrix": [[0.5, 0.0], [0.0, 0.5]],
                "offset": [1.0, 0.0],
            },
        },
        "schedule": {"kind": "harmonic", "params": {"p": 1.0}, "n_max": 60},
        "options": {
            "outer_tol": 1e-6,
            "inner_tol": {"kind": "fixed", "value": 1e-8},
            "max_iter": 500000,
        },
        "seed": 42,
        "problem_id": "rotation-sweep",
    }


def test_sweep_over_schedule_exponent(tmp_path):
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            str(cfg_path),
            "--param",
            "schedule.p",
            "--values",
            "0.5",
            "1",
            "2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "value,final_fix_residual,step5_distance,total_inner_iterations,status"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.5", "1.0", "2.0"]
    assert all(r[-1] == "ok" for r in rows)
    for sub in ("p_0.5", "p_1", "p_2"):
        assert (out / sub / "summary.json").exists()


def test_sweep_records_per_value_errors(tmp_path):
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            str(cfg_path),
            "--param",
            "options.outer_tol",
            "--values",
            "-1",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 2
    content = (out / "sweep_summary.csv").read_text()
    assert "error:" in content


def test_sweep_checks_each_value_as_the_config_loader_does(tmp_path):
    # argparse floats accept inf and nan, which a config file may not hold.
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    argv = ["sweep", str(cfg_path), "--param", "options.outer_tol", "--values", "inf", "nan", "-1"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    rows = list(csv.reader((out / "sweep_summary.csv").read_text().splitlines()[2:]))
    finite = "error: config invalid at options/outer_tol: numbers must be finite"
    assert rows[:2] == [["inf", "", "", "", finite], ["nan", "", "", "", finite]]
    assert rows[2][:4] == ["-1.0", "", "", ""]
    assert rows[2][4].startswith("error: config invalid at options/outer_tol: -1.0 ")
    assert not any(path.is_dir() for path in out.iterdir())


def test_sweep_rows_carry_an_unread_schedule_param(tmp_path):
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    argv = ["sweep", str(cfg_path), "--param", "schedule.nope", "--values", "1", "7"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    rows = list(csv.reader((out / "sweep_summary.csv").read_text().splitlines()[2:]))
    error = "error: unknown schedule param 'nope' for kind 'harmonic', which reads 'p'"
    assert rows == [["1.0", "", "", "", error], ["7.0", "", "", "", error]]


def test_sweep_rejects_an_output_root_that_is_a_file_before_solving(tmp_path, capsys, monkeypatch):
    solves = _count_solves(monkeypatch)
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    argv = ["sweep", str(cfg_path), "--param", "schedule.p", "--values", "0.5", "1"]
    assert main(argv + ["--out", str(taken), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {taken} is not a directory: {taken} exists and is not one\n"
    assert solves == [] and taken.read_text() == "keep me"


def test_sweep_row_carries_a_value_directory_that_is_a_file(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "p_1").write_text("keep me")
    argv = ["sweep", str(cfg_path), "--param", "schedule.p", "--values", "0.5", "1"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    rows = list(csv.reader((out / "sweep_summary.csv").read_text().splitlines()[2:]))
    assert rows[0][-1] == "ok"
    taken = out / "p_1"
    assert rows[1] == ["1.0", "", "", "", f"error: output path {taken} is not a directory: {taken} exists and is not one"]
    assert len(solves) == 1 and taken.read_text() == "keep me"


def test_sweep_requires_values(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    assert main(["sweep", str(cfg_path), "--param", "schedule.p", "--values"]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_rejects_values_that_share_a_directory(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "sweep"
    argv = ["sweep", str(cfg_path), "--param", "schedule.p", "--values", "0.5", "1.0000001", "1.0000002"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "1.0000001" in err and "1.0000002" in err and "'p_1'" in err
    assert not out.exists()
