"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

import jsonschema
from jsonschema.validators import validator_for

from viscofix import cli, schemes, semigroup
from viscofix.cli import RUN_CONFIG_SCHEMA, ConfigInvalid, config_hash, load_run_config, main

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
        "problem": dict(BALL_PROBLEM),
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


def test_run_bad_schedule_exits_one(tmp_path, capsys):
    cfg = _ball_config()
    cfg["schedule"] = {"kind": "explicit", "params": {"values": [0.5, 0.6]}}
    cfg_path = _write(tmp_path, "bad.json", cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "schedule not strictly decreasing" in capsys.readouterr().err


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


def test_run_anchored_with_anchors_reports_retraction(tmp_path):
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
    assert payload["seed"] == 42


def test_certify_na_accepts_a_bare_matrix_array(tmp_path, capsys):
    path = _write(tmp_path, "shear.json", [[0.0, 1.0], [0.0, 0.0]])
    assert main(["certify-na", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(1.0, abs=1e-6)


def test_certify_na_rejects_nonsquare(tmp_path, capsys):
    path = _write(tmp_path, "wide.json", {"matrix": [[1.0, 2.0, 3.0]]})
    assert main(["certify-na", str(path)]) == 1
    assert "square" in capsys.readouterr().err


def test_certify_na_clustered_spectrum(tmp_path, capsys):
    matrix = [[(i + 1.0) / (i + 2.0) if i == j else 0.0 for j in range(20)] for i in range(20)]
    path = _write(tmp_path, "clustered.json", {"matrix": matrix})
    assert main(["certify-na", str(path), "--tol", "1e-14"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(20.0 / 21.0, abs=1e-8)
    assert abs(payload["vector"][19]) >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# check-family


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
