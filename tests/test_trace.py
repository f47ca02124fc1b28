"""Trace container invariants and lossless CSV / JSON round trips."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from viscofix import ConvergenceTrace, TraceStep, export_trace, load_trace


def _step(n, eps, point, **overrides):
    fields = {
        "implicit_residual": 1e-12 / n,
        "fix_residual": 1.0 / (3.0 * n),
        "inner_iters": 10 + n,
        "step_delta": 1.0 / (7.0 * n),
    }
    fields.update(overrides)
    return TraceStep(n=n, eps=eps, point=tuple(point), **fields)


def _messy_trace():
    """Values chosen so any formatting shortcut would lose bits."""
    trace = ConvergenceTrace(metadata={"problem_id": "demo", "seed": 42})
    trace.append(_step(1, 1.0, (1.0 / 3.0, math.pi), implicit_residual=1e-17))
    trace.append(_step(2, 1.0 / 3.0, (2.0 / 3.0, -math.pi / 7.0)))
    trace.append(_step(5, 0.2, (0.1 + 0.2, 1e-300)))
    return trace


def test_append_validates_eps_range():
    trace = ConvergenceTrace()
    with pytest.raises(ValueError):
        trace.append(_step(1, 0.0, (0.0,)))
    with pytest.raises(ValueError):
        trace.append(_step(1, 1.2, (0.0,)))
    trace.append(_step(1, 1.0, (0.0,)))
    assert len(trace) == 1


def test_append_requires_increasing_n_and_decreasing_eps():
    trace = ConvergenceTrace()
    trace.append(_step(1, 0.5, (0.0,)))
    with pytest.raises(ValueError):
        trace.append(_step(1, 0.4, (0.0,)))
    with pytest.raises(ValueError):
        trace.append(_step(2, 0.5, (0.0,)))
    with pytest.raises(ValueError):
        trace.append(_step(2, 0.6, (0.0,)))
    trace.append(_step(2, 0.4, (0.0,)))


def test_append_rejects_dimension_change():
    trace = ConvergenceTrace()
    trace.append(_step(1, 0.5, (0.0, 0.0)))
    with pytest.raises(ValueError):
        trace.append(_step(2, 0.4, (0.0,)))


def test_empty_trace_accessors():
    trace = ConvergenceTrace()
    assert len(trace) == 0
    assert trace.dim is None
    assert trace.window() == []
    assert trace.head_window() == []
    with pytest.raises(IndexError):
        trace.last()


def test_array_accessors():
    trace = _messy_trace()
    assert trace.dim == 2
    assert trace.points().shape == (3, 2)
    assert list(trace.eps_values()) == [1.0, 1.0 / 3.0, 0.2]
    assert trace.last().n == 5
    assert trace.fix_residuals()[0] == 1.0 / 3.0
    assert trace.implicit_residuals()[0] == 1e-17


def test_window_sizes():
    trace = ConvergenceTrace()
    for n in range(1, 101):
        trace.append(_step(n, 1.0 / (n + 1.0), (float(n),)))
    assert len(trace.window()) == 10
    assert trace.window()[0].n == 91
    assert len(trace.head_window()) == 10
    assert trace.head_window()[-1].n == 10
    assert len(trace.window(fraction=0.02, min_steps=5)) == 5


def test_csv_round_trip_is_bitwise(tmp_path):
    trace = _messy_trace()
    path = export_trace(trace, "csv", tmp_path / "trace.csv")
    assert isinstance(path, Path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    for original, roundtripped in zip(trace.steps, loaded.steps):
        assert roundtripped == original


def test_csv_header_comment_is_skipped(tmp_path):
    trace = _messy_trace()
    path = export_trace(trace, "csv", tmp_path / "trace.csv", header_comment="config_hash=abc123")
    first_line = path.read_text().splitlines()[0]
    assert first_line == "# config_hash=abc123"
    assert len(load_trace(path)) == 3


def test_csv_round_trip_keeps_header_metadata(tmp_path):
    comment = "config_hash=abc123 seed=42"
    path = export_trace(_messy_trace(), "csv", tmp_path / "trace.csv", header_comment=comment)
    assert load_trace(path).metadata == {"config_hash": "abc123", "seed": 42}


def test_csv_empty_trace(tmp_path):
    path = export_trace(ConvergenceTrace(), "csv", tmp_path / "empty.csv")
    assert load_trace(path).steps == []


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_trace(path)


def test_json_round_trip_keeps_metadata(tmp_path):
    trace = _messy_trace()
    path = export_trace(trace, "json", tmp_path / "trace.json")
    loaded = load_trace(path)
    assert loaded.metadata == {"problem_id": "demo", "seed": 42}
    assert loaded.steps == trace.steps


def test_json_schema_version_is_enforced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "metadata": {}, "steps": []}))
    with pytest.raises(ValueError, match="schema"):
        load_trace(path)


def test_format_inference_and_unknown_formats(tmp_path):
    trace = _messy_trace()
    json_path = export_trace(trace, "json", tmp_path / "trace.json")
    assert len(load_trace(json_path)) == 3
    assert len(load_trace(json_path, fmt="json")) == 3
    with pytest.raises(ValueError, match="format"):
        export_trace(trace, "xml", tmp_path / "trace.xml")
    with pytest.raises(ValueError, match="format"):
        load_trace(json_path, fmt="xml")


def test_json_output_is_stable_and_sorted(tmp_path):
    trace = _messy_trace()
    a = export_trace(trace, "json", tmp_path / "a.json").read_bytes()
    b = export_trace(trace, "json", tmp_path / "b.json").read_bytes()
    assert a == b
    payload = json.loads(a)
    assert list(payload) == sorted(payload)
    assert payload["steps"][0]["point"][0] == 1.0 / 3.0
