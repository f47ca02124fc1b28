"""Trace container invariants and lossless CSV / JSON round trips."""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscofix import ConvergenceTrace, TraceStep, export_trace, load_trace
from viscofix.trace import CSV_COLUMNS, TRACE_SCHEMA_VERSION


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


# ---------------------------------------------------------------------------
# Bulk export against the csv.writer / indented json.dump renderings


def _reference_csv(trace, header_comment):
    """trace.csv as csv.writer renders it, every float through format(.17g)."""
    buffer = io.StringIO(newline="")
    if header_comment is not None:
        buffer.write(f"# {header_comment}\n")
    writer = csv.writer(buffer)
    writer.writerow(list(CSV_COLUMNS) + [f"x{i}" for i in range(trace.dim or 0)])
    for s in trace.steps:
        floats = (s.eps, s.implicit_residual, s.fix_residual, s.step_delta)
        writer.writerow(
            [s.n, *(format(float(v), ".17g") for v in floats), s.inner_iters]
            + [format(float(c), ".17g") for c in s.point]
        )
    return buffer.getvalue().encode()


def _reference_json(trace):
    """trace.json as json.dump(..., indent=2, sort_keys=True) renders it."""
    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "metadata": trace.metadata,
        "steps": [
            {
                "n": s.n,
                "eps": s.eps,
                "point": list(s.point),
                "implicit_residual": s.implicit_residual,
                "fix_residual": s.fix_residual,
                "inner_iters": s.inner_iters,
                "step_delta": s.step_delta,
            }
            for s in trace.steps
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _bits(value):
    # Every NaN reads back as the one float('nan'), so NaNs compare as a class.
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def _step_bits(step):
    floats = (step.eps, step.implicit_residual, step.fix_residual, step.step_delta, *step.point)
    return step.n, step.inner_iters, tuple(_bits(v) for v in floats)


_SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 1.0 / 3.0]
)
_ANY_FLOAT = st.one_of(_SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _traces(draw):
    dim = draw(st.integers(1, 5))
    eps_values = sorted(
        draw(st.sets(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), max_size=6)),
        reverse=True,
    )
    numbers = sorted(draw(st.sets(st.integers(1, 10**12), min_size=len(eps_values), max_size=len(eps_values))))
    seed = draw(st.integers(0, 2**31))
    trace = ConvergenceTrace(metadata={"problem_id": "hyp", "seed": seed})
    for n, eps in zip(numbers, eps_values):
        trace.append(
            TraceStep(
                n=n,
                eps=eps,
                point=tuple(draw(st.lists(_ANY_FLOAT, min_size=dim, max_size=dim))),
                implicit_residual=draw(_ANY_FLOAT),
                fix_residual=draw(_ANY_FLOAT),
                inner_iters=draw(st.integers(0, 10**9)),
                step_delta=draw(_ANY_FLOAT),
            )
        )
    header = draw(st.sampled_from([None, f"config_hash=abc123 seed={seed}"]))
    return trace, header


@settings(max_examples=150, deadline=None)
@given(case=_traces())
def test_bulk_export_matches_the_writer_renderings_and_round_trips(case, tmp_path_factory):
    trace, header = case
    directory = tmp_path_factory.getbasetemp() / "bulk-export"
    directory.mkdir(exist_ok=True)
    csv_path = export_trace(trace, "csv", directory / "trace.csv", header_comment=header)
    assert csv_path.read_bytes() == _reference_csv(trace, header)
    json_path = export_trace(trace, "json", directory / "trace.json")
    text = json_path.read_text()
    # One line of sorted keys: the indented layout's content, in its order.
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == _reference_json(trace)
    expected = [_step_bits(s) for s in trace.steps]
    for path in (csv_path, json_path):
        loaded = load_trace(path)
        assert [_step_bits(s) for s in loaded.steps] == expected
    assert load_trace(json_path).metadata == trace.metadata
    if header is not None:
        assert load_trace(csv_path).metadata == {"config_hash": "abc123", "seed": trace.metadata["seed"]}


def test_bulk_export_of_the_empty_trace(tmp_path):
    empty = ConvergenceTrace()
    for header in (None, "config_hash=abc123 seed=1"):
        path = export_trace(empty, "csv", tmp_path / "empty.csv", header_comment=header)
        assert path.read_bytes() == _reference_csv(empty, header)
    path = export_trace(empty, "json", tmp_path / "empty.json")
    assert json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) == _reference_json(empty)
    assert load_trace(path).steps == []
