"""Per-step convergence traces and their lossless CSV / JSON round trips."""

from __future__ import annotations

import csv
import json
import math
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

TRACE_SCHEMA_VERSION = 1

#: TraceStep's scalar fields in CSV column order, each with the type it is
#: read back as; the point coordinates x0..x{d-1} follow them in a CSV row.
_FIELDS = (
    ("n", int),
    ("eps", float),
    ("implicit_residual", float),
    ("fix_residual", float),
    ("step_delta", float),
    ("inner_iters", int),
)
#: Fixed leading CSV columns.
CSV_COLUMNS = tuple(name for name, _ in _FIELDS)
#: A step's CSV fields as str(int) and format(x, ".17g") render them: the
#: bytes csv.writer gives, as none of them needs quoting. 17 significant
#: digits round-trip any float64 exactly.
_CSV_FORMAT = ",".join("%d" if kind is int else "%.17g" for _, kind in _FIELDS)
_csv_fields = attrgetter(*CSV_COLUMNS)


class TraceStep(NamedTuple):
    """One outer step of an implicit iteration, as an immutable value."""

    n: int
    eps: float
    point: tuple[float, ...]
    implicit_residual: float
    fix_residual: float
    inner_iters: int
    step_delta: float


class ConvergenceTrace:
    """Ordered trace of outer steps plus run metadata.

    Appends enforce strictly increasing step numbers and strictly decreasing
    eps values in (0, 1]; eps = 1 appears only as the first step of an
    anchored run.
    """

    def __init__(self, metadata: dict | None = None):
        self.steps: list[TraceStep] = []
        self.metadata: dict = dict(metadata or {})

    def append(self, step: TraceStep) -> None:
        steps, eps = self.steps, step.eps
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        if steps:
            last = steps[-1]
            if step.n <= last.n:
                raise ValueError(f"step numbers must increase: {last.n} then {step.n}")
            if eps >= last.eps:
                raise ValueError(f"eps must decrease strictly: {last.eps} then {eps}")
            if len(step.point) != len(last.point):
                raise ValueError("point dimension changed inside a trace")
        steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def dim(self) -> int | None:
        return len(self.steps[0].point) if self.steps else None

    def last(self) -> TraceStep:
        if not self.steps:
            raise IndexError("trace is empty")
        return self.steps[-1]

    def points(self) -> np.ndarray:
        return np.array([s.point for s in self.steps], dtype=float)

    def eps_values(self) -> np.ndarray:
        return np.array([s.eps for s in self.steps], dtype=float)

    def fix_residuals(self) -> np.ndarray:
        return np.array([s.fix_residual for s in self.steps], dtype=float)

    def implicit_residuals(self) -> np.ndarray:
        return np.array([s.implicit_residual for s in self.steps], dtype=float)

    def window(self, fraction: float = 0.1, min_steps: int = 5) -> list[TraceStep]:
        """Trailing window: the last max(min_steps, fraction of the run)."""
        if not self.steps:
            return []
        count = max(min_steps, math.ceil(fraction * len(self.steps)))
        return self.steps[-count:]

    def head_window(self, fraction: float = 0.1, min_steps: int = 5) -> list[TraceStep]:
        if not self.steps:
            return []
        count = max(min_steps, math.ceil(fraction * len(self.steps)))
        return self.steps[:count]


def export_trace(trace: ConvergenceTrace, fmt: str, destination, header_comment: str | None = None) -> Path:
    """Write a trace as 'csv' or 'json'. Returns the path written.

    CSV columns are exactly CSV_COLUMNS (TraceStep's scalar fields: n, eps,
    implicit_residual, fix_residual, step_delta, inner_iters), then the
    point coordinates x0..x{d-1}, every float rendered with 17 significant
    digits. An optional '#' comment line may precede the header. JSON is one
    line of sorted keys (then a newline) carrying a schema version, the
    metadata and each step as an object keyed by TraceStep's field names.
    """
    path = Path(destination)
    if fmt == "csv":
        dim = trace.dim or 0
        lines = [] if header_comment is None else [f"# {header_comment}\n"]
        lines.append(",".join(CSV_COLUMNS + tuple(f"x{i}" for i in range(dim))) + "\r\n")
        row = _CSV_FORMAT + ",%.17g" * dim + "\r\n"
        lines.extend(row % (*_csv_fields(s), *s.point) for s in trace.steps)
        path.write_text("".join(lines), newline="")
        return path
    if fmt == "json":
        payload = {
            "schema": TRACE_SCHEMA_VERSION,
            "metadata": trace.metadata,
            "steps": [s._asdict() for s in trace.steps],
        }
        # Without indent, dumps runs the C encoder in one call.
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return path
    raise ValueError(f"unknown trace format '{fmt}'")


def _read_step(fields_by_name, point) -> TraceStep:
    """A step from its scalar fields, read back by name as their table types, and its point."""
    scalars = {name: kind(fields_by_name[name]) for name, kind in _FIELDS}
    return TraceStep(point=tuple(map(float, point)), **scalars)


def load_trace(source, fmt: str | None = None) -> ConvergenceTrace:
    """Reload a trace written by export_trace; format inferred from the suffix."""
    path = Path(source)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "json":
        with path.open() as handle:
            payload = json.load(handle)
        if payload.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {payload.get('schema')!r}")
        trace = ConvergenceTrace(metadata=payload.get("metadata", {}))
        for s in payload["steps"]:
            trace.append(_read_step(s, s["point"]))
        return trace
    if fmt == "csv":
        # A '# key=value ...' comment line, as written for header_comment,
        # carries metadata; the seed comes back as an int.
        trace = ConvergenceTrace()
        rows = []
        with path.open(newline="") as handle:
            for line in handle:
                if line.startswith("#"):
                    trace.metadata.update(t.split("=", 1) for t in line[1:].split() if "=" in t)
                else:
                    rows.append(line)
        if "seed" in trace.metadata:
            trace.metadata["seed"] = int(trace.metadata["seed"])
        reader = csv.reader(rows)
        try:
            header = next(reader)
        except StopIteration:
            return trace
        if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
            raise ValueError(f"unexpected trace CSV header: {header}")
        for row in reader:
            trace.append(_read_step(dict(zip(CSV_COLUMNS, row)), row[len(CSV_COLUMNS) :]))
        return trace
    raise ValueError(f"unknown trace format '{fmt}'")
