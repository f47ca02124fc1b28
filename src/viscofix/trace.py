"""Per-step convergence traces: the CSV step table, with its lossless round trip, and the JSON run record."""

from __future__ import annotations

import csv
import functools
import json
import math
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

TRACE_SCHEMA_VERSION = 2

#: TraceStep's scalar fields in CSV column order, each with the type it is
#: read back as; the point coordinates x0..x{d-1} follow them in a CSV row.
#: ConvergenceTrace keeps one column per field, in this order.
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
    """Ordered trace of outer steps plus run metadata, held as columns.

    Appends enforce strictly increasing step numbers and strictly decreasing
    eps values in (0, 1]; eps = 1 appears only as the first step of an
    anchored run.

    The trace keeps one list per _FIELDS column, _columns, and one of
    points, _points: tuples of floats as appended or loaded, or the solver's
    read-only arrays. The solver sets both lists as it built them, without
    append's checks, which its schedule validation and loop already hold.
    The accessors read the columns; steps, the TraceStep values with each
    solver's point as a tuple of floats, is built on its first read and kept
    until the next append.
    """

    def __init__(self, metadata: dict | None = None):
        self.metadata: dict = dict(metadata or {})
        self._columns: tuple[list, ...] = tuple([] for _ in _FIELDS)
        self._points: list = []

    def append(self, step: TraceStep) -> None:
        self._extend([[value] for value in _csv_fields(step)], [step.point])

    def _extend(self, columns, points) -> None:
        """Append rows, given as columns in _FIELDS order and their points, checked as append checks each."""
        last = (self._columns[0][-1], self._columns[1][-1], len(self._points[-1])) if self._points else None
        for n, eps, point in zip(columns[0], columns[1], points):
            if not 0.0 < eps <= 1.0:
                raise ValueError(f"eps must lie in (0, 1], got {eps}")
            if last is not None:
                if n <= last[0]:
                    raise ValueError(f"step numbers must increase: {last[0]} then {n}")
                if eps >= last[1]:
                    raise ValueError(f"eps must decrease strictly: {last[1]} then {eps}")
                if len(point) != last[2]:
                    raise ValueError("point dimension changed inside a trace")
            last = n, eps, len(point)
        for column, values in zip(self._columns, columns):
            column.extend(values)
        self._points.extend(points)
        self.__dict__.pop("steps", None)

    @functools.cached_property
    def steps(self) -> list[TraceStep]:
        """The TraceStep values; built on the first read and kept until an append."""
        n, eps, implicit, fix, delta, iters = self._columns
        return list(map(TraceStep, n, eps, map(_point_tuple, self._points), implicit, fix, iters, delta))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def dim(self) -> int | None:
        return len(self._points[0]) if self._points else None

    def last(self) -> TraceStep:
        if not self._points:
            raise IndexError("trace is empty")
        n, eps, implicit, fix, delta, iters = (column[-1] for column in self._columns)
        return TraceStep(n, eps, _point_tuple(self._points[-1]), implicit, fix, iters, delta)

    def points(self) -> np.ndarray:
        return np.array(self._points, dtype=float)

    def eps_values(self) -> np.ndarray:
        return np.array(self._columns[1], dtype=float)

    def fix_residuals(self) -> np.ndarray:
        return np.array(self._columns[3], dtype=float)

    def implicit_residuals(self) -> np.ndarray:
        return np.array(self._columns[2], dtype=float)

    def window(self, fraction: float = 0.1, min_steps: int = 5) -> list[TraceStep]:
        """Trailing window: the last max(min_steps, fraction of the run); empty for an empty trace."""
        count = max(min_steps, math.ceil(fraction * len(self)))
        return self.steps[-count:]

    def head_window(self, fraction: float = 0.1, min_steps: int = 5) -> list[TraceStep]:
        count = max(min_steps, math.ceil(fraction * len(self)))
        return self.steps[:count]


def _point_tuple(point):
    """A point as TraceStep holds it: a solver's array as a tuple of floats, any other point as it is."""
    return tuple(point.tolist()) if isinstance(point, np.ndarray) else point


def export_trace(trace: ConvergenceTrace, fmt: str, destination, header_comment: str | None = None) -> Path:
    """Write a trace's steps as 'csv' or its run record as 'json'. Returns the path written.

    CSV columns are exactly CSV_COLUMNS (TraceStep's scalar fields: n, eps,
    implicit_residual, fix_residual, step_delta, inner_iters), then the
    point coordinates x0..x{d-1}, every float rendered with 17 significant
    digits. An optional '#' comment line may precede the header. The CSV is
    the one step table. JSON is the run's record without steps: one line of
    sorted keys (then a newline), {"metadata": ..., "schema": 2}, where the
    metadata may hold values that vary between runs, such as a solve's
    wall-clock timestamps.
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
        record = {"metadata": trace.metadata, "schema": TRACE_SCHEMA_VERSION}
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        return path
    raise ValueError(f"unknown trace format '{fmt}'")


def load_trace(source, fmt: str | None = None) -> ConvergenceTrace:
    """Reload the steps export_trace wrote as CSV; the format is inferred from the suffix.

    A JSON file holds a run's record, or in schema 1 a copy of the steps
    that trace.csv also holds, so a JSON source raises ValueError.
    """
    path = Path(source)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "json":
        raise ValueError(f"{path} is a JSON run record: a run's steps are in its trace.csv")
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
        cells, width = list(reader), len(CSV_COLUMNS)
        columns = [list(map(kind, map(itemgetter(k), cells))) for k, (_, kind) in enumerate(_FIELDS)]
        trace._extend(columns, [tuple(map(float, row[width:])) for row in cells])
        return trace
    raise ValueError(f"unknown trace format '{fmt}'")
