"""Per-step convergence traces and their lossless CSV / JSON round trips."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRACE_SCHEMA_VERSION = 1

#: Fixed leading CSV columns; point coordinates x0..x{d-1} follow.
CSV_COLUMNS = ("n", "eps", "implicit_residual", "fix_residual", "step_delta", "inner_iters")


@dataclass(frozen=True)
class TraceStep:
    """One outer step of an implicit iteration."""

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
        if not 0.0 < step.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {step.eps}")
        if self.steps:
            last = self.steps[-1]
            if step.n <= last.n:
                raise ValueError(f"step numbers must increase: {last.n} then {step.n}")
            if step.eps >= last.eps:
                raise ValueError(f"eps must decrease strictly: {last.eps} then {step.eps}")
            if len(step.point) != len(last.point):
                raise ValueError("point dimension changed inside a trace")
        self.steps.append(step)

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

    CSV columns are exactly n, eps, implicit_residual, fix_residual,
    step_delta, inner_iters, then the point coordinates x0..x{d-1}, every
    float rendered with 17 significant digits. An optional '#' comment line
    may precede the header. JSON is one line of sorted keys (then a
    newline) carrying a schema version and the metadata.
    """
    path = Path(destination)
    if fmt == "csv":
        dim = trace.dim or 0
        lines = [] if header_comment is None else [f"# {header_comment}\n"]
        lines.append(",".join(CSV_COLUMNS + tuple(f"x{i}" for i in range(dim))) + "\r\n")
        # The bytes csv.writer gives for str(int) and format(x, ".17g")
        # fields, none of which needs quoting. 17 significant digits
        # round-trip any float64 exactly.
        row = "%d,%.17g,%.17g,%.17g,%.17g,%d" + ",%.17g" * dim + "\r\n"
        lines.extend(
            row % (s.n, s.eps, s.implicit_residual, s.fix_residual, s.step_delta, s.inner_iters, *s.point)
            for s in trace.steps
        )
        path.write_text("".join(lines), newline="")
        return path
    if fmt == "json":
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
        # Without indent, dumps runs the C encoder in one call.
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return path
    raise ValueError(f"unknown trace format '{fmt}'")


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
            trace.append(
                TraceStep(
                    n=int(s["n"]),
                    eps=float(s["eps"]),
                    point=tuple(float(c) for c in s["point"]),
                    implicit_residual=float(s["implicit_residual"]),
                    fix_residual=float(s["fix_residual"]),
                    inner_iters=int(s["inner_iters"]),
                    step_delta=float(s["step_delta"]),
                )
            )
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
            trace.append(
                TraceStep(
                    n=int(row[0]),
                    eps=float(row[1]),
                    point=tuple(float(c) for c in row[6:]),
                    implicit_residual=float(row[2]),
                    fix_residual=float(row[3]),
                    inner_iters=int(row[5]),
                    step_delta=float(row[4]),
                )
            )
        return trace
    raise ValueError(f"unknown trace format '{fmt}'")
