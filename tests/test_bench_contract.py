"""The benchmark's tracer wraps module attributes by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    # The tracer's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for module_name, attr, _, _ in tracer.PATCHES:
        value = getattr(importlib.import_module(module_name), attr, None)
        assert callable(value), f"{module_name}.{attr} is not a callable binding"
    # originals() reads the same bindings on every benchmark run.
    assert len(tracer.originals()) == len(tracer.PATCHES) + 1
