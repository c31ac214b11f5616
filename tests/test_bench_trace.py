"""The benchmark's traced run wraps package functions by name: each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_traced_functions_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)   # dataclasses look the module up
    spec.loader.exec_module(run)
    assert run.TRACED
    missing = [f"{module}.{name}" for module, names, _, _, _ in run.TRACED for name in names
               if not callable(getattr(importlib.import_module(f"pseudoherm.{module}"), name, None))]
    assert missing == []
