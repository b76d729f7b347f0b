"""The traced layers named by bench/spans.py exist in the package.

The benchmark tracer skips a traced function that no longer exists, so a
renamed layer would only show up as a missing metric; this catches it here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_package_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module_name, func_name = target.rsplit(".", 1)
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, func_name, None)), target
