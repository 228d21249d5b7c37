"""The benchmark tracer rebinds library functions by module attribute.

``perfbench/tracing.py`` lists every (module, attribute) it wraps in
``TARGETS``; a renamed or deleted function would only show up when a traced
benchmark runs. This loads the tracer from its file, without changing it,
and checks that every target still resolves to a callable.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [name for mod, attr, name, _ in tracing.TARGETS
               if not callable(getattr(mod, attr, None))]
    assert missing == []
