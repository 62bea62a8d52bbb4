"""perfbench/tracing.py wraps functions of soncbound by name; each of
those names must still exist, or only a traced benchmark run fails."""

import importlib.util
import sys
from pathlib import Path

import soncbound

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, names in tracing.WRAPPED.items():
        module = getattr(soncbound, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"soncbound.{module_name}.{name}"
