"""The benchmark in perfbench/ wraps package functions by name; they must exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_resolves_on_package(module, name):
    assert callable(getattr(importlib.import_module(f"teleswitch.{module}"), name))
