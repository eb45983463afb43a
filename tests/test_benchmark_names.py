"""The benchmark in perfbench/ wraps package functions by name; they must exist."""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from teleswitch import analysis, switch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_resolves_on_package(module, name):
    assert callable(getattr(importlib.import_module(f"teleswitch.{module}"), name))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_benchmark_fidelity_profile_call_form_still_works(n):
    # the oracle workload calls fidelity_profile(control, outcome, [p], n) positionally
    rng = np.random.default_rng(n)
    d = math.factorial(n)
    control = switch.ControlState(switch.haar_random_state(d, rng))
    outcome, p = switch.haar_random_state(d, rng), float(rng.uniform(0.0, 1 / 3))
    got = analysis.fidelity_profile(control, outcome, [p], n)
    assert np.array_equal(got, analysis.fidelity_profile(control, outcome, [p]))
