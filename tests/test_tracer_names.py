"""The benchmark tracer wraps streamreg functions by name; every name it
lists must still resolve, or a traced benchmark run crashes at install."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("layer, owner, attr", tracer.SPANNED,
                         ids=[layer for layer, _, _ in tracer.SPANNED])
def test_spanned_name_resolves(layer, owner, attr):
    # ``Tracer.install`` reads each attribute from the owner's own namespace
    resolved = tracer._owners()[owner]
    assert attr in vars(resolved)
    assert callable(getattr(resolved, attr))


def test_tau_counter_target_resolves():
    from streamreg.scheduler import SchedulerConfig

    assert callable(vars(SchedulerConfig)["tau"])
