"""The benchmark tracer patches symgeo functions by name: every name it lists
must resolve, or a traced run raises AttributeError."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves(target):
    obj = importlib.import_module(target.module)
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
