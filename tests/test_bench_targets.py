"""The benchmark tracer patches symgeo functions by name: every name it lists
must resolve, or a traced run raises AttributeError, and its hooks must still
count and time what they wrap."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("target", load_tracing().TARGETS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves(target):
    obj = importlib.import_module(target.module)
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_hooks_record_a_deformation_suite():
    from symgeo.ffengine import chains, flat_torus_complex, run_deformation_suite

    init = chains.PolyChain.__init__
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert chains.PolyChain.__init__ is not init
        assert run_deformation_suite(flat_torus_complex(8), n_chains=1)["pass"]
    finally:
        tracer.uninstall()
    assert chains.PolyChain.__init__ is init
    assert tracer.counters["ffengine.chains.pieces_in"] > 0
    assert tracer.counters["ffengine.chains.pieces_out"] > 0
    assert {"ffengine.deform.level2", "ffengine.deform.level1"} <= set(tracer.stats)


def test_tracer_times_the_estimator_draw():
    from symgeo import spherical

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        spherical.phi_lambda(3, [0.0, 0.0, 0.0], [0.5, 0.0, -0.5],
                             N=spherical._CHUNK + 1, seed=0)
    finally:
        tracer.uninstall()
    # one draw per chunk, each its own span under phi_lambda
    assert tracer.stats["spherical.haar_batch"][0] == 2
    assert tracer.stats["spherical.phi_lambda"][0] == 1
