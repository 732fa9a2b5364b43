"""The benchmark's tracer still finds a binding into every layer.

perfbench/tracing.py wraps names that zdgspectra's modules look up at call
time (`classes.build_zdg`, `spectra.classes_for`, ...).  After a rename in
the package the tracer would find no binding for a layer, and that layer's
metrics would read 0 with no error.  Installing the tracer, without running
anything, turns such a rename into a failure here; running one closed-route
and one verify op under it checks that each layer's span is still recorded.
"""
import importlib.util
from pathlib import Path

from zdgspectra import classes, spectra
from zdgspectra.rings import Zn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_a_binding_for_every_span():
    tracer = load_tracing().Tracer().install()
    try:
        assert tracer.missing_spans() == set()
        assert hasattr(spectra.classes_for, "__wrapped__")
    finally:
        tracer.close()
    assert not hasattr(spectra.classes_for, "__wrapped__")
    assert not hasattr(classes.build_zdg, "__wrapped__")


def span_names(tracer):
    return [span[0] for span in tracer.spans]


def test_closed_route_and_verify_record_their_layer_spans():
    # a refactor that calls around a wrapped name would leave the layer's
    # span out of the trace and read its metrics as 0
    tracer = load_tracing().Tracer().install()
    try:
        spectra.spectrum_pair(spectra.ring_join_decomposition(Zn(720), "associate", "closed"))
        closed = span_names(tracer)
        tracer.spans.clear()
        spectra.verify_ring(Zn(12))
        verify = set(span_names(tracer))
    finally:
        tracer.close()
    assert closed.count("spectra.closed") == 1
    assert closed.count("spectra.assemble") == 2
    assert {
        "graph.build", "classes.partition", "spectra.decompose", "spectra.assemble", "spectra.oracle"
    } <= verify
