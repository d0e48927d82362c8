"""The benchmark tracer's layer table against the package.

``perfbench/spans.py`` wraps every (module, attribute) of its ``LAYERS`` in
place. A layer whose function was deleted or renamed would otherwise show
only as a crash of the traced benchmark run, and a binding left wrapped
would slow every later call. The file is loaded, never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rrmsim.harness.cli  # noqa: F401  (binds the layers in every rrmsim module)
from rrmsim import RecordingConfig

from conftest import make_five_paths, make_geometry, make_reference

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, module, attr, _ in spans.LAYERS]
)
def test_layer_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _bindings() -> dict:
    """(module name, attribute) -> bound object, for every holder the tracer scans."""
    attrs = {attr for _, _, attr, _ in spans.LAYERS}
    holders = [importlib.import_module(module) for _, module, _, _ in spans.LAYERS]
    holders += [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rrmsim"]
    return {(h.__name__, a): vars(h)[a] for h in holders for a in attrs if a in vars(h)}


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _bindings()
        for _, module, attr, _ in spans.LAYERS:
            assert during[(module, attr)] is not before[(module, attr)], (module, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_weight_counters_read_the_traced_views():
    """Under the tracer, the weight counters read what the traced views return.

    The benchmark's reference replay runs untraced, so only this test would
    catch a counter that cannot read the ``make_weights`` result.
    """
    from rrmsim import beampattern, holography

    geom = make_geometry(8, 8)
    ref = make_reference(geom, amplitude=8.0)
    tracer = spans.Tracer()
    tracer.op = 0
    try:
        tracer.install()
        power = holography.record_hologram(geom, ref, make_five_paths(), RecordingConfig())
        weights = holography.make_weights(power, "mean")
        theta, phi = beampattern.default_axes(10.0)
        beampattern.array_factor(geom, ref, weights, theta, phi)
    finally:
        tracer.uninstall()
    counts = {key: value for (op, key), value in tracer.counts.items() if op == 0}
    for key in ("holography.weights_clipped", "holography.weights_degenerate"):
        assert type(counts[key]) is int, key
    assert counts["holography.weights_clipped"] == int(weights.clipped)
    assert counts["holography.weights_degenerate"] == 0
    for layer in ("record_hologram", "make_weights"):
        assert counts[f"holography.{layer}.calls"] == 1
    assert counts["beampattern.array_factor.dirs"] == theta.size * phi.size
