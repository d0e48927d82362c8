"""Factored steering, the cached reference phase and the real-valued noisy
recording, each checked against a direct per-path or complex evaluation.

The references below build every M x N steering map with one complex
exponential per element and sum paths in Python loops, so they share no
code path with the factored implementation.
"""

import math

import numpy as np
import pytest

from rrmsim import (
    Direction,
    PathSet,
    RecordingConfig,
    SurfaceGeometry,
    WeightStack,
    object_field,
    record_hologram,
    reference_field,
    rhs_weights,
    steering_field,
)
from rrmsim.channel import ChannelConfig, Path, sample_paths
from rrmsim.link import alpha_taps
from rrmsim.surface import reference_phase, steering_stack

from conftest import make_geometry, make_reference

UNIT_TOL = 1e-12
REL_TOL = 1e-12


def _steer(geom, d):
    st = math.sin(d.theta)
    u, v = st * math.cos(d.phi), st * math.sin(d.phi)
    dist = geom.element_x()[:, None] * u + geom.element_y()[None, :] * v
    return np.exp(-1j * geom.k_free * dist)


def _object(geom, paths, ref):
    total = np.zeros(geom.shape, dtype=complex)
    for p in paths.paths:
        g = p.gain * np.exp(-1j * ref.angular_frequency * p.delay)
        total += g * _steer(geom, p.direction)
    return total


def _alpha(geom, ref, weights, paths):
    w = weights.values
    a_tx = math.sqrt(1.0 / float(np.sum(w**2)))
    beta = reference_field(geom, ref) / ref.amplitude
    out = []
    for p in paths.paths:
        g = p.gain * np.exp(-1j * ref.angular_frequency * p.delay)
        out.append(a_tx * g * np.sum(w * beta * _steer(geom, p.direction)))
    return np.array(out)


def _rhs(geom, ref, desired):
    w_int = np.zeros(geom.shape, dtype=complex)
    for d, gain in desired:
        w_int += np.conj(gain) * np.conj(_steer(geom, d))
    real = np.real(w_int * np.conj(reference_field(geom, ref)))
    return (real / np.max(np.abs(real)) + 1.0) / 2.0


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _one_path_7x12():
    geom = make_geometry(7, 12)
    paths = PathSet((Path(0.7 - 0.4j, 3.3e-9, Direction.from_degrees(37.0, 221.0)),))
    return geom, paths


def _cdl_32x32():
    geom = make_geometry(32, 32)
    paths = sample_paths(ChannelConfig("cdl_profile", delay_spread=3.0e-8), 11)
    assert len(paths) == 13
    return geom, paths


CASES = [pytest.param(_one_path_7x12, id="7x12-L1"), pytest.param(_cdl_32x32, id="32x32-cdl")]


@pytest.mark.parametrize("case", CASES)
class TestFactoredAgainstLoops:
    def test_steering_field(self, case):
        geom, paths = case()
        for p in paths.paths:
            direct = _steer(geom, p.direction)
            assert np.max(np.abs(steering_field(geom, p.direction) - direct)) < UNIT_TOL

    def test_steering_stack_shapes(self, case):
        geom, paths = case()
        ax, ay = steering_stack(geom, paths.arrays.theta, paths.arrays.phi)
        assert ax.shape == (geom.rows, len(paths))
        assert ay.shape == (geom.cols, len(paths))

    def test_object_field(self, case):
        geom, paths = case()
        ref = make_reference(geom)
        assert _rel(object_field(geom, paths, ref), _object(geom, paths, ref)) < REL_TOL

    def test_alpha_taps(self, case):
        geom, paths = case()
        ref = make_reference(geom)
        w = np.random.default_rng(5).uniform(0.0, 1.0, size=geom.shape)
        weights = WeightStack(w / w.max(), 0.0, 1.0, False, False)
        got = alpha_taps(geom, ref, weights, paths)
        assert _rel(got, _alpha(geom, ref, weights, paths)) < REL_TOL

    def test_rhs_weights(self, case):
        geom, paths = case()
        ref = make_reference(geom)
        gains = paths.carrier_gains(ref.angular_frequency)
        desired = [(p.direction, g) for p, g in zip(paths.paths, gains)]
        got = rhs_weights(geom, ref, desired).values
        assert _rel(got, _rhs(geom, ref, desired)) < REL_TOL

    def test_noisy_recording(self, case):
        geom, paths = case()
        ref = make_reference(geom)
        cfg = RecordingConfig(noise_power=0.3, duration_symbols=4, rng_seed=1234)
        got = record_hologram(geom, ref, paths, cfg)

        c = cfg.user_amplitude * _object(geom, paths, ref) + reference_field(geom, ref)
        rng = np.random.Generator(np.random.Philox(cfg.rng_seed))
        scale = math.sqrt(cfg.noise_power / 2.0)
        shape = geom.shape + (cfg.num_samples,)
        z = rng.normal(0.0, scale, size=shape) + 1j * rng.normal(0.0, scale, size=shape)
        expected = np.mean(np.abs(c[:, :, None] + z) ** 2, axis=2)
        assert _rel(got, expected) < REL_TOL


class TestReferenceCache:
    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        geom = make_geometry(6, 9)
        ref = make_reference(geom, amplitude=1.5)
        first = reference_field(geom, ref)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(reference_field(geom, ref), expected)

    def test_cached_phase_is_read_only(self):
        phase = reference_phase(make_geometry(4, 4))
        with pytest.raises(ValueError):
            phase[0, 0] = 0.0

    def test_matches_direct_phase(self):
        geom = make_geometry(5, 8)
        ref = make_reference(geom, amplitude=2.0)
        direct = 2.0 * np.exp(-1j * geom.k_sub * geom.feed_distance())
        assert np.array_equal(reference_field(geom, ref), direct)
        assert np.array_equal(reference_phase(geom), direct / 2.0)

    def test_geometries_do_not_share_entries(self):
        a = make_geometry(8, 8)
        b = SurfaceGeometry.half_wavelength(8, 8, 30.0e9, substrate_index=2.0)
        field = reference_field(a, make_reference(a))
        other = reference_field(b, make_reference(b))
        assert not np.allclose(field, other)
