import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import (
    Direction,
    PathSet,
    RecordingConfig,
    make_weights,
    noise_power_for_snr,
    record_hologram,
    reconstruct_field,
    reference_field,
    reindex,
    rhs_weights,
    steering_field,
)
from rrmsim import beampattern as bp
from rrmsim import holography
from rrmsim.channel import ChannelConfig, Path, draw_paths
from rrmsim.holography import reconstruction_terms, record_power, save_matrix_csv, weight_stack
from rrmsim.link import draw_trials
from rrmsim.surface import object_field

from conftest import make_five_paths, make_geometry, make_reference, object_fields


def closed_form_power(geom, ref, paths):
    """Term-by-term expansion of the noise-free interference power.

    Built from the constant, the two reference cross terms and the pairwise
    path cross terms, never via |total field|^2.
    """
    beta = reference_field(geom, ref) / ref.amplitude
    per_path = [
        p.gain
        * np.exp(-1j * geom.angular_frequency * p.delay)
        * steering_field(geom, p.direction)
        for p in paths.paths
    ]
    const = ref.amplitude**2 + paths.total_power()
    r = ref.amplitude * np.exp(1j * ref.phase_offset) * beta
    total = np.full(geom.shape, const, dtype=float)
    for i, ei in enumerate(per_path):
        total += 2.0 * np.real(ei * np.conj(r))
        for j in range(i + 1, len(per_path)):
            total += 2.0 * np.real(ei * np.conj(per_path[j]))
    return total


class TestRecordHologram:
    def test_single_real_path_two_phasor_identity(self):
        geom = make_geometry(6, 6)
        ref = make_reference(geom, amplitude=1.0, phase=0.0)
        alpha = 0.8
        d = Direction.from_degrees(25.0, 130.0)
        tau = 3.0e-9
        paths = PathSet((Path(alpha + 0j, tau, d),))
        cfg = RecordingConfig(noise_power=0.0)
        holo = record_hologram(geom, ref, paths, cfg)
        steer = steering_field(geom, d)
        beta = reference_field(geom, ref)
        expected = (
            1.0
            + alpha**2
            + 2.0
            * alpha
            * np.cos(np.angle(steer) - geom.angular_frequency * tau - np.angle(beta))
        )
        assert np.allclose(holo, expected, atol=1e-12)

    def test_noise_free_matches_term_expansion(self, geom32, five_paths):
        # A_r = 2.0 over a user amplitude of 0.9
        ref = make_reference(geom32, amplitude=2.0 / 0.9, phase=0.7)
        cfg = RecordingConfig(noise_power=0.0)
        holo = record_hologram(geom32, ref, five_paths, cfg)
        expected = closed_form_power(geom32, ref, five_paths)
        assert np.max(np.abs(holo - expected)) < 1e-10

    def test_noise_adds_sigma2_on_average(self, geom32, five_paths):
        # >= 100 seeds at 10 dB recording SNR: the average excess over the
        # noise-free power matrix converges to the noise variance.
        ref = make_reference(geom32)
        sigma2 = noise_power_for_snr(10.0, five_paths)
        assert sigma2 == pytest.approx(five_paths.total_power() / 10.0)
        clean = closed_form_power(geom32, ref, five_paths)
        excess = []
        for seed in range(100):
            cfg = RecordingConfig(sigma2, 5, seed)
            holo = record_hologram(geom32, ref, five_paths, cfg)
            excess.append(np.mean(holo - clean))
        assert np.mean(excess) == pytest.approx(sigma2, rel=0.05)

    def test_entries_nonnegative_and_reproducible(self, geom32, five_paths):
        ref = make_reference(geom32)
        cfg = RecordingConfig(0.5, 6, 42)
        a = record_hologram(geom32, ref, five_paths, cfg)
        b = record_hologram(geom32, ref, five_paths, cfg)
        assert np.array_equal(a, b)
        assert np.min(a) >= 0.0

    def test_rejects_empty_paths_and_zero_reference(self):
        geom = make_geometry(3, 3)
        ref = make_reference(geom)
        with pytest.raises(ValueError):
            record_hologram(geom, ref, PathSet(()), RecordingConfig())
        # a zero reference cannot be built: ReferenceWaveSpec rejects it
        with pytest.raises(ValueError, match="^amplitude: must be positive, got 0.0$"):
            make_reference(geom, amplitude=0.0)


def two_stack_record_power(geom, ref, field, noise_power, num_samples, seeds):
    """``record_power`` as it was before its noise was drawn in blocks.

    Both (..., M, N, S) stacks of normals are drawn whole, one matrix after
    the other, and reduced by ``np.mean``: the oracle of the blocked draw.
    """
    reference = np.exp(1j * ref.phase_offset) * reference_field(geom, ref)
    carrier = field + reference
    c = carrier.reshape((-1,) + geom.shape)
    noise = np.broadcast_to(np.asarray(noise_power, dtype=float), carrier.shape[:-2]).ravel()
    if np.all(noise == 0.0):
        return np.abs(carrier) ** 2

    acc = np.empty(c.shape + (num_samples,))
    imag = np.empty_like(acc)
    for t in range(c.shape[0]):
        rng = np.random.Generator(np.random.Philox(int(seeds[t])))
        rng.standard_normal(out=acc[t])
        rng.standard_normal(out=imag[t])
    scale = np.sqrt(noise / 2.0)[:, None, None, None]
    acc *= scale
    acc += c.real[..., None]
    np.square(acc, out=acc)
    imag *= scale
    imag += c.imag[..., None]
    np.square(imag, out=imag)
    acc += imag
    return np.mean(acc, axis=-1).reshape(carrier.shape)


NOISE_PATTERNS = ("all", "zero")


def _noise_stack(rows, cols, samples, trials, pattern):
    geom = make_geometry(rows, cols)
    ref = make_reference(geom, amplitude=1.3 / 0.9, phase=0.4)  # over a user amplitude of 0.9
    stack = draw_paths(
        ChannelConfig("rician_random", L=3),
        [np.random.default_rng(100 + t) for t in range(trials)],
    )
    noise = np.linspace(0.05, 2.5, trials)
    if pattern == "zero":
        noise[:] = 0.0
    seeds = [2**63 + 977 * t for t in range(trials)]
    return (geom, ref, object_fields(geom, stack), noise, samples, seeds)


@st.composite
def blocked_records(draw):
    """A small recording and a block size placed below, at or above its matrices.

    The matrix size P = M*N*S (in floats) ends up below the block (whole
    matrices per block, the last block partial), equal to it, or just above
    it (row ranges of one matrix, the last range partial, or one row per
    block when a row alone exceeds the block).
    """
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    samples = draw(st.integers(1, 9))
    trials = draw(st.integers(1, 7))
    pattern = draw(st.sampled_from(NOISE_PATTERNS))
    P = rows * cols * samples
    block = draw(
        st.one_of(
            st.just(P),
            st.integers(P + 1, 3 * P),
            st.integers(max(1, P - 2 * cols * samples), max(1, P - 1)),
            st.integers(1, cols * samples),
        )
    )
    return _noise_stack(rows, cols, samples, trials, pattern), block


class TestBlockedNoise:
    """``record_power`` draws and reduces its noise in blocks, bit for bit as the two-stack draw."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(blocked_records())
    def test_equals_two_stack_draw_at_any_block_size(self, case):
        args, block = case
        with mock.patch.object(holography, "_BLOCK_BYTES", 8 * block):
            got = record_power(*args)
        assert np.array_equal(got, two_stack_record_power(*args))

    # Real block size (32,768 floats): M*N*S = 32,000 (below), 32,768
    # (equal) and 32,825 (just above, not a multiple of a block or of a row
    # block); S = 8 and 9 take np.add.reduce's pairwise order.
    @pytest.mark.parametrize(
        "rows, cols, samples",
        [(64, 100, 5), (64, 128, 4), (65, 101, 5), (32, 128, 8), (37, 29, 9)],
    )
    @pytest.mark.parametrize("pattern", NOISE_PATTERNS)
    def test_equals_two_stack_draw_at_the_block_size(self, rows, cols, samples, pattern):
        args = _noise_stack(rows, cols, samples, 3, pattern)
        assert holography._BLOCK_BYTES == 8 * 32768
        assert np.array_equal(record_power(*args), two_stack_record_power(*args))

    @pytest.mark.parametrize("zeroed", [[0], [1], [0, 2]])
    def test_a_stack_mixing_zero_and_positive_noise_is_rejected(self, zeroed):
        geom, ref, field, noise, samples, seeds = _noise_stack(3, 4, 2, 3, "all")
        noise[zeroed] = 0.0
        with pytest.raises(ValueError, match="^noise_power: "):
            record_power(geom, ref, field, noise, samples, seeds)

    @pytest.mark.parametrize("pattern", NOISE_PATTERNS)
    def test_a_negative_noise_power_is_rejected(self, pattern):
        geom, ref, field, noise, samples, seeds = _noise_stack(3, 4, 2, 3, pattern)
        noise[1] = -0.5
        with pytest.raises(ValueError, match="^noise_power: "):
            record_power(geom, ref, field, noise, samples, seeds)


@st.composite
def scaled_recordings(draw, noisy, exact):
    """A small recording stack and a factor c: 2^k when exact, else a log-uniform float.

    The stack is three trials of a manual (the five standard paths), Rician
    or cluster-profile channel, recorded at 10 dB when noisy (else without
    noise) with S samples, S below 8 (added in sequence) or at least 8
    (pairwise).
    """
    kind = draw(st.sampled_from(["manual", "rician_random", "cdl_profile"]))
    channel = ChannelConfig(kind, L=3, paths=make_five_paths().paths)
    paths, seeds = draw_trials(channel, 3, draw(st.integers(0, 2**32 - 1)))
    geom = make_geometry(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    ref = make_reference(geom, draw(st.floats(0.5, 4.0)), draw(st.floats(0.0, 2 * math.pi)))
    noise = noise_power_for_snr(10.0 if noisy else None, paths)
    samples = draw(st.sampled_from([1, 3, 7, 8, 9, 16]))
    if exact:
        c = 2.0 ** draw(st.integers(-8, 8))
    else:
        c = 10.0 ** draw(st.floats(-3.0, 3.0))
    return geom, ref, paths, noise, samples, seeds, c


class TestAmplitudeScale:
    """Only the ratio of path gains to A_r shapes a hologram: the user amplitude's replacement.

    Scaling A_r and every path gain by c, and the noise power by c^2, scales
    ``record_power`` by c^2 and leaves ``weight_stack`` as it was: bit for
    bit when c is a power of two, to rounding otherwise. A schema-4 user
    amplitude A_u is the case c = 1/A_u.
    """

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("exact", [True, False])
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_scaling_gains_and_reference_scales_power_and_keeps_weights(self, data, noisy, exact):
        geom, ref, paths, noise, samples, seeds, c = data.draw(scaled_recordings(noisy, exact))
        strategy = data.draw(st.sampled_from(["none", "mean", "min"]), label="strategy")
        power = record_power(geom, ref, object_fields(geom, paths), noise, samples, seeds)
        scaled = record_power(
            geom,
            make_reference(geom, c * ref.amplitude, ref.phase_offset),
            object_fields(geom, paths._replace(gain=c * paths.gain)),
            c**2 * noise,
            samples,
            seeds,
        )
        w, ws = weight_stack(power, strategy), weight_stack(scaled, strategy)
        assert np.array_equal(ws.clipped, w.clipped) and np.array_equal(ws.degenerate, w.degenerate)
        if exact:
            assert np.array_equal(scaled, c**2 * power)
            assert np.array_equal(ws.values, w.values)
            assert np.array_equal(ws.b, c**2 * w.b)
            # a degenerate matrix keeps rho = 1
            assert np.array_equal(ws.rho, np.where(w.degenerate, 1.0, w.rho / c**2))
        else:
            peak = np.max(power, axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(scaled / c**2 - power) <= 1e-13 * peak)
            assert np.max(np.abs(ws.values - w.values)) <= 1e-12


class TestReindex:
    def test_singleton(self):
        assert np.array_equal(reindex(np.array([[3.5]])), np.array([[3.5]]))

    def test_two_by_two(self):
        out = reindex(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([[4.0, 3.0], [2.0, 1.0]]))

    def test_involution_random(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5))
        assert np.array_equal(reindex(reindex(x)), x)

    def test_input_untouched(self):
        x = np.arange(6.0).reshape(2, 3)
        y = reindex(x)
        y[0, 0] = 99.0
        assert x[1, 2] == 5.0


class TestMakeWeights:
    def _hologram(self, values):
        return values

    def test_constant_hologram_mean_strategy_degenerates(self):
        holo = self._hologram(np.full((4, 4), 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the flag is the only signal
            w = make_weights(holo, "mean")
        assert w.degenerate
        assert w.rho == 1.0
        assert np.all(w.values == 0.0)

    def test_min_strategy_affine_range(self):
        rng = np.random.default_rng(1)
        holo = self._hologram(rng.uniform(1.0, 9.0, size=(6, 7)))
        w = make_weights(holo, "min")
        assert w.b == np.min(holo)
        assert float(np.min(w.values)) == 0.0
        assert float(np.max(w.values)) == pytest.approx(1.0, abs=1e-15)
        assert not w.clipped

    def test_mean_strategy_offsets_and_clips(self):
        rng = np.random.default_rng(2)
        holo = self._hologram(rng.uniform(0.0, 4.0, size=(5, 5)))
        w = make_weights(holo, "mean")
        assert w.b == pytest.approx(float(np.mean(holo)))
        assert w.clipped
        assert np.min(w.values) == 0.0

    def test_none_strategy_preserves_shape(self):
        holo = self._hologram(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = make_weights(holo, "none")
        assert w.b == 0.0
        # reindex then scale by 1/max
        assert np.allclose(w.values, np.array([[4.0, 3.0], [2.0, 1.0]]) / 4.0)

    def test_mean_strategy_cleans_sidelobes(self, geom32, five_paths, five_dirs):
        # pattern floor with the constant removed sits below the floor
        # without it (coarse grid keeps this fast)
        ref = make_reference(geom32)
        holo = record_hologram(
            geom32, ref, five_paths, RecordingConfig(0.0, 1, 0)
        )
        theta, phi = bp.default_axes(1.0)
        floors = {}
        for strategy in ("none", "mean"):
            w = make_weights(holo, strategy)
            pattern = bp.array_factor(geom32, ref, w, theta, phi)
            floors[strategy] = bp.sidelobe_metrics(pattern, five_dirs, 5.0)[
                "mean_sidelobe_db"
            ]
        assert floors["mean"] < floors["none"]

    def test_unknown_strategy_rejected(self):
        holo = self._hologram(np.ones((2, 2)))
        with pytest.raises(ValueError):
            make_weights(holo, "median")

    @pytest.mark.parametrize(
        "power",
        (
            np.ones(4),
            np.ones((2, 2, 2)),
            [[1.0, -0.5], [1.0, 1.0]],
            [[1.0, np.nan], [1.0, 1.0]],
            [[1.0, np.inf], [1.0, 1.0]],
        ),
    )
    def test_power_not_finite_nonnegative_2d_rejected(self, power):
        with pytest.raises(ValueError, match="power"):
            make_weights(power, "mean")


class TestReconstruction:
    def test_identity_weights_return_reference(self):
        geom = make_geometry(5, 4)
        ref = make_reference(geom)
        field = reconstruct_field(geom, ref, np.ones(geom.shape))
        assert np.allclose(field, reference_field(geom, ref), atol=1e-15)

    def test_shape_mismatch_rejected(self):
        geom = make_geometry(3, 3)
        with pytest.raises(ValueError):
            reconstruct_field(geom, make_reference(geom), np.ones((2, 3)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_weights_rejected(self, bad):
        geom = make_geometry(3, 3)
        w = np.ones(geom.shape)
        w[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            reconstruct_field(geom, make_reference(geom), w)

    def _decomposition_residual(self, geom, ref, paths):
        e_o = object_field(geom, paths)
        e_r = reference_field(geom, ref)
        w_prime = reindex(np.abs(e_o + e_r) ** 2)
        e_h = reconstruct_field(geom, ref, w_prime)
        terms = reconstruction_terms(geom, ref, paths)
        return float(np.max(np.abs(e_h - sum(terms.values()))))

    def test_single_unit_path_three_terms(self):
        # with one path the cross-path group vanishes
        geom = make_geometry(8, 8)
        ref = make_reference(geom, amplitude=1.4)
        paths = PathSet((Path(1.0 + 0j, 0.0, Direction.from_degrees(30, 45)),))
        terms = reconstruction_terms(geom, ref, paths)
        assert np.allclose(terms["cross_path"], 0.0, atol=1e-15)
        assert self._decomposition_residual(geom, ref, paths) < 1e-10

    def test_five_path_decomposition(self, geom32):
        ref = make_reference(geom32)
        paths = make_five_paths(delays=[0.0] * 5)
        assert self._decomposition_residual(geom32, ref, paths) < 1e-10


class TestRhsWeights:
    def test_rejects_empty(self, geom32):
        with pytest.raises(ValueError):
            rhs_weights(geom32, make_reference(geom32), [])

    def test_broadside_constant_on_feed_circles(self):
        # theta = 0: the desired field is flat, so the weight depends only
        # on the reference phase, i.e. on the feed distance
        geom = make_geometry(8, 8)
        ref = make_reference(geom)
        w = rhs_weights(geom, ref, [(Direction(0.0, 0.0), 1.0 + 0j)]).values
        d = np.round(geom.feed_distance(), 12)
        for value in np.unique(d):
            group = w[d == value]
            assert np.max(group) - np.min(group) < 1e-12

    def test_range_endpoints(self, geom32):
        # in-phase elements map to (nearly) 1, antiphase to (nearly) 0; the
        # exact endpoints appear only where the grid samples the alignment
        ref = make_reference(geom32)
        w = rhs_weights(geom32, ref, [(Direction.from_degrees(30, 60), 1.0 + 0j)])
        assert float(np.max(w.values)) == pytest.approx(1.0, abs=1e-3)
        assert float(np.min(w.values)) == pytest.approx(0.0, abs=1e-3)
        assert np.all(w.values >= 0.0) and np.all(w.values <= 1.0)
        assert w.b == 0.0

    def test_five_beams_near_all_directions(self, geom32, five_paths, five_dirs):
        # Cross terms between the five superposed beams (and the affine
        # map's constant) shift one apex by up to two 0.5-degree cells; a
        # single desired beam lands within one cell (previous test). Accept
        # a 1.5-degree radius here and require the pattern to be within
        # 1 dB of the apex at every true direction.
        ref = make_reference(geom32)
        desired = [(p.direction, p.gain) for p in five_paths.paths]
        w = rhs_weights(geom32, ref, desired)
        theta, phi = bp.default_axes(0.5)
        pattern = bp.array_factor(geom32, ref, w, theta, phi)
        found = bp.find_peaks(pattern, count=10, min_separation_deg=3.0)
        for d in five_dirs:
            best = min(
                found.peaks,
                key=lambda item: bp.angular_separation(d, item[0]),
            )
            err = math.degrees(bp.angular_separation(d, best[0]))
            assert err <= 1.5
            assert pattern.value_at(d) >= best[1] - 1.0

    def test_single_beam_within_one_grid_cell(self, geom32):
        ref = make_reference(geom32)
        target = Direction.from_degrees(40.0, 35.0)
        w = rhs_weights(geom32, ref, [(target, 1.0 + 0j)])
        theta, phi = bp.default_axes(0.5)
        pattern = bp.array_factor(geom32, ref, w, theta, phi)
        found = bp.find_peaks(pattern, count=1, min_separation_deg=3.0)
        err = math.degrees(bp.angular_separation(target, found.peaks[0][0]))
        assert err <= math.hypot(0.5, 0.5)

    def test_peak_direction_invariant_to_gain_scale(self, five_paths):
        geom = make_geometry(16, 16)
        ref = make_reference(geom)
        desired = [(p.direction, p.gain) for p in five_paths.paths]
        theta, phi = bp.default_axes(2.0)
        p1 = bp.array_factor(geom, ref, rhs_weights(geom, ref, desired), theta, phi)
        scaled = [(d, 5.0 * g) for d, g in desired]
        p2 = bp.array_factor(geom, ref, rhs_weights(geom, ref, scaled), theta, phi)
        assert np.argmax(p1.power_db) == np.argmax(p2.power_db)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 6))
        path = tmp_path / "matrix.csv"
        save_matrix_csv(m, path)
        assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), m)
        text = path.read_text()
        assert len(text.splitlines()) == 4
        assert "," in text.splitlines()[0]
