import math

import numpy as np
import pytest

from rrmsim import (
    ChannelConfig,
    Direction,
    LinkScenario,
    PathSet,
    PulseSpec,
    RecordingConfig,
    build_toeplitz,
    equivalent_taps,
    make_weights,
    mutual_information,
    record_hologram,
    rhs_weights,
)
from rrmsim import link
from rrmsim.channel import Path
from rrmsim.link import (
    alpha_taps,
    alpha_taps_split,
    gamma_from_db,
    mean_ci,
    outage_ci,
    raised_cosine,
    stack_mi,
    trial_mi_curves,
)

from conftest import (
    block_matrix,
    logdet_mutual_information,
    make_five_paths,
    make_geometry,
    make_reference,
)


class TestRaisedCosine:
    def test_nyquist_zeros_exact(self):
        t = np.arange(-20, 21, dtype=float)
        w = raised_cosine(t, 0.25)
        assert w[20] == pytest.approx(1.0)
        nonzero = np.delete(w, 20)
        assert np.max(np.abs(nonzero)) < 1e-15

    def test_singularity_value(self):
        a = 0.25
        w = raised_cosine(np.array([1.0 / (2 * a)]), a)
        assert w[0] == pytest.approx((math.pi / 4) * np.sinc(1.0 / (2 * a)))

    def test_rolloff_validation(self):
        with pytest.raises(ValueError, match=r"^rolloff: must lie in \[0, 1\], got 1.5$"):
            PulseSpec(rolloff=1.5)

    def test_zero_rolloff_is_sinc(self):
        t = np.linspace(-3, 3, 25)
        assert np.allclose(raised_cosine(t, 0.0), np.sinc(t), atol=1e-15)


class TestEquivalentTaps:
    def test_beamforming_gain_over_random_weights(self):
        # perfect-CSI weights for a single zero-delay path concentrate h[0]
        rng = np.random.default_rng(20)
        geom = make_geometry(8, 8)
        ref = make_reference(geom)
        d = Direction.from_degrees(30.0, 60.0)
        paths = PathSet((Path(1.0 + 0j, 0.0, d),))
        pulse = PulseSpec()
        K = 4
        focused = equivalent_taps(
            geom, rhs_weights(geom, ref, [(d, 1.0 + 0j)]), paths, pulse, K
        )
        h0_focused = abs(focused[K - 1])
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=geom.shape)
            random_h = equivalent_taps(geom, _as_weights(w), paths, pulse, K)
            assert h0_focused > abs(random_h[K - 1])

    def test_zero_gain_path_contributes_nothing(self):
        geom = make_geometry(6, 6)
        ref = make_reference(geom)
        paths = PathSet(
            (
                Path(1.0 + 0j, 0.0, Direction.from_degrees(20, 30)),
                Path(0.0 + 0j, 3e-9, Direction.from_degrees(40, 200)),
            )
        )
        holo = record_hologram(geom, ref, paths, RecordingConfig(0.0, 1, 0))
        weights = make_weights(holo, "min")
        alpha = alpha_taps(geom, weights, paths)
        assert alpha[1] == 0j

    def test_all_zero_weights_give_a_zero_channel(self):
        # all-zero weights radiate nothing: zero taps, MI 0, out for every r_th > 0
        geom = make_geometry(4, 4)
        paths = make_five_paths()
        zero = _as_weights(np.zeros(geom.shape))
        h = equivalent_taps(geom, zero, paths, PulseSpec(), 8)
        assert np.array_equal(h, np.zeros(15, dtype=complex))
        assert mutual_information(build_toeplitz(h), 1e30) == 0.0
        gammas = np.array([0.0, 1.0, 1e30])
        mi = link._mi_bits(link._eigvals(link._gram_stack(h[None])), gammas)
        assert np.array_equal(mi, np.zeros((1, 3)))
        for r_th in (0.0, 1e-300, 2.0):
            assert np.array_equal(link._outage_bits(h[None], gammas, r_th), mi < r_th)

    def test_radiated_power_scale(self):
        # the radiated power is 1 whatever the scale of the weights
        geom = make_geometry(8, 8)
        ref = make_reference(geom)
        paths = make_five_paths()
        holo = record_hologram(geom, ref, paths, RecordingConfig(0.0, 1, 0))
        weights = make_weights(holo, "mean")
        a1 = alpha_taps(geom, weights, paths)
        a4 = alpha_taps(geom, _as_weights(4.0 * weights.values), paths)
        assert np.allclose(a4, a1, rtol=1e-12)

    def test_split_matches_direct_sum(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            geom = make_geometry(int(rng.integers(3, 9)), int(rng.integers(3, 9)))
            a_r, phase = rng.uniform(0.5, 2.5), rng.uniform(0, 2 * math.pi)
            n = int(rng.integers(1, 6))
            paths = PathSet(
                tuple(
                    Path(
                        complex(rng.normal(), rng.normal()),
                        rng.uniform(0.0, 2e-8),
                        Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)),
                    )
                    for _ in range(n)
                )
            )
            # A_r over a user amplitude drawn in [0.5, 1.5]
            ref = make_reference(geom, amplitude=a_r / rng.uniform(0.5, 1.5), phase=phase)
            cfg = RecordingConfig(0.0, 1, 0)
            holo = record_hologram(geom, ref, paths, cfg)
            strategy = "min" if trial % 2 else "none"
            weights = make_weights(holo, strategy)
            direct = alpha_taps(geom, weights, paths)
            dominant, residual = alpha_taps_split(geom, ref, weights, paths, cfg)
            err = np.abs(direct - (dominant + residual)) / np.maximum(np.abs(direct), 1e-30)
            assert float(np.max(err)) < 1e-9

    def test_split_requires_clean_context(self):
        geom = make_geometry(6, 6)
        ref = make_reference(geom)
        paths = make_five_paths()
        noisy = RecordingConfig(0.1, 2, 0)
        holo = record_hologram(geom, ref, paths, noisy)
        weights = make_weights(holo, "min")
        with pytest.raises(ValueError):
            alpha_taps_split(geom, ref, weights, paths, noisy)

    def test_fractional_delay_taps_follow_pulse(self):
        geom = make_geometry(8, 8)
        ref = make_reference(geom)
        tau = 3.7e-9
        d = Direction.from_degrees(25, 50)
        paths = PathSet((Path(1.0 + 0j, tau, d),))
        pulse = PulseSpec()
        K = 8
        weights = rhs_weights(geom, ref, [(d, 1.0 + 0j)])
        h = equivalent_taps(geom, weights, paths, pulse, K)
        alpha = alpha_taps(geom, weights, paths)[0]
        frac = tau / pulse.symbol_period
        for lag in (-1, 0, 1, 2):
            expected = alpha * raised_cosine(np.array([lag - frac]), pulse.rolloff)[0]
            assert h[K - 1 + lag] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("K", [1, 5, 64])
    def test_taps_cover_block_window(self, K):
        # 2K-1 taps, h[K-1+l] = sum_i alpha_i * w(l - d_i) at every lag l
        rng = np.random.default_rng(100 + K)
        geom = make_geometry(6, 7)
        pulse = PulseSpec(rolloff=0.35)
        paths = PathSet(
            tuple(
                Path(
                    complex(rng.normal(), rng.normal()),
                    rng.uniform(0.0, 12.0) * pulse.symbol_period,
                    Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)),
                )
                for _ in range(4)
            )
        )
        weights = _as_weights(rng.uniform(0.0, 1.0, size=geom.shape))
        h = equivalent_taps(geom, weights, paths, pulse, K)
        assert h.shape == (2 * K - 1,)
        alpha = alpha_taps(geom, weights, paths)
        delays = paths.arrays.delay / pulse.symbol_period
        for l in range(-(K - 1), K):
            expected = sum(
                a * raised_cosine(np.array([l - d]), pulse.rolloff)[0]
                for a, d in zip(alpha, delays)
            )
            assert abs(h[K - 1 + l] - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_zero_rolloff_taps_reach_window_edge(self):
        # the sinc tail beyond lag 600 is kept, not cut at a fixed radius
        geom = make_geometry(4, 4)
        d = Direction.from_degrees(20.0, 40.0)
        paths = PathSet((Path(1.0 + 0j, 0.4e-8, d), Path(0.5j, 2.3e-8, d)))
        pulse = PulseSpec(rolloff=0.0)
        weights = _as_weights(np.ones(geom.shape))
        K = 700
        h = equivalent_taps(geom, weights, paths, pulse, K)
        alpha = alpha_taps(geom, weights, paths)
        lags = np.arange(-(K - 1), K)
        far = np.abs(lags) > 600
        delays = paths.arrays.delay / pulse.symbol_period
        expected = sum(a * np.sinc(lags[far] - d) for a, d in zip(alpha, delays))
        assert np.max(np.abs(expected)) > 1e-6
        assert np.allclose(h[far], expected, rtol=1e-12, atol=0.0)


def _as_weights(values):
    from rrmsim.holography import WeightStack

    scaled = values / np.max(values) if np.max(values) > 0 else values
    return WeightStack(scaled, 0.0, 1.0, False, False)


def _window(K, taps):
    """Length-(2K-1) tap array with h[K-1+l] = taps[l] and zeros elsewhere."""
    h = np.zeros(2 * K - 1, dtype=complex)
    for lag, value in taps.items():
        h[K - 1 + lag] = value
    return h


class TestToeplitz:
    def test_single_tap_identity(self):
        H = build_toeplitz(_window(4, {0: 2.5 + 1j}))
        assert np.array_equal(H, (2.5 + 1j) * np.eye(4))

    def test_two_taps_lower_bidiagonal(self):
        H = build_toeplitz(_window(3, {0: 1.0 + 0j, 1: 0.5 + 0j}))
        expected = np.array(
            [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]], dtype=complex
        )
        assert np.array_equal(H, expected)

    def test_constant_diagonals_random(self):
        rng = np.random.default_rng(22)
        h = rng.normal(size=127) + 1j * rng.normal(size=127)
        H = build_toeplitz(h)
        assert H.shape == (64, 64)
        for i in range(1, 64):
            assert np.array_equal(H[i, 1:], H[i - 1, :-1])
        assert H[63, 0] == h[-1] and H[0, 63] == h[0]

    @pytest.mark.parametrize("shape", [(0,), (4,), (126,), (3, 3), ()])
    def test_rejects_even_length_and_non_vector(self, shape):
        with pytest.raises(ValueError):
            build_toeplitz(np.ones(shape, dtype=complex))


class TestMutualInformation:
    def test_zero_snr_is_zero(self):
        rng = np.random.default_rng(23)
        H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert mutual_information(H, 0.0) == 0.0

    def test_identity_channel(self):
        for k in (1, 4, 16):
            H = np.eye(k, dtype=complex)
            assert mutual_information(H, 3.0) == pytest.approx(math.log2(4.0), rel=1e-12)

    def test_eig_and_logdet_agree(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            gamma = rng.uniform(0.01, 50.0)
            a = mutual_information(H, gamma)
            b = logdet_mutual_information(H, gamma)
            assert a == pytest.approx(b, rel=1e-9)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(25)
        H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        gammas = np.logspace(-2, 3, 30)
        values = [mutual_information(H, g) for g in gammas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_unit_modulus_invariance(self):
        rng = np.random.default_rng(26)
        H = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        base = mutual_information(H, 5.0)
        for psi in (0.1, 2.0, 5.5):
            assert mutual_information(np.exp(1j * psi) * H, 5.0) == pytest.approx(
                base, abs=1e-9
            )

    def test_normalized_block_has_unit_receive_power(self, monkeypatch):
        scenario = small_scenario(normalization="normalized")
        calls = []
        normalize = link._normalize_taps
        monkeypatch.setattr(link, "_normalize_taps", lambda h: calls.append(h) or normalize(h))
        paths = make_five_paths().arrays
        terms, (weights,) = link._terms_and_weights([scenario], paths, [3], slice(None))
        H = build_toeplitz(link._scenario_taps(scenario, terms, weights))
        K = scenario.K
        assert H.shape == (K, K)
        assert len(calls) == 1
        assert np.real(np.trace(H @ H.conj().T)) / K == pytest.approx(1.0, abs=1e-12)
        # all-zero taps stay zero through the one normalization: MI 0
        def zero_taps(alpha, *args):
            return np.zeros(alpha.shape[:-1] + (2 * K - 1,), complex)

        monkeypatch.setattr(link, "tap_stack", zero_taps)
        calls.clear()
        H = build_toeplitz(link._scenario_taps(scenario, terms, weights))
        assert len(calls) == 1
        assert np.array_equal(H, np.zeros((K, K), complex))
        paths, seeds = link.draw_trials(scenario.channel, 3, 1)
        mi = stack_mi([scenario], paths, seeds, [-math.inf, 0.0, 40.0])[0]
        assert np.array_equal(mi, np.zeros((3, 3)))
        for r_th in (1e-300, 2.0):
            bits = link.stack_outage([scenario], paths, seeds, [-math.inf, 0.0, 40.0], r_th)[0]
            assert np.array_equal(bits, mi < r_th)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mutual_information(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            mutual_information(np.eye(2), -1.0)
        with pytest.raises(ValueError):
            mutual_information(np.full((2, 2), np.nan), 1.0)


def small_scenario(system="rrm", **overrides):
    geom = make_geometry(8, 8)
    base = dict(
        geom=geom,
        ref=make_reference(geom),
        pulse=PulseSpec(),
        channel=ChannelConfig("rician_random", L=4),
        system=system,
        normalization="absolute",
        K=32,
    )
    base.update(overrides)
    return LinkScenario(**base)


def outage_bits(scenario, r_th, snr_db, trials, seed):
    """``stack_outage`` bits of one SNR over the ``draw_trials`` draws."""
    paths, seeds = link.draw_trials(scenario.channel, trials, seed)
    return link.stack_outage([scenario], paths, seeds, [snr_db], r_th)[0][:, 0]


class TestOutage:
    def test_zero_threshold_never_out(self):
        assert not np.any(outage_bits(small_scenario(), 0.0, 10.0, trials=20, seed=5))

    def test_zero_snr_always_out(self):
        assert np.all(outage_bits(small_scenario(), 2.0, -math.inf, trials=20, seed=5))

    def test_reproducible_and_bounded(self):
        a = outage_bits(small_scenario(), 2.0, 5.0, trials=40, seed=9)
        b = outage_bits(small_scenario(), 2.0, 5.0, trials=40, seed=9)
        assert np.array_equal(a, b)
        p, half = outage_ci(a)
        assert 0.0 <= p <= 1.0
        assert half >= 0.0

    def test_paired_trials_monotone_in_snr(self):
        curves = trial_mi_curves(small_scenario(), [0.0, 6.0, 12.0], trials=50, seed=31)
        outs = [float(np.mean(curves[:, s] < 2.0)) for s in range(3)]
        assert outs[0] >= outs[1] >= outs[2]

    def test_systems_share_path_draws(self):
        # same seed, different system: identical path realizations by design
        rrm = trial_mi_curves(small_scenario("rrm"), [10.0], trials=5, seed=77)
        rhs = trial_mi_curves(small_scenario("rhs"), [10.0], trials=5, seed=77)
        assert rrm.shape == rhs.shape
        assert np.all(rrm > 0) and np.all(rhs > 0)

    def test_stack_mi_matches_mutual_information(self):
        scenario = small_scenario()
        paths = make_five_paths()
        snrs = [-math.inf, 0.0, 10.0]
        (mi,) = stack_mi([scenario], paths.arrays.broadcast(1), [3], snrs)[0]
        H = block_matrix(scenario, paths, 3)
        expected = [mutual_information(H, gamma_from_db(s)) for s in snrs]
        assert mi[0] == 0.0
        assert mi == pytest.approx(expected, rel=1e-12)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            small_scenario(system="mimo")
        with pytest.raises(ValueError):
            small_scenario(normalization="weird")

    # Before LinkScenario checked it, duration 0 failed inside eigvalsh. It
    # fails at construction now, with the message RecordingConfig gives.
    def test_zero_duration_rejected_like_recording_config(self):
        with pytest.raises(ValueError, match=r"^duration_symbols: must be >= 1, got 0$"):
            small_scenario(duration_symbols=0)
        with pytest.raises(ValueError, match=r"^duration_symbols: must be >= 1, got 0$"):
            RecordingConfig(duration_symbols=0)


class TestSummaries:
    def test_mean_ci_single_sample_has_no_ci(self):
        assert mean_ci([2.5]) == (2.5, None)

    def test_mean_ci_normal_half_width(self):
        x = np.array([1.0, 2.0, 4.0, 7.0])
        mean, half = mean_ci(x)
        assert mean == pytest.approx(3.5)
        assert half == pytest.approx(1.96 * np.std(x, ddof=1) / 2.0)

    def test_mean_ci_equal_samples_have_zero_width(self):
        # a mean of 100 copies of 0.1 is not exactly 0.1, so np.std is not 0
        x = np.full(100, 0.1)
        assert np.std(x, ddof=1) > 0.0
        assert mean_ci(x)[1] == 0.0
        assert mean_ci([3.0, 3.0])[1] == 0.0

    def test_outage_ci_extremes_have_zero_width(self):
        assert outage_ci(np.array([3.0, 4.0, 5.0]) < 2.0) == (0.0, 0.0)
        assert outage_ci(np.array([0.5, 1.0, 1.5]) < 2.0) == (1.0, 0.0)

    def test_outage_ci_binomial_half_width(self):
        p, half = outage_ci(np.array([1.0, 3.0, 1.0, 3.0]) < 2.0)
        assert p == 0.5
        assert half == pytest.approx(1.96 * math.sqrt(0.25 / 4))
