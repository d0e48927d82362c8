"""Outage bits from spectral bounds against the eigen MI they stand in for.

``link.stack_outage`` decides MI < r_th from two bounds read off each
block's taps, from a Cholesky log-determinant where the bounds do not
decide, and from the eigen MI where the Cholesky value lies within the
rounding margin. Every bit must equal ``stack_mi(...) < r_th``, including at
thresholds placed exactly on a block's eigen MI and one ulp either side of
it, and the bounds must hold on any taps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import link
from rrmsim.harness import run_preset
from rrmsim.harness.config import config_from_dict

SNRS = [-math.inf, -10.0, 0.0, 10.0, 40.0]
KINDS = ("manual", "rician_random", "cdl_profile")


def _scenario(kind, system, normalization, size, rolloff=0.25, K=16):
    cfg = config_from_dict(
        {
            "surface": {"M": size, "N": size},
            "channel": {"kind": kind},
            "link": {"K": K, "normalization": normalization, "rolloff": rolloff},
        }
    )
    return cfg.scenario(system)


def _eigen_bits(h, gammas, r_th):
    return link._mi_bits(link._eigvals(link._gram_stack(h)), gammas) < r_th


def _thresholds(mi):
    """Fixed rates, plus exact eigen MI values of some pairs and one ulp either side."""
    exact = np.unique(mi[:, 1:][::3].ravel())[:: max(1, mi.size // 12)]
    near = [np.nextafter(exact, -np.inf), exact, np.nextafter(exact, np.inf)]
    return [0.5, 2.0, 4.0] + np.concatenate(near).tolist()


def _random_taps(rng, T, K, spread=1.0):
    h = rng.normal(size=(T, 2 * K - 1)) + 1j * rng.normal(size=(T, 2 * K - 1))
    h *= spread ** np.abs(np.arange(2 * K - 1) - (K - 1))
    h[:, K - 1] += 3.0 * rng.normal(size=T)
    return h


@pytest.mark.parametrize("normalization", ("absolute", "normalized"))
@pytest.mark.parametrize("system", ("rrm", "rhs"))
@pytest.mark.parametrize("kind", KINDS)
def test_stack_outage_equals_stack_mi_below_threshold(kind, system, normalization, monkeypatch):
    size = {"manual": 4, "rician_random": 8, "cdl_profile": 16}[kind]
    scenario = _scenario(kind, system, normalization, size, rolloff=0.0 if size == 8 else 0.25)
    paths, seeds = link.draw_trials(scenario.channel, 17, 5 + size)
    mi = link.stack_mi([scenario], paths, seeds, SNRS)[0]
    # Uneven chunks (6, 6, 5) and Cholesky batches of 6 pairs.
    monkeypatch.setattr(link, "chunk_trials", lambda scenario: 6)
    monkeypatch.setattr(link, "STACK_BYTES", 6 * 16 * scenario.K**2)
    for r_th in _thresholds(mi):
        bits = link.stack_outage([scenario], paths, seeds, SNRS, r_th)[0]
        assert bits.dtype == bool
        assert np.array_equal(bits, mi < r_th), r_th


def test_threshold_on_the_eigen_mi_is_decided_by_the_eigen_mi(monkeypatch):
    scenario = _scenario("rician_random", "rrm", "absolute", 8)
    paths, seeds = link.draw_trials(scenario.channel, 12, 44)
    mi = link.stack_mi([scenario], paths, seeds, SNRS)[0]
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(G):
        solved.append(G.shape[0])
        return eigvalsh(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for t in range(len(seeds)):
        r_th = mi[t, 3]
        for rate in (np.nextafter(r_th, -np.inf), r_th, np.nextafter(r_th, np.inf)):
            bits = link.stack_outage([scenario], paths, seeds, SNRS, rate)[0]
            assert np.array_equal(bits, mi < rate)
    assert len(solved) == 3 * len(seeds)


@pytest.mark.parametrize("normalized", (False, True))
def test_bits_on_synthetic_taps(normalized):
    rng = np.random.default_rng(8)
    K = 12
    single = np.pad(rng.normal(size=(4, 1)) + 0j, ((0, 0), (K - 1, K - 1)))  # H = h_0 I
    h = np.concatenate(
        [
            single,
            _random_taps(rng, 20, K),
            _random_taps(rng, 20, K, spread=0.3),
            _random_taps(rng, 10, K, spread=1e-9),
        ]
    )
    if normalized:
        h = link._normalize_taps(h)
    else:
        h = np.concatenate([h, np.zeros((2, 2 * K - 1), dtype=complex)])
    gammas = np.array([link.gamma_from_db(snr) for snr in SNRS])
    mi = link._mi_bits(link._eigvals(link._gram_stack(h)), gammas)
    # The bounds of a single-tap block are tight, so its exact MI tests the margins.
    for r_th in [0.0] + _thresholds(mi) + _thresholds(mi[: len(single)]):
        assert np.array_equal(
            link._outage_bits(h, gammas, r_th), _eigen_bits(h, gammas, r_th)
        ), r_th


@st.composite
def tap_stacks(draw):
    """(T, 2K-1) taps of one kind: a single tap, near-single, all zero, random or wide-range."""
    kind = draw(st.sampled_from(("single", "near_single", "zero", "random", "wide_range")))
    T, K = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (T, 2 * K - 1)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "wide_range":  # tap magnitudes spread over up to 12 decades
        h *= 10.0 ** rng.uniform(-draw(st.floats(0.0, 12.0)), 0.0, size=shape)
    elif kind != "random":
        centre = h[:, K - 1].copy()
        h *= draw(st.sampled_from((1e-15, 1e-12, 1e-8))) if kind == "near_single" else 0.0
        if kind != "zero":
            h[:, K - 1] = centre
    return h * 10.0 ** draw(st.floats(-3.0, 3.0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    h=tap_stacks(),
    snrs=st.lists(st.one_of(st.just(-math.inf), st.floats(-30.0, 60.0)), min_size=1, max_size=4),
    pick=st.integers(0, 2**16),
)
def test_property_outage_bits_equal_eigen_bits(h, snrs, pick):
    """Bits equal the eigen MI's at r_th on one pair's eigen MI and one ulp either side."""
    gammas = np.array([link.gamma_from_db(snr) for snr in snrs])
    mi = link._mi_bits(link._eigvals(link._gram_stack(h)), gammas)
    exact = mi.flat[pick % mi.size]
    for r_th in (np.nextafter(exact, -np.inf), exact, np.nextafter(exact, np.inf)):
        assert np.array_equal(link._outage_bits(h, gammas, r_th), mi < r_th), r_th


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    h=tap_stacks(),
    snrs=st.lists(st.one_of(st.just(-math.inf), st.floats(-30.0, 60.0)), min_size=1, max_size=4),
)
def test_property_tap_bounds_enclose_the_spectrum_and_the_mi(h, snrs):
    """lam_lo <= the smallest eigenvalue, Lam >= the largest, and upper >= eigen MI >= lower.

    The eigenvalues within eigvalsh's rounding (K eps lam_max, taken as
    1e-12 lam_max) and the MI within the margin of ``_outage_bits``.
    """
    gammas = np.array([link.gamma_from_db(snr) for snr in snrs])
    lam = np.linalg.eigvalsh(link._gram_stack(h))
    _, lam_lo, lam_hi = link._tap_spectrum(h)
    slack = 1e-12 * lam_hi
    assert np.all(lam_lo <= lam[:, 0] + slack)
    assert np.all(lam_hi >= lam[:, -1] - slack)
    upper, lower, lam_max = link._outage_bounds(h, gammas)
    mi = link._mi_bits(link._eigvals(link._gram_stack(h)), gammas)
    margin = 1e-9 + 1e-12 * gammas * lam_max[:, None]
    assert np.all(upper >= mi - margin)
    assert np.all(lower <= mi + margin)


def test_failed_cholesky_falls_back_to_the_eigen_mi(monkeypatch):
    scenario = _scenario("rician_random", "rhs", "absolute", 8)
    paths, seeds = link.draw_trials(scenario.channel, 9, 2)
    mi = link.stack_mi([scenario], paths, seeds, SNRS)[0]

    def fails(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fails)
    for r_th in _thresholds(mi):
        assert np.array_equal(link.stack_outage([scenario], paths, seeds, SNRS, r_th)[0], mi < r_th)


class TestBounds:
    K = 16

    def _taps(self):
        rng = np.random.default_rng(31)
        return np.concatenate(
            [
                _random_taps(rng, 30, self.K),
                _random_taps(rng, 30, self.K, spread=0.4),
                np.pad([[0.7 - 0.2j]], ((0, 0), (self.K - 1, self.K - 1))),  # H = h_0 I
            ]
        )

    def test_window_sums_are_the_gram_diagonal(self):
        h = self._taps()
        diag, _, _ = link._tap_spectrum(h)
        G = link._gram_stack(h)
        want = np.real(np.diagonal(G, axis1=-2, axis2=-1))
        assert diag == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_eigenvalues_lie_in_the_tap_range(self):
        h = self._taps()
        _, lam_min, lam_max = link._tap_spectrum(h)
        lam = np.linalg.eigvalsh(link._gram_stack(h))
        tol = 1e-12 * lam_max
        assert np.all(lam_max >= lam[:, -1] - tol)
        assert np.all(lam_min <= lam[:, 0] + tol)
        assert np.any(lam_min > 0.0)
        assert lam_min[-1] == pytest.approx(lam[-1, 0], rel=1e-12)
        assert lam_max[-1] == pytest.approx(lam[-1, -1], rel=1e-12)

    @pytest.mark.parametrize("normalized", (False, True))
    def test_bounds_enclose_the_eigen_mi(self, normalized):
        h = link._normalize_taps(self._taps()) if normalized else self._taps()
        gammas = np.array([link.gamma_from_db(snr) for snr in SNRS])
        upper, lower, _ = link._outage_bounds(h, gammas)
        mi = link._mi_bits(link._eigvals(link._gram_stack(h)), gammas)
        tol = 1e-12 * (1.0 + mi)
        assert np.all(upper >= mi - tol)
        assert np.all(lower <= mi + tol)
        # single-tap block: both bounds are tight
        assert upper[-1] == pytest.approx(mi[-1], rel=1e-12, abs=1e-15)
        assert lower[-1] == pytest.approx(mi[-1], rel=1e-12, abs=1e-15)

    def test_zero_taps(self):
        h = np.zeros((3, 2 * self.K - 1), dtype=complex)
        gammas = np.array([0.0, 1.0, 1e4])
        upper, lower, lam_max = link._outage_bounds(h, gammas)
        assert np.all(upper == 0.0) and np.all(lower == 0.0) and np.all(lam_max == 0.0)
        assert not link._outage_bits(h, gammas, 0.0).any()
        assert link._outage_bits(h, gammas, 1e-300).all()

    def test_normalized_zero_channel_has_mi_zero(self, monkeypatch):
        scenario = _scenario("rician_random", "rhs", "normalized", 4)
        paths, seeds = link.draw_trials(scenario.channel, 3, 1)
        zeros = np.zeros((3, 2 * scenario.K - 1), dtype=complex)
        monkeypatch.setattr(link, "tap_stack", lambda *args: zeros)
        mi = link.stack_mi([scenario], paths, seeds, SNRS)[0]
        assert np.array_equal(mi, np.zeros((3, len(SNRS))))
        for r_th in (1e-300, 1.0):
            bits = link.stack_outage([scenario], paths, seeds, SNRS, r_th)[0]
            assert np.array_equal(bits, mi < r_th) and bits.all()


def test_fig10_screens_most_blocks_and_pairs(tmp_path, monkeypatch):
    """Work count, not time: the bounds leave few blocks for Cholesky and fewer for eigvalsh."""
    counts = {"eigvalsh": 0, "cholesky": 0}

    def counting(name, fn):
        def wrapped(a):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return fn(a)

        return wrapped

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    trials = 40
    rs = run_preset(
        "fig10_outage", overrides={"outage": {"trials": trials}}, out_dir=tmp_path, quiet=True
    )
    blocks = 2 * 2 * trials  # sizes x systems x trials
    pairs = blocks * len(rs.rows) // 4
    assert len(rs.rows) == 4 * 6
    assert counts["eigvalsh"] < 0.10 * blocks
    assert counts["cholesky"] < 0.15 * pairs
