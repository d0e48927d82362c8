"""Acceptance suite: one test per criterion, tolerances pinned, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s`.

Modeling choices that the criteria leave open are fixed here and documented
inline: power-ordering claims (criteria 3, 4 and the monotonicity half of 5)
are evaluated in the absolute-power mode, where transmit power is a real
budget; the recorded-vs-perfect-CSI band (second half of criterion 5) is
evaluated in the default trace-normalized mode, which is the mode built for
that comparison. The identity-style criteria (1, 6, 7, 8) have no mode.
"""

import math
import time

import numpy as np

from rrmsim import (
    ChannelConfig,
    Direction,
    LinkScenario,
    PathSet,
    PulseSpec,
    RecordingConfig,
    record_hologram,
    reference_field,
    reindex,
)
from rrmsim.channel import Path
from rrmsim.harness.invariants import _alpha_split, _mutual_information, _reconstruction_terms
from rrmsim.holography import make_weights
from rrmsim.link import (
    alpha_taps,
    gamma_from_db,
    raised_cosine,
    trial_mi_curves,
)
from rrmsim.surface import object_field
from rrmsim.harness import run_preset

from conftest import (
    block_matrix,
    logdet_mutual_information,
    make_five_paths,
    make_geometry,
    make_reference,
)


def _status(num, detail):
    print(f"\n[PASS] criterion {num}: {detail}")


def _mi_curve(scenario, paths, snr_db_list, recording_seed=0):
    H = block_matrix(scenario, paths, recording_seed)
    lam = np.clip(np.linalg.eigvalsh(H @ H.conj().T), 0.0, None)
    return np.array(
        [float(np.sum(np.log2(1.0 + gamma_from_db(s) * lam)) / scenario.K) for s in snr_db_list]
    )


def _scenario(size, system="rrm", strategy="mean", rec_snr=None, dur=5, mode="absolute"):
    geom = make_geometry(size, size)
    return LinkScenario(
        geom=geom,
        ref=make_reference(geom),
        pulse=PulseSpec(),
        channel=ChannelConfig("manual", paths=make_five_paths().paths),
        system=system,
        strategy=strategy,
        recording_snr_db=rec_snr,
        duration_symbols=dur,
        normalization=mode,
    )


def test_criterion_1_reindexing_reconstruction_identities():
    """100 random scenarios: four-term residual < 1e-10, conjugacy < 1e-12, < 10 s.

    The identities hold for real composite gains, so scenarios draw real
    gains and zero delays (random sizes 2-16, 1-6 paths, random directions).
    """
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_decomp = 0.0
    worst_conj = 0.0
    for _ in range(100):
        geom = make_geometry(int(rng.integers(2, 17)), int(rng.integers(2, 17)))
        ref = make_reference(geom, amplitude=rng.uniform(0.5, 3.0))
        paths = PathSet(
            tuple(
                Path(
                    complex(rng.uniform(0.1, 2.0)),
                    0.0,
                    Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)),
                )
                for _ in range(int(rng.integers(1, 7)))
            )
        )
        e_o = object_field(geom, paths)
        conj_residual = float(np.max(np.abs(reindex(e_o) - np.conj(e_o))))
        worst_conj = max(worst_conj, conj_residual)

        e_r = reference_field(geom, ref)
        e_h = e_r * reindex(np.abs(e_o + e_r) ** 2)
        terms = _reconstruction_terms(geom, ref, paths)
        worst_decomp = max(worst_decomp, float(np.max(np.abs(e_h - sum(terms.values())))))
    elapsed = time.perf_counter() - start
    assert worst_decomp < 1e-10
    assert worst_conj < 1e-12
    assert elapsed < 10.0
    _status(1, f"decomposition {worst_decomp:.2e}, conjugacy {worst_conj:.2e}, {elapsed:.1f}s")


def test_criterion_2_beampattern_recovery(five_dirs, tmp_path):
    """32x32 five-path recorded pattern: peaks within 2 deg, 3 dB cleaner floor, < 60 s."""
    start = time.perf_counter()
    rs = run_preset("fig5_beampattern", out_dir=tmp_path, quiet=True)
    elapsed = time.perf_counter() - start
    rows = {(r.sweep_value, r.metric): r.value for r in rs.rows}
    peak_err = rows[("mean", "max_peak_error_deg")]
    floor_gap = rows[("none", "mean_sidelobe_db")] - rows[("mean", "mean_sidelobe_db")]
    assert peak_err <= 2.0
    assert floor_gap >= 3.0
    assert elapsed < 60.0
    _status(2, f"peak error {peak_err:.2f} deg, floor gap {floor_gap:.1f} dB, {elapsed:.1f}s")


def test_criterion_3_constant_term_gain_ordering():
    """8x8: mean beats none at every integer SNR 0..20; 64x64: mean and min within 5%.

    Absolute mode, noise-free recording. "The two strategies" at 64x64 are
    the two subtraction-constant choices (mean and min), which is what
    converges as the surface grows; the no-subtraction reference stays a
    separate curve.
    """
    snrs = list(range(0, 21))
    paths = make_five_paths()
    mi8_mean = _mi_curve(_scenario(8, strategy="mean"), paths, snrs)
    mi8_none = _mi_curve(_scenario(8, strategy="none"), paths, snrs)
    min_gap = float(np.min(mi8_mean - mi8_none))
    assert min_gap > 0.0, f"mean must beat none at 8x8, worst gap {min_gap:.3f}"

    mi64_mean = _mi_curve(_scenario(64, strategy="mean"), paths, snrs)
    mi64_min = _mi_curve(_scenario(64, strategy="min"), paths, snrs)
    rel = np.abs(mi64_mean - mi64_min) / np.maximum(np.maximum(mi64_mean, mi64_min), 1e-12)
    assert float(np.max(rel)) <= 0.05
    _status(3, f"8x8 min gap {min_gap:.3f} bits, 64x64 agreement {float(np.max(rel))*100:.1f}%")


def test_criterion_4_recording_noise_behavior():
    """32x32: longer recording never hurts (50 seeds); 0 dB within 10% of 10 dB."""
    snrs = [0.0, 5.0, 10.0, 15.0, 20.0]
    paths = make_five_paths()
    n_seeds = 50
    curves = {}
    for rec_snr in (0.0, 10.0):
        for dur in (1, 5):
            scenario = _scenario(32, rec_snr=rec_snr, dur=dur)
            samples = [
                _mi_curve(scenario, paths, snrs, recording_seed=4000 + 13 * s)
                for s in range(n_seeds)
            ]
            curves[(rec_snr, dur)] = np.mean(samples, axis=0)
    for rec_snr in (0.0, 10.0):
        gap = curves[(rec_snr, 5)] - curves[(rec_snr, 1)]
        assert np.all(gap >= 0.0), f"duration 5 vs 1 at rec SNR {rec_snr}: {gap}"
    # the 10% band is evaluated at the recording duration 5 operating point
    rel = np.abs(curves[(0.0, 5)] - curves[(10.0, 5)]) / np.maximum(curves[(10.0, 5)], 1e-12)
    assert float(np.max(rel)) <= 0.10
    _status(
        4,
        f"duration gain >= 0 at all points, rec-SNR 0 vs 10 dB within "
        f"{float(np.max(rel))*100:.1f}%",
    )


def test_criterion_5_size_snr_monotonicity_and_rhs_band():
    """Absolute: MI strictly grows with size and SNR; normalized: RRM within 15% of RHS."""
    snrs = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]
    paths = make_five_paths()
    curves = {
        size: _mi_curve(_scenario(size, rec_snr=10.0), paths, snrs, recording_seed=5)
        for size in (8, 16, 32)
    }
    for size in (8, 16, 32):
        assert np.all(np.diff(curves[size]) > 0.0)
    for snr_idx in range(len(snrs)):
        assert curves[8][snr_idx] < curves[16][snr_idx] < curves[32][snr_idx]

    band_snrs = list(np.arange(0.0, 21.0, 2.0))
    rrm = _mi_curve(_scenario(32, rec_snr=10.0, mode="normalized"), paths, band_snrs, 5)
    rhs = _mi_curve(_scenario(32, system="rhs", mode="normalized"), paths, band_snrs)
    rel = np.abs(rrm - rhs) / np.maximum(rhs, 1e-12)
    assert float(np.max(rel)) <= 0.15
    _status(
        5,
        f"monotone in size and SNR; recorded vs perfect-CSI within "
        f"{float(np.max(rel))*100:.1f}% (normalized mode)",
    )


def test_criterion_6_equivalent_amplitude_split():
    """Single-sum amplitudes equal the term-group split to 1e-9 on 50 scenarios."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(50):
        geom = make_geometry(int(rng.integers(3, 11)), int(rng.integers(3, 11)))
        a_r, phase = rng.uniform(0.5, 2.5), rng.uniform(0, 2 * math.pi)
        paths = PathSet(
            tuple(
                Path(
                    complex(rng.normal(), rng.normal()),
                    rng.uniform(0.0, 2.0e-8),
                    Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)),
                )
                for _ in range(int(rng.integers(1, 6)))
            )
        )
        # A_r over a user amplitude drawn in [0.5, 1.5]
        ref = make_reference(geom, amplitude=a_r / rng.uniform(0.5, 1.5), phase=phase)
        cfg = RecordingConfig(0.0, 1, 0)
        holo = record_hologram(geom, ref, paths, cfg)
        weights = make_weights(holo, "min" if trial % 2 else "none")
        direct = alpha_taps(geom, weights, paths)
        dom, res = _alpha_split(geom, ref, weights, paths)
        err = np.abs(direct - (dom + res)) / np.maximum(np.abs(direct), 1e-30)
        worst = max(worst, float(np.max(err)))
    assert worst < 1e-9
    _status(6, f"max relative split residual {worst:.2e} over 50 scenarios")


def test_criterion_7_mutual_information_numerics():
    """Eig vs log-det to 1e-9 on 100 random 32x32 H; MI(0)=0; monotone in SNR."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        H = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        gamma = rng.uniform(0.01, 100.0)
        a = _mutual_information(H, gamma)
        b = logdet_mutual_information(H, gamma)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
        assert _mutual_information(H, 0.0) == 0.0
        grid = [_mutual_information(H, g) for g in np.logspace(-2, 2, 9)]
        assert all(y > x for x, y in zip(grid, grid[1:]))
    assert worst < 1e-9
    _status(7, f"eig vs log-det max relative difference {worst:.2e}")


def test_criterion_8_nyquist_property():
    """Composite pulse at rolloffs 0, 0.25, 0.5 and 1: w[0]=1 and |w[k!=0]| under 1e-12."""
    lags = np.arange(-20, 21)
    center_err = worst = 0.0
    for rolloff in (0.0, 0.25, 0.5, 1.0):
        w = raised_cosine(lags, rolloff)
        center_err = max(center_err, abs(float(w[lags == 0][0]) - 1.0))
        worst = max(worst, float(np.max(np.abs(w[lags != 0]))))
    assert center_err < 1e-12
    assert worst < 1e-12
    _status(8, f"|w[0]-1| = {center_err:.1e}, max |w[k!=0]| = {worst:.1e}")


# Criterion 9 setup: Rician L = 5, seed 909, absolute mode, R_th = 2.
OUTAGE_SNRS = [-12.0, -8.0, -4.0, 0.0, 4.0, 8.0]
OUTAGE_R_TH = 2.0

# Bands, in bits, for the paired mean of rrm - rhs MI at each OUTAGE_SNRS
# entry, and, in dB, for each system's 0.1-outage crossing. Each is the
# measured value +/- about 0.1 bit or 1.3 dB (docs/rrm_vs_rhs.md has the
# cause): 8x8 at 2000 trials measured differences 0.329 0.547 0.752 0.893
# 0.968 1.002 (95% half-widths 0.004-0.016) and crossings rrm -4.22, rhs
# -0.17 dB; 16x16 at 300 trials measured 0.694 0.866 0.963 1.009 1.029
# 1.037 (half-widths 0.014-0.026) and crossings rrm -8.91, rhs -6.03 dB.
PAIRED_BANDS = {
    8: {
        "diff": [
            (0.23, 0.43), (0.45, 0.65), (0.65, 0.85), (0.79, 0.99), (0.87, 1.07), (0.90, 1.10)
        ],
        "rrm": (-5.5, -3.0),
        "rhs": (-1.5, 1.0),
    },
    16: {
        "diff": [
            (0.59, 0.80), (0.76, 0.97), (0.86, 1.07), (0.90, 1.11), (0.92, 1.13), (0.93, 1.14)
        ],
        "rrm": (-10.2, -7.6),
        "rhs": (-7.3, -4.7),
    },
}


def _paired_curves(size, trials):
    """(trials, n_snr) MI of rrm and rhs on the same seed-909 path draws."""
    curves = {}
    for system in ("rrm", "rhs"):
        geom = make_geometry(size, size)
        scenario = LinkScenario(
            geom=geom,
            ref=make_reference(geom),
            pulse=PulseSpec(),
            channel=ChannelConfig("rician_random", L=5),
            system=system,
            normalization="absolute",
        )
        curves[system] = trial_mi_curves(scenario, OUTAGE_SNRS, trials=trials, seed=909)
    return curves


def _crossing_db(p, level=0.1):
    """SNR where an outage curve that starts above ``level`` first falls below it.

    Linear interpolation between the two grid points around the crossing.
    """
    i = int(np.argmax(p < level))
    assert p[0] >= level and p[i] < level
    lo, hi = OUTAGE_SNRS[i - 1], OUTAGE_SNRS[i]
    return lo + (hi - lo) * (p[i - 1] - level) / (p[i - 1] - p[i])


def _check_paired_bands(size, curves):
    """Assert the size's bands; returns a one-line summary."""
    bands = PAIRED_BANDS[size]
    diff = curves["rrm"] - curves["rhs"]
    mean = diff.mean(axis=0)
    half = 1.96 * diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
    for snr, m, h, (lo, hi) in zip(OUTAGE_SNRS, mean, half, bands["diff"]):
        assert lo <= m - h and m + h <= hi, (size, snr, m, h, (lo, hi))
    crossings = {}
    for system in ("rrm", "rhs"):
        crossings[system] = _crossing_db(np.mean(curves[system] < OUTAGE_R_TH, axis=0))
        lo, hi = bands[system]
        assert lo <= crossings[system] <= hi, (size, system, crossings[system], (lo, hi))
    return (
        f"{size}x{size} rrm-rhs {np.array2string(mean, precision=3)} bits, "
        f"0.1-outage at rrm {crossings['rrm']:.2f} / rhs {crossings['rhs']:.2f} dB"
    )


def test_criterion_9_outage_sanity():
    """8x8, R_th=2, 2000 paired trials: outage falls with SNR, rrm at or below rhs.

    The transmit-referred grid covers the 8x8 transition region (the array
    gain of 64 elements moves it below 0 dB in absolute mode). Both systems
    see the same path draws (seed 909); in absolute mode RRM's per-path
    amplitude power is about twice RHS's (docs/rrm_vs_rhs.md), so its
    outage is at most RHS's at every SNR (measured: rrm [1, 1, .048, 0, 0,
    0] against rhs [1, 1, .728, .072, .002, 0]). The paired MI difference
    and both 0.1-outage crossings lie in their PAIRED_BANDS.
    """
    trials = 2000
    curves = _paired_curves(8, trials)
    outs = {}
    for system in ("rrm", "rhs"):
        p = np.mean(curves[system] < OUTAGE_R_TH, axis=0)
        half = 1.96 * np.sqrt(np.maximum(p * (1 - p), 0.0) / trials)
        outs[system] = (p, half)
        assert np.all((0.0 <= p) & (p <= 1.0))
        # paired trials and MI monotone in SNR make this exact, not statistical
        assert np.all(np.diff(p) <= 0.0)
    assert np.all(outs["rrm"][0] <= outs["rhs"][0])
    bands = _check_paired_bands(8, curves)
    detail = "; ".join(
        f"{system} outage {np.array2string(outs[system][0], precision=3)}"
        f" +/- {np.array2string(outs[system][1], precision=3)}"
        for system in ("rrm", "rhs")
    )
    _status(9, f"{detail}; {bands}")


def test_criterion_9_paired_bands_16x16():
    """16x16 on criterion 9's setup, 300 paired trials: the same bands, at 16x16."""
    _status(9, _check_paired_bands(16, _paired_curves(16, 300)))


def test_criterion_10_preset_determinism(tmp_path):
    """Any preset rerun with the same seed emits byte-identical CSVs."""
    overrides = {"link": {"snr_db": [0.0, 10.0, 20.0]}}
    run_preset("fig6_b_sweep", overrides=overrides, out_dir=tmp_path / "r1", quiet=True)
    run_preset("fig6_b_sweep", overrides=overrides, out_dir=tmp_path / "r2", quiet=True)
    a = (tmp_path / "r1" / "results.csv").read_bytes()
    assert a == (tmp_path / "r2" / "results.csv").read_bytes()

    small_outage = {
        "link": {"snr_db": [0.0, 10.0]},
        "outage": {"r_th": 2.0, "trials": 50},
    }
    run_preset("fig10_outage", overrides=small_outage, out_dir=tmp_path / "o1", quiet=True)
    run_preset("fig10_outage", overrides=small_outage, out_dir=tmp_path / "o2", quiet=True)
    b = (tmp_path / "o1" / "results.csv").read_bytes()
    assert b == (tmp_path / "o2" / "results.csv").read_bytes()
    _status(10, f"fig6 and fig10 reruns byte-identical ({len(a)} and {len(b)} bytes)")
