"""The paper's weight, size and recording relations as paired bands.

Every curve runs on the same ``draw_trials`` draws: 150 Rician (L = 5)
trials, seed 2024, absolute mode, SNR 0-20 dB, recording noise-free unless
a test says otherwise. A relation is a per-trial difference between two
curves; its mean and 95% half-width at every SNR must lie inside the band,
so the test checks the size of the effect, not only its sign.

Each band is the value measured on these draws widened by a margin of about
two to four half-widths (the measured mean range over SNR and the widest
half-width are in each comment); draws of other seeds, and a 400-trial run,
fall inside every band.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from rrmsim import link
from rrmsim.channel import ChannelConfig
from rrmsim.link import LinkScenario, PulseSpec

from conftest import make_geometry, make_reference

SNRS = [0.0, 5.0, 10.0, 15.0, 20.0]
TRIALS = 150
SEED = 2024
CHANNEL = ChannelConfig("rician_random", L=5)
SIZES = (8, 16, 32)

# mean - none and min - none, bits, per size.
# Measured mean - none: 8x8 0.937-1.075 (hw .055), 16x16 0.939-0.967 (.024),
# 32x32 0.951-0.958 (.014); min - none: 8x8 0.281-0.336 (.022), 16x16
# 0.214-0.222 (.012), 32x32 0.174-0.176 (.009).
SUBTRACTION_BANDS = {
    8: {"mean": (0.80, 1.25), "min": (0.20, 0.42)},
    16: {"mean": (0.85, 1.10), "min": (0.16, 0.28)},
    32: {"mean": (0.88, 1.05), "min": (0.13, 0.22)},
}
# (mean - min) / mean per size; measured 8x8 0.073-0.183 (hw .011), 16x16
# 0.061-0.130 (.004), 32x32 0.055-0.102 (.002). Its drop from one size to the
# next, paired per trial, is the shrinking relation: 8 -> 16 measured
# 0.012-0.054 (hw .011) and 16 -> 32 0.006-0.027 (hw .004).
GAP_BANDS = {8: (0.05, 0.22), 16: (0.045, 0.16), 32: (0.04, 0.12)}
GAP_DROP_BANDS = {(8, 16): (0.0, 0.09), (16, 32): (0.0, 0.05)}
# MI step of the mean strategy per 4x the elements, log2 4 = 2 bits at high
# SNR: 16 - 8 measured 1.982-2.076 (hw .039), 32 - 16 1.989-2.011 (hw .018).
SIZE_STEP_BANDS = {(8, 16): (1.85, 2.20), (16, 32): (1.90, 2.10)}
# 16x16, mean strategy. Duration 5 - 1 symbols: at 0 dB recording SNR
# measured 0.848-0.882 (hw .036), at 10 dB 0.160-0.164 (hw .008).
# Noise-free minus (10 dB, 5 symbols): measured 0.048-0.049 (hw .003).
DURATION_BANDS = {0.0: (0.70, 1.00), 10.0: (0.12, 0.21)}
NOISE_FREE_BAND = (0.03, 0.07)


def _scenario(size, strategy="mean", rec_snr=None, duration=5):
    geom = make_geometry(size, size)
    return LinkScenario(
        geom=geom,
        ref=make_reference(geom),
        pulse=PulseSpec(),
        channel=CHANNEL,
        strategy=strategy,
        recording_snr_db=rec_snr,
        duration_symbols=duration,
        normalization="absolute",
    )


@pytest.fixture(scope="module")
def curves():
    """(TRIALS, n_snr) MI of every scenario the relations compare, on one shared draw."""
    paths, seeds = link.draw_trials(CHANNEL, TRIALS, SEED)
    out = {}
    for size in SIZES:
        for strategy in ("none", "mean", "min"):
            out[size, strategy] = link.stack_mi([_scenario(size, strategy)], paths, seeds, SNRS)[0]
    for rec_snr in DURATION_BANDS:
        for duration in (1, 5):
            scenario = _scenario(16, rec_snr=rec_snr, duration=duration)
            out[16, rec_snr, duration] = link.stack_mi([scenario], paths, seeds, SNRS)[0]
    return out


def _assert_band(label, diff, band):
    """Mean and 95% half-width of the per-trial differences, at every SNR, inside band."""
    mean = diff.mean(axis=0)
    half = 1.96 * diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
    lo, hi = band
    for snr, m, h in zip(SNRS, mean, half):
        assert lo <= m - h and m + h <= hi, (label, snr, m, h, band)


def _gap(curves, size):
    return (curves[size, "mean"] - curves[size, "min"]) / curves[size, "mean"]


@pytest.mark.parametrize("size", SIZES)
def test_subtracting_a_constant_beats_none(curves, size):
    for strategy, band in SUBTRACTION_BANDS[size].items():
        diff = curves[size, strategy] - curves[size, "none"]
        _assert_band(f"{size}x{size} {strategy} - none", diff, band)


def test_mean_min_gap_shrinks_with_size(curves):
    for size in SIZES:
        _assert_band(f"{size}x{size} (mean - min) / mean", _gap(curves, size), GAP_BANDS[size])
    for (small, large), band in GAP_DROP_BANDS.items():
        drop = _gap(curves, small) - _gap(curves, large)
        _assert_band(f"gap {small}x{small} - {large}x{large}", drop, band)


def test_size_step_is_two_bits(curves):
    for (small, large), band in SIZE_STEP_BANDS.items():
        step = curves[large, "mean"] - curves[small, "mean"]
        _assert_band(f"mean {large}x{large} - {small}x{small}", step, band)


@pytest.mark.parametrize("rec_snr", sorted(DURATION_BANDS))
def test_longer_recording_gains(curves, rec_snr):
    gain = curves[16, rec_snr, 5] - curves[16, rec_snr, 1]
    _assert_band(f"duration 5 - 1 at {rec_snr:g} dB", gain, DURATION_BANDS[rec_snr])


def test_noise_free_recording_at_least_recorded(curves):
    loss = curves[16, "mean"] - curves[16, 10.0, 5]
    _assert_band("noise-free - (10 dB, 5 symbols)", loss, NOISE_FREE_BAND)


# docs/weight_power_split.py at 60 trials, per size: the RRM and RHS mean
# shares of sum W^2 and the ratio of sum |alpha|^2, RRM / RHS. Bands from
# docs/rrm_vs_rhs.md (2,000 trials: 0.351-0.358, 0.758-0.798, 2.19-2.29)
# with a margin; measured at 60 trials 0.347-0.358, 0.758-0.800, 2.21-2.32.
SPLIT_BANDS = {"rrm_share": (0.30, 0.42), "rhs_share": (0.72, 0.84), "ratio": (1.9, 2.6)}


def test_weight_power_split_script(capsys):
    script = Path(__file__).resolve().parents[1] / "docs" / "weight_power_split.py"
    spec = importlib.util.spec_from_file_location("weight_power_split", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(60)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["size", "rrm_mean_share", "rhs_mean_share", "alpha_power_rrm/rhs"]
    assert [row.split()[0] for row in rows] == ["8x8", "16x16", "32x32"]
    for row in rows:
        for (name, (lo, hi)), value in zip(SPLIT_BANDS.items(), row.split()[1:]):
            assert lo <= float(value) <= hi, (row, name)
