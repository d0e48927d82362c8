"""The stacked Monte-Carlo kernel against its single-block views.

``stack_mi`` evaluates chunks of trials as (T, ...) stacks; every trial must
give what ``sample_paths``, the single-block views and ``mutual_information``
give for that trial alone (``conftest.per_trial_mi``), and the same bits whatever the chunk boundaries. The
sweeps draw each trial once and hand the same draws to rrm and rhs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import channel, link
from rrmsim.channel import ChannelConfig, PathArrays, PathSet, draw_paths, sample_paths
from rrmsim.harness import run_preset
from rrmsim.harness.cli import main
from rrmsim.harness.config import config_from_dict
from rrmsim.holography import (
    RecordingConfig,
    WeightStack,
    make_weights,
    record_hologram,
    record_power,
    weight_stack,
)

from conftest import make_five_paths, make_geometry, make_reference, per_trial_mi

SNRS = [-10.0, 0.0, 10.0]
SEED = 321
KINDS = ("manual", "rician_random", "cdl_profile")


def _scenario(kind, system, normalization):
    cfg = config_from_dict(
        {
            "surface": {"M": 8, "N": 8},
            "channel": {"kind": kind},
            "link": {"K": 16, "normalization": normalization},
        }
    )
    return cfg.scenario(system)


@pytest.mark.parametrize("normalization", ("absolute", "normalized"))
@pytest.mark.parametrize("system", ("rrm", "rhs"))
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_trials_equal_single_blocks(kind, system, normalization, monkeypatch):
    scenario = _scenario(kind, system, normalization)
    assert link.chunk_trials(scenario) >= 50
    for trials in (1, 5):  # one trial; several trials in one chunk
        got = link.trial_mi_curves(scenario, SNRS, trials, SEED)
        want = per_trial_mi(scenario, SNRS, trials, SEED)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # fig7's shape: one path set broadcast over 50 recording seeds, one chunk
    paths, seeds = link.draw_trials(scenario.channel, 50, SEED)
    fig7 = PathArrays(*(c[0] for c in paths)).broadcast(50)
    whole = link.stack_mi(scenario, fig7, seeds, SNRS)

    # chunks of 3: 7 trials in two full chunks and a partial one, 50 in 16 and a partial one
    per_trial = 16 * scenario.K**2
    monkeypatch.setattr(link, "STACK_BYTES", 3 * per_trial + per_trial // 2)
    assert link.chunk_trials(scenario) == 3
    got = link.trial_mi_curves(scenario, SNRS, 7, SEED)
    np.testing.assert_allclose(got, per_trial_mi(scenario, SNRS, 7, SEED), rtol=1e-12, atol=0)
    assert np.array_equal(link.stack_mi(scenario, fig7, seeds, SNRS), whole)


def test_chunk_bounds_the_stacks():
    cfg = config_from_dict({"channel": {"kind": "rician_random"}})
    fig10 = cfg.scenario("rrm", rows=16, cols=16)
    T = link.chunk_trials(fig10)
    assert 1 < T < 2000
    assert T * 16 * fig10.K**2 <= link.STACK_BYTES
    big = cfg.scenario("rrm", rows=256, cols=256)
    T = link.chunk_trials(big)
    assert T >= 1
    assert T * 8 * 256 * 256 * big.duration_symbols <= link.STACK_BYTES


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    system=st.sampled_from(("rrm", "rhs")),
    normalization=st.sampled_from(("absolute", "normalized")),
    recording_snr_db=st.sampled_from((None, 0.0, 10.0)),
    duration=st.integers(1, 3),
    size=st.integers(1, 6),
    trials=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_chunk_size_changes_no_result(
    kind, system, normalization, recording_snr_db, duration, size, trials, seed
):
    """stack_mi and stack_outage give the same arrays in chunks of 1, 2 and all T trials."""
    cfg = config_from_dict(
        {
            "surface": {"M": size, "N": size},
            "recording": {"snr_db": recording_snr_db, "duration_symbols": duration},
            "channel": {"kind": kind},
            "link": {"K": 8, "normalization": normalization},
        }
    )
    scenario = cfg.scenario(system)
    paths, seeds = link.draw_trials(scenario.channel, trials, seed)
    runs = []
    for step in (1, 2, trials):
        with mock.patch.object(link, "chunk_trials", lambda s, step=step: step):
            mi = link.stack_mi(scenario, paths, seeds, SNRS)
            r_th = float(np.median(mi)) or 1.0
            runs.append((mi, link.stack_outage(scenario, paths, seeds, SNRS, r_th)))
    for mi, bits in runs[1:]:
        assert np.array_equal(mi, runs[0][0])
        assert np.array_equal(bits, runs[0][1])


def _count_draws(monkeypatch) -> list:
    """Sizes of the ``draw_paths`` calls made from now on, wherever it is bound."""
    calls = []
    original = channel.draw_paths

    def counted(cfg, rngs):
        calls.append(len(rngs))
        return original(cfg, rngs)

    for module in (channel, link):
        monkeypatch.setattr(module, "draw_paths", counted)
    return calls


def test_fig10_draws_each_size_once(tmp_path, monkeypatch):
    calls = _count_draws(monkeypatch)
    run_preset("fig10_outage", overrides={"outage": {"trials": 4}}, out_dir=tmp_path, quiet=True)
    assert calls == [4, 4]  # 8x8 and 16x16, each shared by rrm and rhs


def test_cli_outage_draws_once(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"surface": {"M": 4, "N": 4}, "channel": {"kind": "rician_random"},'
        ' "link": {"K": 8}, "outage": {"trials": 3}}'
    )
    calls = _count_draws(monkeypatch)
    assert main(["outage", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert calls == [3]


@pytest.mark.parametrize("kind", KINDS)
def test_sample_paths_is_the_array_draw(kind):
    cfg = ChannelConfig(kind, L=4, paths=make_five_paths().paths)
    for seed in range(5):
        draw = draw_paths(cfg, [np.random.default_rng(seed), np.random.default_rng(seed + 100)])
        for row, s in enumerate((seed, seed + 100)):
            paths = sample_paths(cfg, np.random.default_rng(s))
            assert [p.gain for p in paths.paths] == draw.gain[row].tolist()
            assert [p.delay for p in paths.paths] == draw.delay[row].tolist()
            assert [p.direction.theta for p in paths.paths] == draw.theta[row].tolist()
            assert [p.direction.phi for p in paths.paths] == draw.phi[row].tolist()


def test_path_set_arrays_round_trip():
    paths = sample_paths(ChannelConfig("rician_random", L=5), 3)
    again = PathSet.from_arrays(paths.arrays)
    assert again == paths
    assert again.total_power() == paths.total_power()
    assert float(paths.arrays.total_power()) == sum(abs(p.gain) ** 2 for p in paths.paths)


@pytest.mark.parametrize("normalization", ("absolute", "normalized"))
def test_degenerate_weights_give_mi_zero_in_a_chunk(normalization, monkeypatch):
    geom = make_geometry(8, 8)
    ref = make_reference(geom)
    cfg = ChannelConfig("rician_random", L=3)
    paths = draw_paths(cfg, [np.random.default_rng(s) for s in range(3)])
    weights = np.random.default_rng(0).uniform(0.1, 1.0, size=(3, 8, 8))
    weights[1] = 0.0
    alpha = link.alpha_stack(geom, ref, weights, paths)
    assert alpha.shape == (3, 3)
    assert not alpha[1].any() and np.all(alpha[[0, 2]] != 0.0)
    # the single-block view radiates nothing the same way
    zero = WeightStack(np.zeros((8, 8)), 0.0, 1.0, False, True)
    single = PathSet.from_arrays(PathArrays(*(c[1] for c in paths)))
    assert not link.alpha_taps(geom, ref, zero, single).any()
    # through the sweep kernels: block 1 of the chunk has MI 0, its neighbours keep theirs
    scenario = _scenario("rician_random", "rrm", normalization)
    trial_paths, seeds = link.draw_trials(scenario.channel, 3, SEED)
    before = link.stack_mi(scenario, trial_paths, seeds, SNRS)
    weigh = link.weight_stack_for

    def zero_second(*args):
        stack = weigh(*args)
        values = stack.values.copy()
        values[1] = 0.0
        return stack._replace(values=values)

    monkeypatch.setattr(link, "weight_stack_for", zero_second)
    mi = link.stack_mi(scenario, trial_paths, seeds, SNRS)
    assert np.array_equal(mi[1], np.zeros(len(SNRS)))
    assert np.array_equal(mi[[0, 2]], before[[0, 2]])
    for r_th in (1e-300, 2.0):
        bits = link.stack_outage(scenario, trial_paths, seeds, SNRS, r_th)
        assert np.array_equal(bits, mi < r_th) and bits[1].all()


def test_record_power_mixed_noise_equals_single_recordings():
    geom = make_geometry(6, 5)
    ref = make_reference(geom)
    cfg = ChannelConfig("rician_random", L=4)
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    stack = draw_paths(cfg, rngs)
    noise = np.array([0.3, 0.0, 0.05])
    seeds = [11, 12, 13]
    got = record_power(geom, ref, stack, 1.0, noise, 4, seeds)
    for t in range(3):
        paths = PathSet.from_arrays(PathArrays(*(c[t] for c in stack)))
        single = record_hologram(geom, ref, paths, RecordingConfig(1.0, noise[t], 4, seeds[t]))
        assert np.array_equal(got[t], single)


@pytest.mark.parametrize("strategy", ("none", "mean", "min"))
def test_weight_stack_equals_make_weights(strategy):
    power = np.random.default_rng(4).uniform(0.0, 3.0, size=(4, 7, 9))
    stack = weight_stack(power, strategy)
    for t in range(4):
        single = make_weights(power[t], strategy)
        assert np.array_equal(stack.values[t], single.values)
        assert (stack.b[t], stack.rho[t], stack.clipped[t]) == (
            single.b,
            single.rho,
            single.clipped,
        )
