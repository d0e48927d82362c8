"""Named invariant suite covering every module's stated properties.

``CHECKS`` lists the check functions in their reporting order; each
returns (passed, detail) and is reported under its function name.
``run_all`` executes them and reports pass/fail with residual details. The
suite checks its own coverage: a public function of this module that is
missing from ``CHECKS`` makes ``suite_name_coverage`` fail.
"""

from __future__ import annotations

import inspect
import math
import os
import tempfile

import numpy as np

from .. import beampattern, channel, holography, link, surface
from ..channel import ChannelConfig, Path, PathSet
from ..holography import RecordingConfig
from ..link import LinkScenario, PulseSpec
from ..surface import Direction, ReferenceWaveSpec, SurfaceGeometry
from .config import ExperimentConfig, load_config, save_config
from .results import ResultSet, emit_csv


def _std_paths() -> PathSet:
    angles = [(15, 100), (30, 60), (40, 35), (45, 45), (45, 140)]
    return PathSet(
        tuple(Path(1.0 + 0j, 0.0, Direction.from_degrees(t, p)) for t, p in angles)
    )


def _geom(rows=8, cols=8) -> SurfaceGeometry:
    return SurfaceGeometry.half_wavelength(rows, cols, 30.0e9)


def _ref(geom, amplitude=1.0, phase=0.0) -> ReferenceWaveSpec:
    return ReferenceWaveSpec.for_geometry(geom, amplitude, phase)


def _random_direction(rng) -> Direction:
    return Direction(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi))


# ------------------------------------------------------------------ surface


def reference_field_center_symmetry():
    worst = 0.0
    for rows, cols in ((3, 3), (4, 6), (7, 5), (8, 8)):
        geom = _geom(rows, cols)
        e_r = surface.reference_field(geom, _ref(geom))
        worst = max(worst, float(np.max(np.abs(e_r - holography.reindex(e_r)))))
    return worst == 0.0, f"max residual {worst:g}"


def steering_reindex_conjugacy():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        geom = _geom(int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        a = surface.steering_field(geom, _random_direction(rng))
        worst = max(worst, float(np.max(np.abs(holography.reindex(a) - np.conj(a)))))
    return worst < 1e-12, f"max residual {worst:.3g}"


def steering_unit_modulus():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        geom = _geom(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        a = surface.steering_field(geom, _random_direction(rng))
        worst = max(worst, float(np.max(np.abs(np.abs(a) - 1.0))))
    return worst < 1e-12, f"max | |a|-1 | = {worst:.3g}"


def object_field_gain_linearity():
    rng = np.random.default_rng(9)
    geom = _geom(6, 5)
    ref = _ref(geom)
    base = _std_paths()
    c = complex(rng.normal(), rng.normal())
    scaled = PathSet(tuple(Path(p.gain * c, p.delay, p.direction) for p in base.paths))
    f1 = surface.object_field(geom, scaled, ref)
    f2 = c * surface.object_field(geom, base, ref)
    worst = float(np.max(np.abs(f1 - f2)))
    return worst < 1e-12, f"max residual {worst:.3g}"


# --------------------------------------------------------------- holography


def reindex_involution():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(7, 5))
    ok = np.array_equal(holography.reindex(holography.reindex(x)), x)
    same_entries = np.array_equal(np.sort(x, axis=None), np.sort(holography.reindex(x), axis=None))
    return ok and same_entries, "involution and entry multiset preserved"


def _closed_form_power(geom, ref, paths, user_amplitude):
    """Direction-term expansion of the noise-free interference power."""
    beta = surface.reference_phase(geom)
    per_path = [
        user_amplitude
        * p.gain
        * np.exp(-1j * ref.angular_frequency * p.delay)
        * surface.steering_field(geom, p.direction)
        for p in paths.paths
    ]
    const = ref.amplitude**2 + user_amplitude**2 * paths.total_power()
    r = ref.amplitude * np.exp(1j * ref.phase_offset) * beta
    total = np.full(geom.shape, const, dtype=float)
    for i, ei in enumerate(per_path):
        total += 2.0 * np.real(ei * np.conj(r))
        for j in range(i + 1, len(per_path)):
            total += 2.0 * np.real(ei * np.conj(per_path[j]))
    return total


def hologram_nonnegativity():
    rng = np.random.default_rng(11)
    worst = math.inf
    for seed in range(10):
        geom = _geom(int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        ref = _ref(geom, phase=rng.uniform(0, 2 * math.pi))
        cfg = RecordingConfig(1.0, rng.uniform(0.1, 2.0), 6, seed)
        power = holography.record_hologram(geom, ref, _std_paths(), cfg)
        worst = min(worst, float(np.min(power)))
    return worst >= 0.0, f"min entry {worst:.3g}"


def hologram_noise_free_closed_form():
    geom = _geom(8, 8)
    ref = _ref(geom, amplitude=1.3, phase=0.4)
    paths = _std_paths()
    cfg = RecordingConfig(0.8, 0.0, 1, 0)
    power = holography.record_hologram(geom, ref, paths, cfg)
    expected = _closed_form_power(geom, ref, paths, 0.8)
    worst = float(np.max(np.abs(power - expected)))
    return worst < 1e-10, f"max residual {worst:.3g}"


def hologram_noise_mean_convergence():
    geom = _geom(4, 4)
    ref = _ref(geom)
    paths = _std_paths()
    sigma2 = 0.5
    expected = _closed_form_power(geom, ref, paths, 1.0) + sigma2

    def rms_err(samples, n_seeds):
        errs = []
        for seed in range(n_seeds):
            cfg = RecordingConfig(1.0, sigma2, samples, seed)
            power = holography.record_hologram(geom, ref, paths, cfg)
            errs.append(np.mean((power - expected) ** 2))
        return math.sqrt(float(np.mean(errs)))

    e1 = rms_err(4, 40)
    e2 = rms_err(64, 40)  # 16x the samples: expect ~1/4 the error
    ratio = e2 / e1
    return 0.1 < ratio < 0.5, f"error ratio at 16x samples {ratio:.3f} (ideal 0.25)"


def weight_range_and_offset_exactness():
    geom = _geom(8, 8)
    ref = _ref(geom)
    power = holography.record_hologram(
        geom, ref, _std_paths(), RecordingConfig(1.0, 0.3, 5, 3)
    )
    w_prime = holography.reindex(power)
    ok = True
    detail = []
    for strategy, b in (("none", 0.0), ("mean", float(np.mean(w_prime))), ("min", float(np.min(w_prime)))):
        w = holography.make_weights(power, strategy)
        ok &= float(w.b) == b
        ok &= float(np.min(w.values)) >= 0.0 and abs(float(np.max(w.values)) - 1.0) < 1e-12
        detail.append(f"{strategy}: b={float(w.b):.6g}")
    return ok, "; ".join(detail)


def reconstruction_four_term_decomposition():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        geom = _geom(int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        ref = _ref(geom, amplitude=rng.uniform(0.5, 2.0))
        n_paths = int(rng.integers(1, 5))
        paths = PathSet(
            tuple(
                Path(complex(rng.uniform(0.2, 1.5)), 0.0, _random_direction(rng))
                for _ in range(n_paths)
            )
        )
        e_o = surface.object_field(geom, paths, ref)
        e_r = surface.reference_field(geom, ref)
        w_prime = holography.reindex(np.abs(e_o + e_r) ** 2)
        e_h = holography.reconstruct_field(geom, ref, w_prime)
        terms = holography.reconstruction_terms(geom, ref, paths)
        worst = max(worst, float(np.max(np.abs(e_h - sum(terms.values())))))
    return worst < 1e-10, f"max residual {worst:.3g}"


def rhs_weight_range_and_peak_scaling_invariance():
    geom = _geom(16, 16)
    ref = _ref(geom)
    desired = [(p.direction, p.gain) for p in _std_paths().paths]
    w1 = holography.rhs_weights(geom, ref, desired)
    scaled = [(d, 3.7 * g) for d, g in desired]
    w2 = holography.rhs_weights(geom, ref, scaled)
    in_range = float(np.min(w1.values)) >= 0.0 and float(np.max(w1.values)) <= 1.0
    theta, phi = beampattern.default_axes(2.0)
    p1 = beampattern.array_factor(geom, ref, w1, theta, phi)
    p2 = beampattern.array_factor(geom, ref, w2, theta, phi)
    same_peak = np.argmax(p1.power_db) == np.argmax(p2.power_db)
    return in_range and same_peak, "range [0,1], peak direction scale-invariant"


# -------------------------------------------------------------- beampattern


def pattern_positive_scale_invariance():
    geom = _geom(8, 8)
    ref = _ref(geom)
    rng = np.random.default_rng(13)
    w = rng.uniform(0.0, 1.0, size=geom.shape)
    theta, phi = beampattern.default_axes(3.0)
    p1 = beampattern.array_factor(geom, ref, w, theta, phi)
    p2 = beampattern.array_factor(geom, ref, 4.2 * w, theta, phi)
    worst = float(np.max(np.abs(p1.power_db - p2.power_db)))
    return worst < 1e-9, f"max dB difference {worst:.3g}"


def _recorded_pattern(size, step_deg):
    geom = _geom(size, size)
    ref = _ref(geom)
    paths = _std_paths()
    power = holography.record_hologram(geom, ref, paths, RecordingConfig(1.0, 0.0, 1, 0))
    w = holography.make_weights(power, "mean")
    theta, phi = beampattern.default_axes(step_deg)
    return beampattern.array_factor(geom, ref, w, theta, phi), paths


def pattern_aperture_growth_ratio():
    dirs = [p.direction for p in _std_paths().paths]
    ratios = []
    for size in (8, 16, 32):
        pattern, _ = _recorded_pattern(size, 1.0)
        metrics = beampattern.sidelobe_metrics(pattern, dirs, guard_deg=8.0)
        ratios.append(-metrics["mean_sidelobe_db"])  # peak is 0 dB
    ok = ratios[0] <= ratios[1] + 1e-9 and ratios[1] <= ratios[2] + 1e-9
    return ok, f"peak-to-mean-sidelobe dB by size: {[f'{r:.1f}' for r in ratios]}"


def pattern_path_direction_dominance():
    pattern, paths = _recorded_pattern(32, 1.0)
    median = float(np.median(pattern.power_db))
    values = [pattern.value_at(p.direction) for p in paths.paths]
    margin = min(values) - median
    return margin >= 10.0, f"min path-direction margin over median {margin:.1f} dB"


# ------------------------------------------------------------------ channel


def path_unit_power_exactness():
    cfg = ChannelConfig("rician_random", L=5)
    worst = 0.0
    for seed in range(20):
        ps = channel.sample_paths(cfg, seed)
        worst = max(worst, abs(ps.total_power() - 1.0))
    cdl = channel.load_cdl_profile(channel.bundled_cdl_d(), 3e-8)
    worst = max(worst, abs(cdl.total_power() - 1.0))
    return worst < 1e-12, f"max |power-1| = {worst:.3g}"


def path_sampling_reproducibility():
    cfg = ChannelConfig("rician_random", L=4)
    a = channel.sample_paths(cfg, 42)
    b = channel.sample_paths(cfg, 42)
    same = all(
        pa.gain == pb.gain and pa.delay == pb.delay and pa.direction == pb.direction
        for pa, pb in zip(a.paths, b.paths)
    )
    return same, "same seed gives identical realization"


def path_delay_and_angle_ranges():
    cfg = ChannelConfig(
        "rician_random",
        L=6,
        max_delay=2e-8,
        theta_range=(math.radians(10), math.radians(50)),
        phi_range=(math.radians(30), math.radians(200)),
    )
    ok = True
    for seed in range(20):
        for p in channel.sample_paths(cfg, seed).paths:
            ok &= 0.0 <= p.delay <= cfg.max_delay
            ok &= cfg.theta_range[0] <= p.direction.theta <= cfg.theta_range[1]
            ok &= cfg.phi_range[0] <= p.direction.phi <= cfg.phi_range[1]
    return ok, "delays and angles inside configured ranges"


def path_reciprocity_shared_pathset():
    geom = _geom(8, 8)
    ref = _ref(geom)
    paths = channel.sample_paths(ChannelConfig("rician_random", L=4), 3)
    power = holography.record_hologram(geom, ref, paths, RecordingConfig(1.0, 0.0, 1, 0))
    weights = holography.make_weights(power, "mean")
    h = link.equivalent_taps(geom, ref, weights, paths, PulseSpec(), K=16)
    finite = bool(np.all(np.isfinite(h)))
    return finite and len(link.alpha_taps(geom, ref, weights, paths)) == len(paths), (
        "one path set drives recording and taps"
    )


# --------------------------------------------------------------------- link


def mi_monotone_in_snr():
    rng = np.random.default_rng(14)
    H = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    gammas = [link.gamma_from_db(s) for s in np.linspace(-10, 25, 15)]
    mis = [link.mutual_information(H, g) for g in gammas]
    ok = all(b > a for a, b in zip(mis, mis[1:]))
    return ok, f"MI range [{mis[0]:.3f}, {mis[-1]:.3f}] bits"


def mi_unit_modulus_invariance():
    rng = np.random.default_rng(15)
    H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    base = link.mutual_information(H, 3.0)
    worst = max(
        abs(link.mutual_information(np.exp(1j * psi) * H, 3.0) - base)
        for psi in (0.3, 1.7, 4.4)
    )
    return worst < 1e-9, f"max deviation {worst:.3g} bits"


def toeplitz_structure_and_white_noise_filter():
    rng = np.random.default_rng(16)
    K = 16
    H = link.build_toeplitz(rng.normal(size=2 * K - 1) + 1j * rng.normal(size=2 * K - 1))
    ok = True
    for i in range(1, K):
        for j in range(1, K):
            ok &= H[i, j] == H[i - 1, j - 1]
    return ok, "constant diagonals"


def composite_pulse_nyquist_zero_isi():
    lags = np.arange(-20, 21)
    err0 = worst = 0.0
    for rolloff in (0.0, 0.25, 0.5, 1.0):
        w = link.raised_cosine(lags, rolloff)
        err0 = max(err0, abs(float(w[lags == 0][0]) - 1.0))
        worst = max(worst, float(np.max(np.abs(w[lags != 0]))))
    return err0 < 1e-12 and worst < 1e-12, f"|w[0]-1|={err0:.2g}, max |w[k!=0]|={worst:.2g}"


def alpha_split_sum_agreement():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        geom = _geom(int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        ref = _ref(geom, amplitude=rng.uniform(0.5, 2.0), phase=rng.uniform(0, 2 * math.pi))
        n = int(rng.integers(1, 5))
        paths = PathSet(
            tuple(
                Path(
                    complex(rng.normal(), rng.normal()),
                    rng.uniform(0, 2e-8),
                    _random_direction(rng),
                )
                for _ in range(n)
            )
        )
        cfg = RecordingConfig(rng.uniform(0.5, 1.5), 0.0, 1, 0)
        power = holography.record_hologram(geom, ref, paths, cfg)
        weights = holography.make_weights(power, "min")
        direct = link.alpha_taps(geom, ref, weights, paths)
        dom, res = link.alpha_taps_split(geom, ref, weights, paths, cfg)
        err = float(
            np.max(np.abs(direct - (dom + res)) / np.maximum(np.abs(direct), 1e-30))
        )
        worst = max(worst, err)
    return worst < 1e-9, f"max relative residual {worst:.3g}"


def outage_bounds_reproducibility_monotonicity():
    geom = _geom(8, 8)
    scenario = LinkScenario(
        geom=geom,
        ref=_ref(geom),
        pulse=PulseSpec(),
        channel=ChannelConfig("rician_random", L=4),
        normalization="absolute",
        K=32,
    )
    curves = link.trial_mi_curves(scenario, [0.0, 10.0, 20.0], trials=60, seed=99)
    outs = [float(np.mean(curves[:, s] < 2.0)) for s in range(3)]
    paths, seeds = link.draw_trials(scenario.channel, 60, 99)
    again = link.stack_outage(scenario, paths, seeds, [0.0], 2.0)
    ok = all(0.0 <= p <= 1.0 for p in outs)
    ok &= outs[0] >= outs[1] >= outs[2]
    ok &= float(np.mean(again)) == outs[0]
    return ok, f"outage by SNR {outs}, reproducible"


# ------------------------------------------------------------------ harness


def csv_determinism_byte_identical():
    rs = ResultSet()
    rs.add("demo", "snr_db", 10.0, "mi_bits", 3.123456789, 0.01, 7)
    rs.add("demo", "snr_db", 20.0, "mi_bits", 6.5, None, 7)
    bufs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(2):
            name = os.path.join(tmp, f"out{k}.csv")
            emit_csv(rs, name)
            with open(name, "rb") as fh:
                bufs.append(fh.read())
    return bufs[0] == bufs[1], f"{len(bufs[0])} bytes, identical"


def result_fingerprint_consistency():
    cfg = ExperimentConfig(seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "config.json")
        save_config(cfg, name)
        same = load_config(name).fingerprint() == cfg.fingerprint()
    moved = ExperimentConfig(seed=8).fingerprint() != cfg.fingerprint()
    return same and moved, "fingerprint survives save/load and moves with the seed"


def suite_name_coverage():
    listed = {fn.__name__ for fn in CHECKS}
    missing = sorted(
        name
        for name, obj in globals().items()
        if inspect.isfunction(obj)
        and obj.__module__ == __name__
        and not name.startswith("_")
        and name != "run_all"
        and name not in listed
    )
    return not missing, f"missing: {missing}" if missing else "every check function is listed"


CHECKS = (
    # surface
    reference_field_center_symmetry,
    steering_reindex_conjugacy,
    steering_unit_modulus,
    object_field_gain_linearity,
    # holography
    reindex_involution,
    hologram_nonnegativity,
    hologram_noise_free_closed_form,
    hologram_noise_mean_convergence,
    weight_range_and_offset_exactness,
    reconstruction_four_term_decomposition,
    rhs_weight_range_and_peak_scaling_invariance,
    # beampattern
    pattern_positive_scale_invariance,
    pattern_aperture_growth_ratio,
    pattern_path_direction_dominance,
    # channel
    path_unit_power_exactness,
    path_sampling_reproducibility,
    path_delay_and_angle_ranges,
    path_reciprocity_shared_pathset,
    # link
    mi_monotone_in_snr,
    mi_unit_modulus_invariance,
    toeplitz_structure_and_white_noise_filter,
    composite_pulse_nyquist_zero_isi,
    alpha_split_sum_agreement,
    outage_bounds_reproducibility_monotonicity,
    # harness
    csv_determinism_byte_identical,
    result_fingerprint_consistency,
    suite_name_coverage,
)


def run_all(quiet: bool = False) -> list[tuple[str, bool, str]]:
    """Run every check in ``CHECKS``; returns (name, passed, detail) rows."""
    results = []
    for fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((fn.__name__, bool(ok), detail))
        if not quiet:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {fn.__name__}: {detail}")
    return results
