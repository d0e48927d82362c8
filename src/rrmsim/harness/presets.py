"""Named experiment presets and the deterministic sweep runner.

Every preset resolves a config (preset defaults, then caller overrides, on
top of the standard scenario), runs its sweep with seeds derived from the
config seed, writes `results.csv` and `meta.json` (and per-pattern CSVs
where applicable) into the output directory, and prints a summary table.
Identical config and seed produce byte-identical output files. The CLI
commands use the same output directory (``output_dir``) and results writer
(``write_results``).

The figure-style presets that compare beamforming efficiency (fig6 through
fig10) default to the absolute-power normalization so array gain stays in
the channel matrix; plain CLI sweeps keep the config default.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FsPath

import numpy as np

from .. import beampattern, holography, link
from .._cores import thread_map
from . import invariants
from .config import ConfigError, ExperimentConfig, _to_jsonable, merge_config
from .results import ResultSet, emit_csv

PRESET_NAMES = (
    "fig5_beampattern",
    "fig6_b_sweep",
    "fig7_recording",
    "fig8_size_sweep",
    "fig9_cdl",
    "fig10_outage",
    "validate",
)

# Surface sizes of the fig8 and fig9 size sweeps.
_SWEEP_SIZES = (8, 16, 32, 64)

_PRESET_DEFAULTS: dict[str, dict] = {
    # Reference-dominant recording: the constant term then dominates the
    # power matrix, which is the regime where subtracting it visibly cleans
    # the pattern floor.
    "fig5_beampattern": {"recording": {"snr_db": None}, "reference": {"amplitude": 8.0}},
    "fig6_b_sweep": {
        "recording": {"snr_db": None},
        "link": {"normalization": "absolute"},
    },
    "fig7_recording": {"surface": {"M": 32, "N": 32}, "link": {"normalization": "absolute"}},
    "fig8_size_sweep": {"link": {"normalization": "absolute"}},
    "fig9_cdl": {
        "channel": {"kind": "cdl_profile"},
        "link": {"normalization": "absolute"},
    },
    # The transmit-referred SNR grid sits where the 8x8 and 16x16 outage
    # transitions actually happen (array gain moves them well below 0 dB).
    "fig10_outage": {
        "channel": {"kind": "rician_random"},
        "link": {
            "normalization": "absolute",
            "snr_db": [-16.0, -12.0, -8.0, -4.0, 0.0, 4.0],
        },
    },
    "validate": {},
}


def resolve_config(
    name: str, config: ExperimentConfig | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Preset defaults, then user overrides, applied over the base config."""
    return merge_config(config, _PRESET_DEFAULTS[name], overrides)


def output_dir(cfg: ExperimentConfig, out_dir=None) -> FsPath:
    """The run's output directory, out_dir or else ``cfg.output.directory``, created if missing."""
    out = FsPath(out_dir if out_dir is not None else cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_results(rs: ResultSet, out: FsPath, quiet: bool, meta: dict | None = None) -> None:
    """Write ``results.csv`` (and ``meta.json``, given meta) into out; the summary unless quiet."""
    emit_csv(rs, out / "results.csv")
    if meta is not None:
        text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        (out / "meta.json").write_text(text, "utf-8")
    if not quiet:
        print_summary(rs)


def _seed_for(cfg: ExperimentConfig, stream: int) -> int:
    return int(
        np.random.SeedSequence([cfg.seed, stream]).generate_state(1, np.uint64)[0]
    )


def check_pattern_weights(weights: holography.WeightStack, strategy: str) -> None:
    """Raise ConfigError when one recording's weights are all zero: they form no beam pattern."""
    if weights.degenerate:
        raise ConfigError(
            f"strategy {strategy!r} leaves all-zero weights: the recorded hologram is "
            "constant, so it forms no beam pattern"
        )


def add_curve_rows(
    rs: ResultSet, experiment: str, metric: str, cfg: ExperimentConfig, samples
) -> None:
    """One row per SNR of cfg.link.snr_db from (trials, n_snr) samples.

    Each row holds the mean MI with its 95% CI for float MI samples, or the
    outage probability with its binomial half-width for boolean outage bits.
    """
    samples = np.asarray(samples)
    summarise = link.outage_ci if samples.dtype == bool else link.mean_ci
    for snr, column in zip(cfg.link.snr_db, samples.T):
        value, half = summarise(column)
        rs.add(experiment, "snr_db", snr, metric, value, half, cfg.seed)


# ------------------------------------------------------------------ presets


def _preset_fig5(cfg: ExperimentConfig, rs: ResultSet, out_dir: FsPath) -> None:
    scenario = cfg.scenario("rrm", recording_snr_db=None)
    geom, ref = scenario.geom, scenario.ref
    paths = cfg.manual_paths()
    power = link.recorded_power(scenario, paths.arrays, [_seed_for(cfg, 0)])
    theta, phi = beampattern.default_axes(0.5)
    dirs = [p.direction for p in paths.paths]
    strategies = [(s, holography.make_weights(power, s)) for s in ("none", "mean")]
    for strategy, weights in strategies:  # before any pattern file is written
        check_pattern_weights(weights, strategy)
    for strategy, weights in strategies:
        pattern = beampattern.array_factor(geom, ref, weights, theta, phi)
        beampattern.export_pattern_csv(pattern, out_dir / f"pattern_b_{strategy}.csv")
        peaks = beampattern.find_peaks(pattern, count=len(dirs), min_separation_deg=5.0)
        worst = max(
            min(
                math.degrees(beampattern.angular_separation(d, found))
                for found, _ in peaks.peaks
            )
            for d in dirs
        )
        row = {"max_peak_error_deg": worst}
        row.update(beampattern.sidelobe_metrics(pattern, dirs, guard_deg=5.0))
        for metric in ("max_peak_error_deg", "mean_sidelobe_db", "peak_sidelobe_db"):
            rs.add("fig5_beampattern", "strategy", strategy, metric, row[metric], seed=cfg.seed)


def _preset_fig6(cfg: ExperimentConfig, rs: ResultSet) -> None:
    paths = cfg.manual_paths().arrays.broadcast(1)
    for size in (8, 64):
        for strategy in ("none", "mean", "min"):
            scenario = cfg.scenario("rrm", rows=size, cols=size, strategy=strategy)
            mi = link.stack_mi(scenario, paths, [_seed_for(cfg, size)], cfg.link.snr_db)
            add_curve_rows(rs, "fig6_b_sweep", f"mi_{size}x{size}_{strategy}", cfg, mi)


def _preset_fig7(cfg: ExperimentConfig, rs: ResultSet) -> None:
    n_rep = 50
    paths = cfg.manual_paths().arrays.broadcast(n_rep)
    seeds = [_seed_for(cfg, 1000 + 97 * r) for r in range(n_rep)]
    for rec_snr in (0.0, 10.0):
        for duration in (1, 5):
            scenario = cfg.scenario(
                "rrm", recording_snr_db=rec_snr, duration_symbols=duration
            )
            samples = link.stack_mi(scenario, paths, seeds, cfg.link.snr_db)
            metric = f"mi_dur{duration}_recsnr{rec_snr:g}dB"
            add_curve_rows(rs, "fig7_recording", metric, cfg, samples)


def _preset_fig8(cfg: ExperimentConfig, rs: ResultSet) -> None:
    n_rep = 10
    paths = cfg.manual_paths().arrays
    for size in _SWEEP_SIZES:
        for system in ("rrm", "rhs"):
            scenario = cfg.scenario(system, rows=size, cols=size)
            reps = n_rep if system == "rrm" and cfg.recording.snr_db is not None else 1
            seeds = [_seed_for(cfg, 2000 + 13 * size + r) for r in range(reps)]
            samples = link.stack_mi(scenario, paths.broadcast(reps), seeds, cfg.link.snr_db)
            add_curve_rows(rs, "fig8_size_sweep", f"mi_{system}_{size}x{size}", cfg, samples)


def paired_curves(
    cfg: ExperimentConfig, trials: int, seed: int, size: int | None = None,
    r_th: float | None = None,
):
    """[(system, (trials, n_snr) samples)] of rrm, then rhs, on one shared draw.

    The samples are MI values (``link.stack_mi``), or, when r_th is given,
    the outage bits MI < r_th (``link.stack_outage``). Both systems see the
    same path draws and recording seeds of the trials (``link.draw_trials``),
    so they are paired trial by trial. size gives a size x size surface in
    place of the configured one.

    Outage curves run one after the other in the calling thread: their
    eigen-solves are mostly screened away, and two glue-bound curves on two
    threads would only contend for the interpreter lock. For MI curves, when
    ``_cores.workers(2)`` allows two threads (BLAS pinned to one thread, two
    usable CPUs), the rhs curve runs on a worker thread while the rrm curve
    runs in the calling thread, so one curve's eigen-solve overlaps the
    other's Python glue. Each curve is the same call on the same draws,
    which neither curve writes, so the samples keep their bytes. An
    exception from either curve is raised here.
    """
    paths, seeds = link.draw_trials(cfg.channel_config(), trials, seed)
    systems = ("rrm", "rhs")
    scenarios = [cfg.scenario(system, rows=size, cols=size) for system in systems]
    if r_th is not None:
        curves = [
            link.stack_outage(scenario, paths, seeds, cfg.link.snr_db, r_th)
            for scenario in scenarios
        ]
    else:
        curves = thread_map(
            lambda scenario: link.stack_mi(scenario, paths, seeds, cfg.link.snr_db), scenarios
        )
    return list(zip(systems, curves))


def _preset_fig9(cfg: ExperimentConfig, rs: ResultSet) -> None:
    n_rep = 20
    for size in _SWEEP_SIZES:
        for system, curves in paired_curves(cfg, n_rep, _seed_for(cfg, 3000 + size), size):
            add_curve_rows(rs, "fig9_cdl", f"mi_{system}_{size}x{size}", cfg, curves)


def _preset_fig10(cfg: ExperimentConfig, rs: ResultSet) -> None:
    outage = cfg.outage
    for size in (8, 16):
        seed = _seed_for(cfg, 4000 + size)
        for system, bits in paired_curves(cfg, outage.trials, seed, size, outage.r_th):
            add_curve_rows(rs, "fig10_outage", f"outage_{system}_{size}x{size}", cfg, bits)


def _preset_validate(cfg: ExperimentConfig, rs: ResultSet, quiet: bool) -> None:
    for name, ok, _detail in invariants.run_all(quiet=quiet):
        rs.add("validate", "check", name, "passed", 1.0 if ok else 0.0, seed=cfg.seed)


def run_preset(
    name: str,
    config: ExperimentConfig | None = None,
    overrides: dict | None = None,
    out_dir=None,
    quiet: bool = False,
) -> ResultSet:
    """Run a named preset and persist its results.

    Args:
        name: one of PRESET_NAMES.
        config: base config (defaults when None).
        overrides: nested dict merged over the config, like JSON config keys.
        out_dir: output directory (default: the config's output.directory).
        quiet: suppress the summary table.

    Returns:
        The ResultSet written to `results.csv`. For the validate preset a
        failed check is reported as a row with value 0.

    Raises:
        ValueError: unknown preset name.
        OSError: unwritable output directory.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    cfg = resolve_config(name, config, overrides)
    rs = ResultSet()
    out = output_dir(cfg, out_dir)

    if name == "fig5_beampattern":
        _preset_fig5(cfg, rs, out)
    elif name == "fig6_b_sweep":
        _preset_fig6(cfg, rs)
    elif name == "fig7_recording":
        _preset_fig7(cfg, rs)
    elif name == "fig8_size_sweep":
        _preset_fig8(cfg, rs)
    elif name == "fig9_cdl":
        _preset_fig9(cfg, rs)
    elif name == "fig10_outage":
        _preset_fig10(cfg, rs)
    else:
        _preset_validate(cfg, rs, quiet)

    meta = {"preset": name, "fingerprint": cfg.fingerprint(), "config": _to_jsonable(cfg)}
    write_results(rs, out, quiet, meta)
    return rs


def print_summary(rs: ResultSet) -> None:
    """Aligned text table of all result rows."""
    if not rs.rows:
        print("(no results)")
        return
    header = ("experiment", "sweep", "value", "metric", "result", "ci")
    lines = [header]
    for r in rs.rows:
        sv = r.sweep_value if isinstance(r.sweep_value, str) else f"{r.sweep_value:g}"
        ci = "" if r.ci_half_width is None else f"{r.ci_half_width:.3g}"
        lines.append((r.experiment, r.sweep_name, sv, r.metric, f"{r.value:.6g}", ci))
    widths = [max(len(row[c]) for row in lines) for c in range(len(header))]
    for i, row in enumerate(lines):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            print("  ".join("-" * w for w in widths))
