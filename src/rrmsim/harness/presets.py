"""Named experiment presets and the deterministic sweep runner.

Every preset resolves a config (preset defaults, then caller overrides, on
top of the standard scenario), runs its sweep with seeds derived from the
config seed, writes `results.csv` and `meta.json` (and per-pattern CSVs
where applicable) into the output directory, and prints a summary table.
Identical config and seed produce byte-identical output files. The CLI
commands use the same output directory (``output_dir``, checked before the
run; ``make_output_dir``, called by each writer) and results writer
(``write_results``).

The figure-style presets that compare beamforming efficiency (fig6 through
fig10) default to the absolute-power normalization so array gain stays in
the channel matrix; plain CLI sweeps keep the config default.
"""

from __future__ import annotations

import errno
import json
import math
import os
from pathlib import Path as FsPath

import numpy as np

from .. import beampattern, holography, link
from . import invariants
from .config import ConfigError, ExperimentConfig, _to_jsonable, json_fingerprint, merge_config
from .results import ResultSet, emit_csv

# Surface sizes of the fig8 and fig9 size sweeps.
_SWEEP_SIZES = (8, 16, 32, 64)


def resolve_config(
    name: str, config: ExperimentConfig | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Preset defaults, then user overrides, applied over the base config."""
    return merge_config(config, _PRESETS[name][0], overrides)


def output_dir(cfg: ExperimentConfig, out_dir=None) -> FsPath:
    """The run's output directory, out_dir or else ``cfg.output.directory``.

    Checked before the run, created only by ``make_output_dir`` just before
    the first file is written: a path whose nearest existing ancestor is not
    a writable directory raises OSError here, and a run that fails first
    leaves no directory behind.
    """
    out = FsPath(out_dir if out_dir is not None else cfg.output.directory)
    base = out.absolute()
    while not base.exists() and base != base.parent:
        base = base.parent
    if not base.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(base))
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(base))
    return out


def make_output_dir(out: FsPath) -> FsPath:
    """Create the directory ``output_dir`` checked; every writer calls it before its first file."""
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_results(rs: ResultSet, out: FsPath, quiet: bool, meta: dict | None = None) -> None:
    """Write ``results.csv`` (and ``meta.json``, given meta) into out; the summary unless quiet."""
    make_output_dir(out)
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


def add_curves(
    rs: ResultSet, experiment: str, cfg: ExperimentConfig, curves, draw, r_th: float | None = None
) -> None:
    """One row per SNR of cfg.link.snr_db for each (metric, scenario) of curves, in order.

    draw is the (T, L) path stack and the T recording seeds that every
    scenario shares, so the curves are paired trial by trial. All scenarios
    go through one ``link.stack_mi`` call (its MI pieces may run on threads;
    any scenario's exception is raised here), or one ``link.stack_outage``
    call when r_th is given; either computes each chunk's steering factors,
    object field and pulse matrix once for all. A row holds the mean MI with
    its 95% CI, or the outage probability with its binomial half-width.
    """
    metrics, scenarios = zip(*curves)
    paths, seeds = draw
    if r_th is None:
        samples = link.stack_mi(scenarios, paths, seeds, cfg.link.snr_db)
        summarise = link.mean_ci
    else:
        samples = link.stack_outage(scenarios, paths, seeds, cfg.link.snr_db, r_th)
        summarise = link.outage_ci
    for metric, curve in zip(metrics, samples):
        for snr, column in zip(cfg.link.snr_db, curve.T):
            rs.add(experiment, "snr_db", snr, metric, *summarise(column), cfg.seed)


def paired_systems(cfg: ExperimentConfig, prefix: str, size: int | None = None) -> list:
    """[(metric, scenario)] of rrm, then rhs; size gives a size x size surface in place of cfg's."""
    tail = "" if size is None else f"_{size}x{size}"
    return [(f"{prefix}_{s}{tail}", cfg.scenario(s, rows=size, cols=size)) for s in ("rrm", "rhs")]


# ------------------------------------------------------------------ presets


def _preset_fig5(cfg: ExperimentConfig, rs: ResultSet, out_dir: FsPath, _quiet: bool) -> None:
    scenario = cfg.scenario("rrm")
    geom, ref = scenario.geom, scenario.ref
    paths = cfg.manual_paths()
    terms = link.path_terms(scenario, paths.arrays)
    power = link.recorded_power(scenario, terms, [_seed_for(cfg, 0)])
    theta, phi = beampattern.default_axes(0.5)
    dirs = [p.direction for p in paths.paths]
    strategies = [(s, holography.make_weights(power, s)) for s in ("none", "mean")]
    for strategy, weights in strategies:  # before any pattern file is written
        check_pattern_weights(weights, strategy)
    make_output_dir(out_dir)
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


def _preset_fig6(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, _quiet: bool) -> None:
    paths = cfg.manual_paths().arrays.broadcast(1)
    for size in (8, 64):
        curves = [
            (f"mi_{size}x{size}_{s}", cfg.scenario("rrm", rows=size, cols=size, strategy=s))
            for s in ("none", "mean", "min")
        ]
        add_curves(rs, "fig6_b_sweep", cfg, curves, (paths, [_seed_for(cfg, size)]))


def _preset_fig7(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, _quiet: bool) -> None:
    n_rep = 50
    paths = cfg.manual_paths().arrays.broadcast(n_rep)
    seeds = [_seed_for(cfg, 1000 + 97 * r) for r in range(n_rep)]
    curves = [
        (
            f"mi_dur{duration}_recsnr{rec_snr:g}dB",
            cfg.scenario("rrm", recording_snr_db=rec_snr, duration_symbols=duration),
        )
        for rec_snr in (0.0, 10.0)
        for duration in (1, 5)
    ]
    add_curves(rs, "fig7_recording", cfg, curves, (paths, seeds))


def _preset_fig8(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, _quiet: bool) -> None:
    n_rep = 10
    paths = cfg.manual_paths().arrays
    for size in _SWEEP_SIZES:
        for curve in paired_systems(cfg, "mi", size):
            reps = n_rep if curve[1].system == "rrm" and cfg.recording.snr_db is not None else 1
            seeds = [_seed_for(cfg, 2000 + 13 * size + r) for r in range(reps)]
            add_curves(rs, "fig8_size_sweep", cfg, [curve], (paths.broadcast(reps), seeds))


def _preset_fig9(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, _quiet: bool) -> None:
    for size in _SWEEP_SIZES:
        draw = link.draw_trials(cfg.channel_config, 20, _seed_for(cfg, 3000 + size))
        add_curves(rs, "fig9_cdl", cfg, paired_systems(cfg, "mi", size), draw)


def _preset_fig10(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, _quiet: bool) -> None:
    outage = cfg.outage
    for size in (8, 16):
        draw = link.draw_trials(cfg.channel_config, outage.trials, _seed_for(cfg, 4000 + size))
        curves = paired_systems(cfg, "outage", size)
        add_curves(rs, "fig10_outage", cfg, curves, draw, outage.r_th)


def _preset_validate(cfg: ExperimentConfig, rs: ResultSet, _out: FsPath, quiet: bool) -> None:
    for name, ok, _detail in invariants.run_all(quiet=quiet):
        rs.add("validate", "check", name, "passed", 1.0 if ok else 0.0, seed=cfg.seed)


# name -> (defaults merged under the caller's overrides, runner), in listing
# order. A runner takes (cfg, rs, out, quiet) and adds its rows to rs; fig5
# also writes its pattern CSVs into out.
_PRESETS = {
    # Reference-dominant recording: the constant term then dominates the
    # power matrix, which is the regime where subtracting it visibly cleans
    # the pattern floor.
    "fig5_beampattern": (
        {"recording": {"snr_db": None}, "reference": {"amplitude": 8.0}},
        _preset_fig5,
    ),
    "fig6_b_sweep": (
        {"recording": {"snr_db": None}, "link": {"normalization": "absolute"}},
        _preset_fig6,
    ),
    "fig7_recording": (
        {"surface": {"M": 32, "N": 32}, "link": {"normalization": "absolute"}},
        _preset_fig7,
    ),
    "fig8_size_sweep": ({"link": {"normalization": "absolute"}}, _preset_fig8),
    "fig9_cdl": (
        {"channel": {"kind": "cdl_profile"}, "link": {"normalization": "absolute"}},
        _preset_fig9,
    ),
    # The transmit-referred SNR grid sits where the 8x8 and 16x16 outage
    # transitions actually happen (array gain moves them well below 0 dB).
    "fig10_outage": (
        {
            "channel": {"kind": "rician_random"},
            "link": {
                "normalization": "absolute",
                "snr_db": [-16.0, -12.0, -8.0, -4.0, 0.0, 4.0],
            },
        },
        _preset_fig10,
    ),
    "validate": ({}, _preset_validate),
}
PRESET_NAMES = tuple(_PRESETS)


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
        OSError: unwritable output directory (before the run when its
            nearest existing ancestor is not a writable directory).
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    cfg = resolve_config(name, config, overrides)
    rs = ResultSet()
    out = output_dir(cfg, out_dir)
    _PRESETS[name][1](cfg, rs, out, quiet)
    data = _to_jsonable(cfg)
    meta = {"preset": name, "fingerprint": json_fingerprint(data), "config": data}
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
