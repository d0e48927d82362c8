"""Command-line interface.

Subcommands: record, beampattern, mi-sweep, outage, preset, validate.
Exit codes: 0 success, 1 validation failure, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FsPath

from .. import beampattern as bp
from .. import holography, link
from ..channel import ProfileError, sample_paths
from ..holography import RecordingConfig, noise_power_for_snr
from . import invariants
from .config import (
    ConfigError,
    ExperimentConfig,
    OutageBlock,
    _to_jsonable,
    config_from_dict,
    load_config,
)
from .presets import PRESET_NAMES, add_curve_rows, print_summary, run_preset
from .results import ResultSet, emit_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    data = _to_jsonable(cfg)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["output"] = dict(data["output"], directory=args.out)
    return config_from_dict(data)


def _out_dir(cfg: ExperimentConfig) -> FsPath:
    out = FsPath(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario_paths(cfg: ExperimentConfig):
    """One path realization per the channel block (manual lists verbatim)."""
    return sample_paths(cfg.channel_config(cfg.seed), cfg.seed)


def _recorded_weights(cfg: ExperimentConfig, paths):
    rec = RecordingConfig(
        user_amplitude=cfg.recording.user_amplitude,
        noise_power=noise_power_for_snr(
            cfg.recording.snr_db, cfg.recording.user_amplitude, paths
        ),
        duration_symbols=cfg.recording.duration_symbols,
        samples_per_symbol=cfg.recording.samples_per_symbol,
        rng_seed=cfg.seed,
    )
    holo = holography.record_hologram(cfg.geometry(), cfg.reference_wave(), paths, rec)
    return holo, holography.make_weights(holo, cfg.weights.strategy)


def _cmd_record(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    paths = _scenario_paths(cfg)
    holo, weights = _recorded_weights(cfg, paths)
    holography.save_matrix_csv(holo.values, out / "hologram.csv")
    holography.save_matrix_csv(weights.values, out / "weights.csv")
    if not args.quiet:
        print(f"recorded {holo.values.shape[0]}x{holo.values.shape[1]} power matrix")
        print(
            f"weights: strategy={weights.strategy} b={weights.b_used:.6g} "
            f"rho={weights.rho_used:.6g} clipped={weights.clipped}"
        )
        print(f"wrote {out / 'hologram.csv'} and {out / 'weights.csv'}")
    return EXIT_OK


def _cmd_beampattern(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    paths = _scenario_paths(cfg)
    _holo, weights = _recorded_weights(cfg, paths)
    theta, phi = bp.default_axes(args.step_deg)
    pattern = bp.array_factor(cfg.geometry(), cfg.reference_wave(), weights, theta, phi)
    bp.export_pattern_csv(pattern, out / "pattern.csv")
    peaks = bp.find_peaks(pattern, count=args.peaks, min_separation_deg=5.0)
    if not args.quiet:
        print(f"wrote {out / 'pattern.csv'}")
        for d, power in peaks.peaks:
            print(
                f"peak at theta={math.degrees(d.theta):6.1f} deg "
                f"phi={math.degrees(d.phi):6.1f} deg  {power:7.2f} dB"
            )
    return EXIT_OK


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    """mi-sweep (mean MI) or outage (Pr{MI < r_th}) for rrm and rhs vs SNR."""
    out = _out_dir(cfg)
    rs = ResultSet(cfg.fingerprint())
    if args.command == "outage":
        outage = cfg.outage or OutageBlock()
        trials, r_th = outage.trials, outage.r_th
        experiment, prefix = "outage", "outage"
    else:
        trials, r_th = args.reps, None
        experiment, prefix = "mi_sweep", "mi"
    for system in ("rrm", "rhs"):
        curves = link.trial_mi_curves(
            cfg.scenario(system), cfg.link.snr_db, trials=trials, seed=cfg.seed
        )
        add_curve_rows(rs, experiment, f"{prefix}_{system}", cfg, curves, r_th)
    emit_csv(rs, out / "results.csv")
    if not args.quiet:
        print_summary(rs)
    return EXIT_OK


def _cmd_preset(cfg: ExperimentConfig, args) -> int:
    rs = run_preset(
        args.name,
        config=cfg,
        out_dir=cfg.output.directory,
        quiet=args.quiet,
        large=args.large,
    )
    if args.name == "validate":
        failed = [r for r in rs.rows if r.metric == "passed" and r.value != 1.0]
        return EXIT_VALIDATION if failed else EXIT_OK
    return EXIT_OK


def _cmd_validate(cfg: ExperimentConfig, args) -> int:
    rows = invariants.run_all(quiet=args.quiet)
    failed = [name for name, ok, _detail in rows if not ok]
    if failed and not args.quiet:
        print(f"FAILED: {', '.join(failed)}")
    return EXIT_VALIDATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrmsim",
        description=(
            "Holographic beamforming simulator: interference-power recording, "
            "reindexed weights, beam patterns, block mutual information and outage."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress console output")

    p = sub.add_parser("record", help="record a hologram and write weight CSVs")
    common(p)
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser("beampattern", help="far-field pattern of recorded weights")
    common(p)
    p.add_argument("--step-deg", type=float, default=0.5, help="grid step in degrees")
    p.add_argument("--peaks", type=int, default=5, help="number of peaks to report")
    p.set_defaults(fn=_cmd_beampattern)

    p = sub.add_parser("mi-sweep", help="mutual information vs SNR, recorded vs perfect CSI")
    common(p)
    p.add_argument("--reps", type=int, default=10, help="channel/recording realizations")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("outage", help="Monte-Carlo outage probability vs SNR")
    common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("preset", help="run a named experiment preset")
    common(p)
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--large", action="store_true", help="extend size sweeps to 64x64")
    p.set_defaults(fn=_cmd_preset)

    p = sub.add_parser("validate", help="run the named invariant suite")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.fn(cfg, args)
    except (ConfigError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
