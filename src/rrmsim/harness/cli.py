"""Command-line interface.

Subcommands: record, beampattern, mi-sweep, outage, preset, validate.
The flags --seed and --out are one config override layer; the commands run
on the preset runner's config merge, output directory, results writer and
recording step.
Exit codes: 0 success, 1 validation failure, 2 config error, 3 I/O error,
4 internal error (any other exception: a library bug, not bad input).
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback

from .. import beampattern as bp
from .. import holography, link
from ..channel import ProfileError, sample_paths
from . import invariants
from .config import ConfigError, ExperimentConfig, load_config, merge_config
from .presets import (
    PRESET_NAMES,
    add_curve_rows,
    check_pattern_weights,
    output_dir,
    paired_curves,
    run_preset,
    write_results,
)
from .results import ResultSet

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _overrides(args) -> dict:
    """The --seed and --out flags as a config override layer."""
    layer = {}
    if args.seed is not None:
        layer["seed"] = args.seed
    if args.out is not None:
        layer["output"] = {"directory": args.out}
    return layer


def _recorded_weights(cfg: ExperimentConfig):
    """Power matrix and weights of one recording of one path realization (manual lists verbatim)."""
    scenario = cfg.scenario("rrm")
    paths = sample_paths(scenario.channel, cfg.seed)
    power = link.recorded_power(scenario, paths.arrays, [cfg.seed])
    return power, holography.make_weights(power, cfg.weights.strategy)


def _cmd_record(cfg: ExperimentConfig, args) -> int:
    out = output_dir(cfg)
    power, weights = _recorded_weights(cfg)
    holography.save_matrix_csv(power, out / "hologram.csv")
    holography.save_matrix_csv(weights.values, out / "weights.csv")
    if not args.quiet:
        print(f"recorded {power.shape[0]}x{power.shape[1]} power matrix")
        print(
            f"weights: strategy={cfg.weights.strategy} b={float(weights.b):.6g} "
            f"rho={float(weights.rho):.6g} clipped={bool(weights.clipped)}"
        )
        print(f"wrote {out / 'hologram.csv'} and {out / 'weights.csv'}")
    return EXIT_OK


def _cmd_beampattern(cfg: ExperimentConfig, args) -> int:
    if not (math.isfinite(args.step_deg) and args.step_deg > 0):
        raise ConfigError(f"--step-deg: must be finite and > 0, got {args.step_deg}")
    if args.peaks < 1:
        raise ConfigError(f"--peaks: must be >= 1, got {args.peaks}")
    _power, weights = _recorded_weights(cfg)
    check_pattern_weights(weights, cfg.weights.strategy)
    out = output_dir(cfg)
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
    if args.command == "outage":
        trials, r_th = cfg.outage.trials, cfg.outage.r_th
        experiment, prefix = "outage", "outage"
    else:
        if args.reps < 1:
            raise ConfigError(f"--reps: must be >= 1, got {args.reps}")
        trials, r_th = args.reps, None
        experiment, prefix = "mi_sweep", "mi"
    out = output_dir(cfg)
    rs = ResultSet()
    for system, curves in paired_curves(cfg, trials, cfg.seed, r_th=r_th):
        add_curve_rows(rs, experiment, f"{prefix}_{system}", cfg, curves)
    write_results(rs, out, args.quiet)
    return EXIT_OK


def _cmd_preset(base: ExperimentConfig | None, overrides: dict, args) -> int:
    rs = run_preset(args.name, base, overrides, quiet=args.quiet)
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

    p = sub.add_parser("validate", help="run the named invariant suite")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = load_config(args.config) if args.config else None
        overrides = _overrides(args)
        if args.command == "preset":  # the preset merges its own defaults under the flags
            return _cmd_preset(base, overrides, args)
        return args.fn(merge_config(base, overrides), args)
    except (ConfigError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
