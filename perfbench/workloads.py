"""The benchmark's workloads: inputs from a seed, one op, and output checks.

Each workload is a closed loop with one client. ``inputs(seed, index)``
derives op ``index``'s inputs from the run seed, ``op`` calls into the
public rrmsim functions and returns their outputs, ``canonical`` reduces
those outputs to plain numbers for the golden comparison, and ``problems``
lists every seed-independent invariant the outputs break.

The workloads are chosen so that each layer does most of its work in one of
them and little or none in another:

* ``outage_mc``: many small Monte-Carlo blocks through the fig10 preset;
  fixed per-block costs (taps, eigen-solve, path objects) dominate and the
  pattern layer is never called.
* ``large_surface``: a few 128x128 and 256x256 CDL blocks; per-element sums
  (steering fields, recording noise, equivalent amplitudes) dominate.
* ``pattern``: the fig5 far-field chain; the only user of ``beampattern``,
  with ``link`` and ``channel`` untouched.
"""

from __future__ import annotations

import math
from pathlib import Path as FsPath

import numpy as np

from rrmsim import beampattern, holography, link
from rrmsim.channel import Path, PathSet
from rrmsim.harness import presets
from rrmsim.holography import RecordingConfig
from rrmsim.surface import Direction, ReferenceWaveSpec, SurfaceGeometry

# Seed whose outputs are stored under reference/. The warm-up op of every run
# uses input index 0 of this seed, so each run compares against the golden
# outputs at least once whatever its --seed.
DEFAULT_SEED = 0
# The golden tolerance of the repository: 1e-9 relative.
REL_TOL = 1e-9


def op_seed(seed: int, index: int) -> int:
    """Integer seed of op ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


class OutageMC:
    """One op is the fig10 outage preset at 8x8 and 16x16, rrm and rhs paired."""

    name = "outage_mc"
    trials = 10
    items_per_op = 2 * 2 * trials  # blocks: sizes x systems x trials
    reference_ops = 4
    count_ops = 10

    def __init__(self, tmp_dir: FsPath):
        self.out_dir = tmp_dir

    def inputs(self, seed: int, index: int) -> int:
        return op_seed(seed, index)

    def op(self, config_seed: int):
        return presets.run_preset(
            "fig10_outage",
            overrides={"seed": config_seed, "outage": {"trials": self.trials}},
            out_dir=self.out_dir,
            quiet=True,
        )

    def canonical(self, results) -> dict:
        return {
            "rows": [
                [r.metric, r.sweep_value, r.value, r.ci_half_width] for r in results.rows
            ]
        }

    def problems(self, results) -> list[str]:
        out = []
        curves: dict[str, list[tuple[float, float]]] = {}
        for r in results.rows:
            curves.setdefault(r.metric, []).append((r.sweep_value, r.value))
            if not (0.0 <= r.value <= 1.0):
                out.append(f"{r.metric} at {r.sweep_value} dB: outage {r.value} outside [0, 1]")
            if r.ci_half_width is None or not math.isfinite(r.ci_half_width):
                out.append(f"{r.metric} at {r.sweep_value} dB: non-finite CI")
        if len(curves) != 4 or any(len(c) != 6 for c in curves.values()):
            out.append(f"expected 4 curves of 6 SNRs, got {sorted(curves)}")
        for metric, points in curves.items():
            if not _nonincreasing([v for _, v in sorted(points)]):
                out.append(f"{metric}: outage increases with SNR")
        lines = (self.out_dir / "results.csv").read_text("utf-8").splitlines()
        if len(lines) != len(results.rows) + 1:
            out.append(f"results.csv has {len(lines)} lines for {len(results.rows)} rows")
        return out


class LargeSurface:
    """One op is one CDL block at each of 128x128 and 256x256, rrm and rhs."""

    name = "large_surface"
    sizes = (128, 256)
    systems = ("rrm", "rhs")
    items_per_op = len(sizes) * len(systems)  # blocks
    reference_ops = 3
    count_ops = 5

    def __init__(self, tmp_dir: FsPath):
        # fig9 defaults: CDL-D table (13 clusters), absolute normalization,
        # recording at 10 dB over 5 symbols.
        cfg = presets.resolve_config("fig9_cdl")
        self.snr_db = list(cfg.link.snr_db)
        self.scenarios = [
            (f"{size}x{size}_{system}", cfg.scenario(system, rows=size, cols=size))
            for size in self.sizes
            for system in self.systems
        ]

    def inputs(self, seed: int, index: int) -> int:
        return op_seed(seed, index)

    def op(self, trial_seed: int) -> dict:
        # One seed for all four blocks pairs rrm with rhs on the same draw.
        return {
            name: link.trial_mi_curves(scenario, self.snr_db, 1, trial_seed)
            for name, scenario in self.scenarios
        }

    def canonical(self, curves: dict) -> dict:
        return {name: mi[0].tolist() for name, mi in curves.items()}

    def problems(self, curves: dict) -> list[str]:
        out = []
        for name, mi in curves.items():
            row = mi[0]
            if mi.shape != (1, len(self.snr_db)):
                out.append(f"{name}: MI shape {mi.shape}")
            elif not np.all(np.isfinite(row)) or np.any(row < 0.0):
                out.append(f"{name}: MI not finite and nonnegative")
            elif np.any(np.diff(row) < 0.0):
                out.append(f"{name}: MI decreases with SNR")
        return out


class Pattern:
    """One op is the fig5 chain at 32x32 and 64x64 for one weight strategy.

    Noise-free recording with reference amplitude 8, weights, the far-field
    pattern on the 0.5 degree grid, peak search, sidelobe statistics and CSV
    export. Ops alternate the "none" and "mean" strategies, which cost the
    same, so op latency stays unimodal.
    """

    name = "pattern"
    sizes = (32, 64)
    n_paths = 5
    reference_ops = 3
    count_ops = 2
    # Rows and columns of the pattern grid kept in the golden reference.
    sample = (slice(None, None, 20), slice(None, None, 40))

    def __init__(self, tmp_dir: FsPath):
        self.tmp_dir = tmp_dir
        self.theta, self.phi = beampattern.default_axes(0.5)
        self.items_per_op = len(self.sizes) * self.theta.size * self.phi.size  # directions

    def inputs(self, seed: int, index: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        paths = PathSet(
            tuple(
                Path(
                    complex(rng.uniform(0.5, 1.0)),
                    0.0,
                    Direction.from_degrees(rng.uniform(10.0, 50.0), rng.uniform(0.0, 360.0)),
                )
                for _ in range(self.n_paths)
            )
        )
        return ("none", "mean")[index % 2], paths

    def op(self, inputs) -> dict:
        strategy, paths = inputs
        dirs = [p.direction for p in paths.paths]
        out = {}
        for size in self.sizes:
            geom = SurfaceGeometry.half_wavelength(size, size, 30.0e9)
            ref = ReferenceWaveSpec.for_geometry(geom, amplitude=8.0)
            holo = holography.record_hologram(geom, ref, paths, RecordingConfig())
            weights = holography.make_weights(holo, strategy)
            pattern = beampattern.array_factor(geom, ref, weights, self.theta, self.phi)
            peaks = beampattern.find_peaks(pattern, count=len(dirs), min_separation_deg=5.0)
            lobes = beampattern.sidelobe_metrics(pattern, dirs, guard_deg=5.0)
            csv = self.tmp_dir / f"pattern_{size}x{size}.csv"
            beampattern.export_pattern_csv(pattern, csv)
            out[f"{size}x{size}"] = (pattern, peaks, lobes, csv)
        return out

    def canonical(self, out: dict) -> dict:
        return {
            name: {
                "peak_linear": pattern.peak_linear,
                "peaks": [[d.theta, d.phi, v] for d, v in peaks.peaks],
                "sidelobes": lobes,
                "samples": pattern.power_db[self.sample].ravel().tolist(),
            }
            for name, (pattern, peaks, lobes, _csv) in out.items()
        }

    def problems(self, out: dict) -> list[str]:
        errs = []
        for name, (pattern, peaks, lobes, csv) in out.items():
            db = pattern.power_db
            if np.any(np.isnan(db)) or float(np.max(db)) != 0.0:
                errs.append(f"{name}: pattern is not normalized to a 0 dB peak")
            values = [v for _, v in peaks.peaks]
            if not peaks.complete or values[0] != 0.0 or not _nonincreasing(values):
                errs.append(f"{name}: peak list incomplete or out of order")
            if not lobes["mean_sidelobe_db"] <= lobes["peak_sidelobe_db"] <= 0.0:
                errs.append(f"{name}: sidelobe statistics out of order")
            errs += self._csv_problems(name, pattern, csv)
        return errs

    def _csv_problems(self, name: str, pattern, csv: FsPath) -> list[str]:
        with open(csv, encoding="utf-8") as fh:
            if fh.readline() != "theta_deg,phi_deg,power_db\n":
                return [f"{name}: CSV header"]
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        nt, nphi = pattern.power_db.shape
        if rows.shape != (nt * nphi, 3):
            return [f"{name}: CSV holds {rows.shape} values for a {nt}x{nphi} grid"]
        theta = np.repeat(np.degrees(pattern.theta_rad), nphi)
        phi = np.tile(np.degrees(pattern.phi_rad), nt)
        db = pattern.power_db.ravel()
        # %.9g keeps nine significant digits: half a unit of the ninth is
        # at most 5e-9 of the value.
        if not (
            np.allclose(rows[:, 0], theta, rtol=5e-9, atol=1e-12)
            and np.allclose(rows[:, 1], phi, rtol=5e-9, atol=1e-12)
            and np.allclose(rows[:, 2], db, rtol=5e-9, atol=0.0)
        ):
            return [f"{name}: CSV values differ from the pattern grid"]
        return []


WORKLOADS = {w.name: w for w in (OutageMC, LargeSurface, Pattern)}


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between two canonical outputs, numbers at ``REL_TOL``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]
