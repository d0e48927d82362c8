"""Resolvable-path multipath channels.

A channel is a small list of discrete paths, each with a complex gain, a
propagation delay and an arrival/departure direction. The same path set is
consumed by uplink hologram recording and by the downlink tap model: the
channel is assumed quasi-static and reciprocal across both phases.

Three sources of path sets are supported: manual lists, a seeded Rician
ensemble for outage Monte-Carlo, and simplified cluster tables in the
`normalized_delay,power_db,aod_deg,zod_deg` text format.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .surface import Direction, wrap_phi

UNIT_POWER_TOL = 1e-12


class ProfileError(ValueError):
    """Raised for malformed cluster-profile text."""


@dataclass(frozen=True)
class Path:
    """One resolvable propagation path."""

    gain: complex
    delay: float
    direction: Direction

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"delay: must be nonnegative, got {self.delay}")
        if not np.isfinite(self.gain):
            raise ValueError(f"gain: must be finite, got {self.gain}")


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of paths shared by recording and transmission."""

    paths: tuple[Path, ...]
    normalization: str = "raw"  # "raw" | "unit_power"

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.normalization not in ("raw", "unit_power"):
            raise ValueError("normalization: must be raw or unit_power")
        if self.normalization == "unit_power":
            if abs(self.total_power() - 1.0) > UNIT_POWER_TOL:
                raise ValueError("paths: unit_power set must sum to unit power")

    def __len__(self) -> int:
        return len(self.paths)

    def total_power(self) -> float:
        return float(sum(abs(p.gain) ** 2 for p in self.paths))

    def unit_power(self) -> "PathSet":
        """Rescaled copy with sum |gain|^2 == 1."""
        power = self.total_power()
        if power <= 0:
            raise ValueError("cannot normalize a zero-power path set")
        s = 1.0 / math.sqrt(power)
        scaled = tuple(Path(p.gain * s, p.delay, p.direction) for p in self.paths)
        return PathSet(scaled, "unit_power")

    def gains(self) -> np.ndarray:
        return np.array([p.gain for p in self.paths], dtype=complex)

    def delays(self) -> np.ndarray:
        return np.array([p.delay for p in self.paths], dtype=float)

    def carrier_gains(self, omega: float) -> np.ndarray:
        """Per-path gain * exp(-j*omega*delay), the carrier-rotated path gain."""
        return np.array(
            [p.gain * np.exp(-1j * omega * p.delay) for p in self.paths], dtype=complex
        )


@dataclass(frozen=True)
class ChannelConfig:
    """Declarative description of a path-set source.

    kind "manual" returns ``paths`` verbatim. kind "rician_random" draws one
    line-of-sight path (deterministic gain set by the K-factor, delay 0,
    uniform direction) plus L-1 scattered paths with circular complex
    Gaussian gains and uniform delays/directions, then normalizes to unit
    power. kind "cdl_profile" loads a cluster table and applies one random
    phase per cluster per realization.
    """

    kind: str  # "manual" | "rician_random" | "cdl_profile"
    L: int = 5
    k_factor_db: float = 10.0
    max_delay: float = 2.5e-8
    delay_spread: float = 3.0e-8
    theta_range: tuple[float, float] = (math.radians(5.0), math.radians(60.0))
    phi_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    rng_seed: int = 0
    paths: tuple[Path, ...] = field(default=())
    profile_text: str | None = None

    def __post_init__(self):
        if self.kind not in ("manual", "rician_random", "cdl_profile"):
            raise ValueError("kind: must be manual, rician_random or cdl_profile")
        if self.L < 1:
            raise ValueError(f"L: must be >= 1, got {self.L}")
        for name, value in (("max_delay", self.max_delay), ("delay_spread", self.delay_spread)):
            if value <= 0:
                raise ValueError(f"{name}: must be positive, got {value}")
        if self.kind == "manual" and len(self.paths) == 0:
            raise ValueError("paths: manual channel needs at least one path")
        if self.kind == "manual" and PathSet(self.paths).total_power() == 0.0:
            raise ValueError("paths: manual channel needs nonzero total power")


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_paths(cfg: ChannelConfig, rng=None) -> PathSet:
    """Draw one channel realization from the configured source.

    Args:
        cfg: channel description.
        rng: numpy Generator, seed, or None (None uses cfg.rng_seed).
            The same (cfg, seed) pair always yields the same realization.
    """
    rng = _as_rng(cfg.rng_seed if rng is None else rng)

    if cfg.kind == "manual":
        return PathSet(cfg.paths, "raw")

    if cfg.kind == "rician_random":
        return _sample_rician(cfg, rng)

    base = _parsed_profile(cfg.profile_text, cfg.delay_spread)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(base))
    rotated = tuple(
        Path(p.gain * np.exp(1j * ph), p.delay, p.direction)
        for p, ph in zip(base.paths, phases)
    )
    return PathSet(rotated, "unit_power")


@functools.lru_cache(maxsize=8)
def _parsed_profile(profile_text: str | None, delay_spread: float) -> PathSet:
    """Cached ``load_cdl_profile`` of the text (the bundled CDL-D table when None)."""
    text = bundled_cdl_d() if profile_text is None else profile_text
    return load_cdl_profile(text, delay_spread)


def _uniform_direction(cfg: ChannelConfig, rng: np.random.Generator) -> Direction:
    theta = rng.uniform(*cfg.theta_range)
    return Direction(theta, wrap_phi(rng.uniform(*cfg.phi_range)))


def _sample_rician(cfg: ChannelConfig, rng: np.random.Generator) -> PathSet:
    # LOS power fraction k/(k+1) written as 1/(1+10^(-K/10)) so K = +inf is exact.
    los_frac = 1.0 / (1.0 + 10.0 ** (-cfg.k_factor_db / 10.0))
    paths = [Path(math.sqrt(los_frac), 0.0, _uniform_direction(cfg, rng))]
    n_scatter = cfg.L - 1
    if n_scatter > 0:
        sigma2 = (1.0 - los_frac) / n_scatter
        re = rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=n_scatter)
        im = rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=n_scatter)
        delays = rng.uniform(0.0, cfg.max_delay, size=n_scatter)
        for k in range(n_scatter):
            paths.append(
                Path(complex(re[k], im[k]), float(delays[k]), _uniform_direction(cfg, rng))
            )
    return PathSet(tuple(paths), "raw").unit_power()


def load_cdl_profile(profile_text: str, delay_spread: float) -> PathSet:
    """Parse a cluster table into a unit-power path set.

    Expected row format, one cluster per line, `#` starts a comment:

        normalized_delay, power_db, aod_deg, zod_deg

    Delays are normalized_delay * delay_spread. Gains are the square roots
    of the linear cluster powers with zero phase (per-realization random
    phases are the sampler's job), normalized to unit total power.
    Departure angles map to surface coordinates as theta = |zod - 90 deg|
    (vertical panel, boresight at the horizon) and phi = aod mod 360 deg,
    folded into [0, 2*pi) once more in radians by ``wrap_phi`` (a tiny
    negative aod would otherwise round to exactly 2*pi).

    Raises:
        ProfileError: empty profile, or malformed row (names the line number).
    """
    if delay_spread <= 0:
        raise ValueError("delay_spread must be positive")
    rows: list[tuple[float, float, float, float]] = []
    for lineno, raw in enumerate(profile_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ProfileError(
                f"line {lineno}: expected 4 comma-separated values, got {len(parts)}"
            )
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ProfileError(f"line {lineno}: non-numeric value ({exc})") from None
    if not rows:
        raise ProfileError("profile contains no cluster rows")

    amps = np.sqrt(np.array([10.0 ** (r[1] / 10.0) for r in rows]))
    amps = amps / math.sqrt(float(np.sum(amps**2)))
    paths = []
    for (norm_delay, _power, aod, zod), amp in zip(rows, amps):
        if norm_delay < 0:
            raise ProfileError("normalized delays must be nonnegative")
        theta = math.radians(min(abs(zod - 90.0), 90.0))
        phi = wrap_phi(math.radians(aod % 360.0))
        paths.append(Path(complex(amp), norm_delay * delay_spread, Direction(theta, phi)))
    return PathSet(tuple(paths), "unit_power")


def bundled_cdl_d() -> str:
    """Text of the bundled CDL-D cluster table."""
    return (
        resources.files("rrmsim").joinpath("data/cdl_d.profile").read_text("utf-8")
    )
