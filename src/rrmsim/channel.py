"""Resolvable-path multipath channels.

A channel is a small list of discrete paths, each with a complex gain, a
propagation delay and an arrival/departure direction. The same path set is
consumed by uplink hologram recording and by the downlink tap model: the
channel is assumed quasi-static and reciprocal across both phases.

Three sources of path sets are supported: manual lists, a seeded Rician
ensemble for outage Monte-Carlo, and simplified cluster tables in the
`normalized_delay,power_db,aod_deg,zod_deg` text format, which a
``ChannelConfig`` reads and parses when it is built. ``draw_paths`` makes
the draws of T realizations, one Generator each, into a ``PathArrays`` of
(T, L) arrays for the Monte-Carlo kernel; ``sample_paths`` wraps the draw
of one Generator into a ``PathSet``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath
from typing import NamedTuple

import numpy as np

from .surface import Direction, wrap_phi


class ProfileError(ValueError):
    """Raised for malformed cluster-profile text."""


# Largest normalized delay of a cluster-profile row: with the config's
# 1 ms bound on delay_spread a row's delay stays within 1 s (docs/config.md).
_NORMALIZED_DELAY_LIMIT = 1.0e3

CHANNEL_KINDS = ("manual", "rician_random", "cdl_profile")


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


class PathArrays(NamedTuple):
    """Path parameters as arrays of shape (..., L): one row of L paths per trial.

    gain is complex, delay in seconds, theta and phi in radians (theta in
    [0, pi/2], phi in [0, 2*pi)). Leading axes stack realizations.
    """

    gain: np.ndarray
    delay: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def total_power(self) -> np.ndarray:
        """sum_i |gain_i|^2 over the last axis, added in path order.

        hypot and float_power round as Python's abs(g) ** 2 does, and the
        running sum adds as Python's sum(), so a PathSet's total keeps its bits.
        """
        power = np.float_power(np.hypot(self.gain.real, self.gain.imag), 2.0)
        if power.shape[-1] == 0:
            return np.zeros(power.shape[:-1])
        return np.add.accumulate(power, axis=-1)[..., -1]

    def broadcast(self, trials: int) -> "PathArrays":
        """Read-only (trials, L) view of one (L,) row, the same paths in every trial."""
        return PathArrays(*(np.broadcast_to(c, (trials,) + c.shape) for c in self))

    def carrier_gains(self, omega: float) -> np.ndarray:
        """Per-path gain * exp(-j*omega*delay), the carrier-rotated path gain.

        The product is formed from real parts, rounded as a scalar complex
        product is; numpy's vector complex multiply fuses and can differ in
        the last bit.
        """
        g, rot = self.gain, np.exp(-1j * omega * self.delay)
        out = np.empty(np.broadcast_shapes(g.shape, rot.shape), dtype=complex)
        out.real = g.real * rot.real - g.imag * rot.imag
        out.imag = g.real * rot.imag + g.imag * rot.real
        return out


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of paths shared by recording and transmission."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))

    def __len__(self) -> int:
        return len(self.paths)

    @functools.cached_property
    def arrays(self) -> PathArrays:
        """The paths as read-only (L,) arrays, built once per set."""
        columns = (
            np.array([p.gain for p in self.paths], dtype=complex),
            np.array([p.delay for p in self.paths], dtype=float),
            np.array([p.direction.theta for p in self.paths], dtype=float),
            np.array([p.direction.phi for p in self.paths], dtype=float),
        )
        for column in columns:
            column.flags.writeable = False
        return PathArrays(*columns)

    @classmethod
    def from_arrays(cls, arrays: PathArrays) -> "PathSet":
        """PathSet of one realization's (L,) arrays."""
        return cls(
            tuple(
                Path(complex(g), float(d), Direction(float(t), float(p)))
                for g, d, t, p in zip(*arrays)
            )
        )

    def total_power(self) -> float:
        return float(self.arrays.total_power())

    def carrier_gains(self, omega: float) -> np.ndarray:
        """Per-path gain * exp(-j*omega*delay), the carrier-rotated path gain."""
        return self.arrays.carrier_gains(omega)


@dataclass(frozen=True)
class ChannelConfig:
    """Declarative description of a path-set source.

    kind "manual" returns ``paths`` verbatim. kind "rician_random" draws one
    line-of-sight path (deterministic gain set by the K-factor, delay 0,
    uniform direction) plus L-1 scattered paths with circular complex
    Gaussian gains and uniform delays/directions, then normalizes to unit
    power. kind "cdl_profile" applies one random phase per cluster per
    realization to the cluster table at ``profile_path`` (the bundled CDL-D
    table when None; a relative path resolves against the working directory).
    Construction reads and parses that table (or takes the manual paths) into
    ``rows`` once, None for rician_random, so a config that builds can draw.
    """

    kind: str  # "manual" | "rician_random" | "cdl_profile"
    L: int = 5
    k_factor_db: float = 10.0
    max_delay: float = 2.5e-8
    delay_spread: float = 3.0e-8
    theta_range: tuple[float, float] = (math.radians(5.0), math.radians(60.0))
    phi_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    paths: tuple[Path, ...] = field(default=())
    profile_path: str | None = None
    rows: PathArrays | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError("kind: must be manual, rician_random or cdl_profile")
        if self.L < 1:
            raise ValueError(f"L: must be >= 1, got {self.L}")
        for name, value in (("max_delay", self.max_delay), ("delay_spread", self.delay_spread)):
            if value <= 0:
                raise ValueError(f"{name}: must be positive, got {value}")
        rows = None
        if self.kind == "manual":
            if len(self.paths) == 0:
                raise ValueError("paths: manual channel needs at least one path")
            rows = PathSet(self.paths).arrays
            if rows.total_power() == 0.0:
                raise ValueError("paths: manual channel needs nonzero total power")
        elif self.kind == "cdl_profile":
            path = self.profile_path
            try:
                text = bundled_cdl_d() if path is None else FsPath(path).read_text("utf-8")
            except UnicodeDecodeError:
                raise ProfileError("not UTF-8") from None
            rows = load_cdl_profile(text, self.delay_spread).arrays
        object.__setattr__(self, "rows", rows)


def sample_paths(cfg: ChannelConfig, rng) -> PathSet:
    """Draw one channel realization from the configured source.

    Args:
        cfg: channel description.
        rng: numpy Generator or seed. The same (cfg, seed) pair always
            yields the same realization.

    Returns the ``draw_paths`` row of this one Generator as a PathSet: the
    configured paths for manual, a unit-power realization otherwise.
    """
    row = PathArrays(*(column[0] for column in draw_paths(cfg, [np.random.default_rng(rng)])))
    return PathSet.from_arrays(row)


def draw_paths(cfg: ChannelConfig, rngs) -> PathArrays:
    """(T, L) path arrays of T realizations, realization t drawn from rngs[t].

    Each Generator makes the draws of one realization, in this order:
    manual makes none (every row is the configured paths). rician_random
    draws the LOS theta and phi, then L-1 real parts and L-1 imaginary parts
    of the scattered gains, L-1 delays, then theta and phi of each scattered
    path in turn, and the row is rescaled to unit power. cdl_profile draws
    L cluster phases for the parsed unit-power table. A uniform draw on
    [lo, hi) is lo + (hi - lo) * u and a normal one sigma * z, from the
    Generator's ``random`` and ``standard_normal``, which is how
    ``Generator.uniform`` and ``Generator.normal`` form them.
    """
    if cfg.kind == "rician_random":
        return _draw_rician(cfg, rngs)
    base = cfg.rows
    if cfg.kind == "manual":
        return base.broadcast(len(rngs))
    (u,) = _fill(rngs, (("random", base.gain.size),))
    phases = 2.0 * math.pi * u
    return base.broadcast(len(rngs))._replace(gain=base.gain * np.exp(1j * phases))


def _fill(rngs, draws):
    """Per Generator, in turn, the draws (method, count) into one (T, count) array each."""
    out = [np.empty((len(rngs), count)) for _, count in draws]
    for t, rng in enumerate(rngs):
        for (method, _), array in zip(draws, out):
            getattr(rng, method)(out=array[t])
    return out


def _directions(cfg: ChannelConfig, u: np.ndarray):
    """theta and phi of uniform draws u (..., 2n) taken theta, phi, theta, phi, ..."""
    (t_lo, t_hi), (p_lo, p_hi) = cfg.theta_range, cfg.phi_range
    theta = t_lo + (t_hi - t_lo) * u[..., 0::2]
    phi = (p_lo + (p_hi - p_lo) * u[..., 1::2]) % (2.0 * math.pi)
    return theta, np.where(phi == 2.0 * math.pi, 0.0, phi)  # as wrap_phi


def _draw_rician(cfg: ChannelConfig, rngs) -> PathArrays:
    # LOS power fraction k/(k+1) written as 1/(1+10^(-K/10)) so K = +inf is exact.
    los_frac = 1.0 / (1.0 + 10.0 ** (-cfg.k_factor_db / 10.0))
    n = cfg.L - 1
    u_los, z, u_delay, u_dir = _fill(
        rngs, (("random", 2), ("standard_normal", 2 * n), ("random", n), ("random", 2 * n))
    )
    z *= math.sqrt((1.0 - los_frac) / max(n, 1) / 2.0)
    T = len(rngs)
    los_theta, los_phi = _directions(cfg, u_los)
    theta, phi = _directions(cfg, u_dir)
    raw = PathArrays(
        np.concatenate((np.full((T, 1), math.sqrt(los_frac)), z[:, :n] + 1j * z[:, n:]), axis=1),
        np.concatenate((np.zeros((T, 1)), cfg.max_delay * u_delay), axis=1),
        np.concatenate((los_theta, theta), axis=1),
        np.concatenate((los_phi, phi), axis=1),
    )
    power = raw.total_power()
    if np.any(power <= 0.0):
        raise ValueError("cannot normalize a zero-power path set")
    return raw._replace(gain=raw.gain * (1.0 / np.sqrt(power))[:, None])


def load_cdl_profile(text: str, delay_spread: float) -> PathSet:
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
        ProfileError: empty profile, malformed or non-finite row or a
            normalized delay outside [0, 1e3] (names the line number), or
            powers beyond the float range.
    """
    if delay_spread <= 0:
        raise ValueError("delay_spread must be positive")
    rows: list[tuple[float, float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ProfileError(
                f"line {lineno}: expected 4 comma-separated values, got {len(parts)}"
            )
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ProfileError(f"line {lineno}: non-numeric value ({exc})") from None
        if not all(math.isfinite(v) for v in row):
            raise ProfileError(f"line {lineno}: values must be finite")
        if not 0.0 <= row[0] <= _NORMALIZED_DELAY_LIMIT:
            raise ProfileError(
                f"line {lineno}: normalized delay must lie in "
                f"[0, {_NORMALIZED_DELAY_LIMIT:g}], got {row[0]}"
            )
        rows.append(row)
    if not rows:
        raise ProfileError("profile contains no cluster rows")

    try:
        amps = np.sqrt(np.array([10.0 ** (r[1] / 10.0) for r in rows]))
        with np.errstate(over="raise"):  # finite powers whose sum is not
            total = float(np.sum(amps**2))
    except (OverflowError, FloatingPointError):
        raise ProfileError("cluster powers overflow; power_db is too large") from None
    if total == 0.0:
        raise ProfileError("cluster powers underflow to zero; power_db is too small")
    amps = amps / math.sqrt(total)
    paths = []
    for (norm_delay, _power, aod, zod), amp in zip(rows, amps):
        theta = math.radians(min(abs(zod - 90.0), 90.0))
        phi = wrap_phi(math.radians(aod % 360.0))
        paths.append(Path(complex(amp), norm_delay * delay_spread, Direction(theta, phi)))
    return PathSet(tuple(paths))


def bundled_cdl_d() -> str:
    """Text of the bundled CDL-D cluster table."""
    return (
        resources.files("rrmsim").joinpath("data/cdl_d.profile").read_text("utf-8")
    )
