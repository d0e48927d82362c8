"""Declarative JSON experiment configs with strict validation.

An empty JSON object resolves to the standard scenario: a 32x32 surface at
30 GHz with half-wavelength spacing and substrate index sqrt(3), reference
amplitude 2, unit user amplitude, five fixed incident paths, recording at
10 dB SNR for 5 symbol periods, mean-subtracted weights, 1 W transmit
power and a 64-symbol block with rolloff 0.25.

Unknown keys and non-finite numbers (JSON ``NaN``, ``1e999``) are rejected,
and every schema violation names the offending key with its full dotted
path. ``load_config(save_config(cfg))`` returns an equal config, field for
field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from ..channel import ChannelConfig, Path, PathSet
from ..link import LinkScenario, PulseSpec
from ..surface import Direction, ReferenceWaveSpec, SurfaceGeometry

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Config parsing or schema failure (exit code 2 at the CLI)."""


@dataclass(frozen=True)
class PathSpec:
    """One manually configured propagation path (angles in degrees)."""

    theta_deg: float
    phi_deg: float
    gain_real: float = 1.0
    gain_imag: float = 0.0
    delay: float = 0.0

    def validate(self):
        if not 0.0 <= self.theta_deg <= 90.0:
            raise ConfigError("theta_deg: must lie in [0, 90]")
        if self.delay < 0:
            raise ConfigError("delay: must be nonnegative")

    def to_path(self) -> Path:
        return Path(
            complex(self.gain_real, self.gain_imag),
            self.delay,
            Direction.from_degrees(self.theta_deg, self.phi_deg),
        )


# Default scenario: five incident paths with unit gains. Delays are integer
# carrier cycles at 30 GHz (no residual carrier phase at recording) but
# fractions of the default 10 ns symbol, so the block channel is mildly
# frequency selective without depending on delay-phase luck.
DEFAULT_PATHS = (
    PathSpec(15.0, 100.0, delay=0.0),
    PathSpec(30.0, 60.0, delay=2.0e-9),
    PathSpec(40.0, 35.0, delay=4.5e-9),
    PathSpec(45.0, 45.0, delay=7.0e-9),
    PathSpec(45.0, 140.0, delay=9.5e-9),
)


@dataclass(frozen=True)
class SurfaceBlock:
    M: int = 32
    N: int = 32
    fc: float = 30.0e9
    substrate_index: float = math.sqrt(3.0)
    dx: float | None = None  # None -> half wavelength
    dy: float | None = None

    def validate(self):
        if self.M < 1:
            raise ConfigError("M: must be a positive integer")
        if self.N < 1:
            raise ConfigError("N: must be a positive integer")
        if self.fc <= 0:
            raise ConfigError("fc: must be positive")
        if self.substrate_index < 1.0:
            raise ConfigError("substrate_index: must be >= 1")
        for name, v in (("dx", self.dx), ("dy", self.dy)):
            if v is not None and v <= 0:
                raise ConfigError(f"{name}: must be positive")


@dataclass(frozen=True)
class ReferenceBlock:
    # Amplitude 2 keeps the recorded power matrix's constant term moderate:
    # large enough that mean subtraction visibly helps small surfaces, small
    # enough that the mean/min strategies converge at large ones.
    amplitude: float = 2.0
    phase_offset: float = 0.0
    sign: int = -1

    def validate(self):
        if self.amplitude < 0:
            raise ConfigError("amplitude: must be nonnegative")
        if self.sign not in (-1, 1):
            raise ConfigError("sign: must be +1 or -1")


@dataclass(frozen=True)
class RecordingBlock:
    user_amplitude: float = 1.0
    snr_db: float | None = 10.0  # None records without noise
    duration_symbols: int = 5
    samples_per_symbol: int = 1

    def validate(self):
        if self.user_amplitude < 0:
            raise ConfigError("user_amplitude: must be nonnegative")
        if self.duration_symbols < 1:
            raise ConfigError("duration_symbols: must be >= 1")
        if self.samples_per_symbol < 1:
            raise ConfigError("samples_per_symbol: must be >= 1")


@dataclass(frozen=True)
class ChannelBlock:
    kind: str = "manual"
    L: int = 5
    k_factor_db: float = 10.0
    max_delay: float = 2.5e-8
    delay_spread: float = 3.0e-8
    theta_range_deg: tuple[float, float] = (5.0, 60.0)
    phi_range_deg: tuple[float, float] = (0.0, 360.0)
    profile_path: str | None = None
    paths: tuple[PathSpec, ...] = DEFAULT_PATHS

    def validate(self):
        if self.kind not in ("manual", "rician_random", "cdl_profile"):
            raise ConfigError(
                "kind: must be one of manual, rician_random, cdl_profile"
            )
        if self.L < 1:
            raise ConfigError("L: must be >= 1")
        if self.max_delay <= 0:
            raise ConfigError("max_delay: must be positive")
        if self.delay_spread <= 0:
            raise ConfigError("delay_spread: must be positive")
        if self.kind == "manual" and not self.paths:
            raise ConfigError("paths: manual channel needs at least one path")


@dataclass(frozen=True)
class WeightsBlock:
    strategy: str = "mean"

    def validate(self):
        if self.strategy not in ("none", "mean", "min"):
            raise ConfigError("strategy: must be one of none, mean, min")


@dataclass(frozen=True)
class LinkBlock:
    K: int = 64
    rolloff: float = 0.25
    symbol_period: float = 1.0e-8
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    normalization: str = "normalized"
    tx_power: float = 1.0

    def validate(self):
        if self.K < 1:
            raise ConfigError("K: must be >= 1")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ConfigError("rolloff: must lie in [0, 1]")
        if self.symbol_period <= 0:
            raise ConfigError("symbol_period: must be positive")
        if not self.snr_db:
            raise ConfigError("snr_db: must be a nonempty list")
        if self.normalization not in ("normalized", "absolute"):
            raise ConfigError("normalization: must be normalized or absolute")
        if self.tx_power <= 0:
            raise ConfigError("tx_power: must be positive")


@dataclass(frozen=True)
class OutageBlock:
    r_th: float = 2.0
    trials: int = 2000

    def validate(self):
        if self.r_th <= 0:
            raise ConfigError("r_th: must be positive")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"

    def validate(self):
        if not self.directory:
            raise ConfigError("directory: must be nonempty")


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    surface: SurfaceBlock = field(default_factory=SurfaceBlock)
    reference: ReferenceBlock = field(default_factory=ReferenceBlock)
    recording: RecordingBlock = field(default_factory=RecordingBlock)
    channel: ChannelBlock = field(default_factory=ChannelBlock)
    weights: WeightsBlock = field(default_factory=WeightsBlock)
    link: LinkBlock = field(default_factory=LinkBlock)
    outage: OutageBlock | None = None
    seed: int = 1234
    output: OutputBlock = field(default_factory=OutputBlock)

    def validate(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: must be {SCHEMA_VERSION}, got {self.schema_version}"
            )

    # conversions to domain objects ------------------------------------

    def geometry(self, rows: int | None = None, cols: int | None = None) -> SurfaceGeometry:
        s = self.surface
        lam = 299_792_458.0 / s.fc
        k_free = 2.0 * math.pi / lam
        return SurfaceGeometry(
            rows if rows is not None else s.M,
            cols if cols is not None else s.N,
            s.dx if s.dx is not None else lam / 2.0,
            s.dy if s.dy is not None else lam / 2.0,
            s.fc,
            s.substrate_index * k_free,
        )

    def reference_wave(self) -> ReferenceWaveSpec:
        r = self.reference
        return ReferenceWaveSpec(
            r.amplitude, 2.0 * math.pi * self.surface.fc, r.phase_offset, r.sign
        )

    def pulse(self) -> PulseSpec:
        l = self.link
        return PulseSpec(l.symbol_period, l.rolloff)

    def manual_paths(self) -> PathSet:
        return PathSet(tuple(p.to_path() for p in self.channel.paths), "raw")

    def channel_config(self, seed: int = 0) -> ChannelConfig:
        c = self.channel
        profile_text = None
        if c.kind == "cdl_profile" and c.profile_path is not None:
            profile_text = FsPath(c.profile_path).read_text("utf-8")
        return ChannelConfig(
            kind=c.kind,
            L=c.L,
            k_factor_db=c.k_factor_db,
            max_delay=c.max_delay,
            delay_spread=c.delay_spread,
            theta_range=tuple(math.radians(v) for v in c.theta_range_deg),
            phi_range=tuple(math.radians(v) for v in c.phi_range_deg),
            rng_seed=seed,
            paths=tuple(p.to_path() for p in c.paths),
            profile_text=profile_text,
        )

    def scenario(
        self,
        system: str = "rrm",
        rows: int | None = None,
        cols: int | None = None,
        **overrides,
    ) -> LinkScenario:
        base = dict(
            geom=self.geometry(rows, cols),
            ref=self.reference_wave(),
            pulse=self.pulse(),
            channel=self.channel_config(self.seed),
            system=system,
            strategy=self.weights.strategy,
            user_amplitude=self.recording.user_amplitude,
            recording_snr_db=self.recording.snr_db,
            duration_symbols=self.recording.duration_symbols,
            samples_per_symbol=self.recording.samples_per_symbol,
            tx_power=self.link.tx_power,
            normalization=self.link.normalization,
            K=self.link.K,
        )
        base.update(overrides)
        return LinkScenario(**base)

    def fingerprint(self) -> str:
        canonical = json.dumps(_to_jsonable(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------
# generic dict <-> dataclass machinery with dotted-path error reporting


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _coerce(value, hint, path: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: must not be null")
        non_none = [a for a in args if a is not type(None)]
        return _coerce(value, non_none[0], path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: must be a list")
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{path}: must have exactly {len(args)} entries")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: must be an integer")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be a finite number")
        return number
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: must be a string")
        return value
    raise ConfigError(f"{path}: unsupported value")


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            sub = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _coerce(data[f.name], hints[f.name], sub)
    try:
        obj = cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None
    return obj


def _validate_tree(obj, path: str):
    if dataclasses.is_dataclass(obj):
        validator = getattr(obj, "validate", None)
        if validator is not None:
            try:
                validator()
            except ConfigError as exc:
                raise ConfigError(f"{path}.{exc}" if path else str(exc)) from None
        for f in dataclasses.fields(obj):
            sub = f"{path}.{f.name}" if path else f.name
            _validate_tree(getattr(obj, f.name), sub)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _validate_tree(v, f"{path}[{i}]")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed JSON object."""
    cfg = _build(ExperimentConfig, data, "")
    _validate_tree(cfg, "")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Load, default-fill and validate a JSON experiment config.

    Raises:
        ConfigError: JSON syntax errors (with line and column), unknown keys,
            or schema violations (naming the offending key).
    """
    try:
        text = FsPath(path).read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write the fully resolved config as JSON (round-trips exactly)."""
    FsPath(path).write_text(
        json.dumps(_to_jsonable(cfg), indent=2, sort_keys=True) + "\n", "utf-8"
    )
