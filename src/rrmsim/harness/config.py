"""Declarative JSON experiment configs with strict validation.

An empty JSON object resolves to the standard scenario: a 32x32 surface at
30 GHz with half-wavelength spacing and substrate index sqrt(3), reference
amplitude 2, five fixed incident paths with unit gains, recording at
10 dB SNR for 5 symbol periods, mean-subtracted weights, unit radiated
power and a 64-symbol block with rolloff 0.25.

Unknown keys and non-finite numbers (JSON ``NaN``, ``1e999``) are rejected,
and every schema violation names the offending key with its full dotted
path. Every numeric leaf has one row in ``LEAF_RULES``: its range, or the
reason it has no upper end. Each block built from JSON is checked against
its rows by one helper (``_check_leaves``), after the block's own rules,
which are only those that are not a range: the string choices, the
angle-range ordering, a nonempty profile path, the manual paths' count and
total power. Together they imply every rule of the domain objects a config
builds, so loading catches no domain error: it only maps the ``ProfileError``
of the cluster table that its ``ChannelConfig`` reads and parses when built
to ``channel.profile_path`` (a relative path resolves against the working
directory). A ``ValueError`` from a domain object of a loaded config is a
library bug, not a config error.
``load_config(save_config(cfg))`` returns an equal config, field for field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from ..channel import CHANNEL_KINDS, ChannelConfig, Path, PathSet, ProfileError
from ..holography import WEIGHT_STRATEGIES
from ..link import NORMALIZATIONS, LinkScenario, PulseSpec
from ..surface import SPEED_OF_LIGHT, Direction, ReferenceWaveSpec, SurfaceGeometry

SCHEMA_VERSION = 5


class ConfigError(ValueError):
    """Config parsing or schema failure (exit code 2 at the CLI)."""


class Rule(typing.NamedTuple):
    """The load rule of one numeric leaf: lo <= value <= hi.

    ``open_lo`` leaves lo (then 0) out. A symmetric range [-hi, hi] bounds
    the magnitude, as a dB value when the unit is dB. ``why`` says why a
    leaf has no upper end (hi = inf).
    """

    lo: float = -math.inf
    hi: float = math.inf
    unit: str = ""
    open_lo: bool = False
    why: str = ""

    def check(self, name: str, value) -> None:
        """Raise ValueError("<name>: <reason>") unless value keeps the rule."""
        if self.lo < value <= self.hi or value == self.lo and not self.open_lo:
            return
        if self.hi == math.inf:
            reason = "must be positive" if self.open_lo else f"must be >= {self.lo:g}"
        elif self.lo != -self.hi:
            reason = f"must lie in {'(' if self.open_lo else '['}{self.lo:g}, {self.hi:g}]"
        elif self.unit == "dB":
            reason = f"linear value of {value} dB is out of range; |dB| must be <= {self.hi:g}"
            raise ValueError(f"{name}: {reason}")
        else:
            reason = f"|{name}| must be <= {self.hi:g}"
        raise ValueError(f"{name}: {reason}, got {value}")


_SIZE_REASON = "a size: memory grows with it, and no load rule bounds memory yet (ROADMAP item 12)"

# One row per numeric leaf; "[]" marks a list entry. docs/config.md derives
# each bound: the dB ends keep 10^(dB/10) finite once a sweep multiplies it
# by signal powers and eigenvalues; the amplitude ends (A = 1e4) keep the
# path-to-reference ratio resolved and the recording finite; the physical
# ends keep every phase (k_free*x, k_sub*d, omega*tau) and pulse lag finite
# and resolved on up to 1e4 elements a side.
LEAF_RULES = {
    "surface.M": Rule(1, 1e4, "elements"),
    "surface.N": Rule(1, 1e4, "elements"),
    "surface.fc": Rule(1e6, 1e13, "Hz"),
    "surface.substrate_index": Rule(1.0, 100.0),
    "surface.dx": Rule(1e-9, 1e3, "m"),
    "surface.dy": Rule(1e-9, 1e3, "m"),
    "reference.amplitude": Rule(1e-8, 1e8),
    "reference.phase_offset": Rule(unit="rad", why="enters only as a unit phasor exp(j*offset)"),
    "recording.snr_db": Rule(-300.0, 300.0, "dB"),
    "recording.duration_symbols": Rule(1, unit="symbols", why=_SIZE_REASON),
    "channel.L": Rule(1, unit="paths", why=_SIZE_REASON),
    "channel.k_factor_db": Rule(-300.0, 300.0, "dB"),
    "channel.max_delay": Rule(0.0, 1e-3, "s", open_lo=True),
    "channel.delay_spread": Rule(0.0, 1e-3, "s", open_lo=True),
    "channel.paths[].theta_deg": Rule(0.0, 90.0, "deg"),
    "channel.paths[].phi_deg": Rule(unit="deg", why="wrapped into [0, 360) before use"),
    "channel.paths[].gain_real": Rule(-1e4, 1e4),
    "channel.paths[].gain_imag": Rule(-1e4, 1e4),
    "channel.paths[].delay": Rule(0.0, 1e-3, "s"),
    "link.K": Rule(1, unit="symbols", why=_SIZE_REASON),
    "link.rolloff": Rule(0.0, 1.0),
    "link.symbol_period": Rule(1e-12, 1.0, "s"),
    "link.snr_db[]": Rule(-300.0, 300.0, "dB"),
    "outage.r_th": Rule(0.0, unit="bits/symbol", open_lo=True, why="only compared with MI values"),
    "outage.trials": Rule(1, unit="trials", why=_SIZE_REASON),
    "seed": Rule(0, why="any nonnegative integer seeds a SeedSequence"),
}


def _check_leaves(block, key: str) -> None:
    """Check each numeric field of a block at dotted key against its ``LEAF_RULES`` row.

    Raises ValueError as "<field>: <reason>", or "<field>[<i>]: <reason>" for
    a list entry. None (half-wavelength spacing, no recording noise) has no rule.
    """
    prefix = re.sub(r"\[\d+\]", "[]", key) + "." if key else ""
    for f in dataclasses.fields(block):
        row, value = prefix + f.name, getattr(block, f.name)
        if row + "[]" in LEAF_RULES:
            for i, entry in enumerate(value):
                LEAF_RULES[row + "[]"].check(f"{f.name}[{i}]", entry)
        elif row in LEAF_RULES and value is not None:
            LEAF_RULES[row].check(f.name, value)


@dataclass(frozen=True)
class PathSpec:
    """One manually configured propagation path (angles in degrees)."""

    theta_deg: float
    phi_deg: float
    gain_real: float = 1.0
    gain_imag: float = 0.0
    delay: float = 0.0

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


@dataclass(frozen=True)
class ReferenceBlock:
    # Amplitude 2 keeps the recorded power matrix's constant term moderate:
    # large enough that mean subtraction visibly helps small surfaces, small
    # enough that the mean/min strategies converge at large ones.
    amplitude: float = 2.0
    phase_offset: float = 0.0

    def __post_init__(self):
        if not self.amplitude > 0:  # before its row: 0 says "must be positive", not the range
            raise ValueError(f"amplitude: must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class RecordingBlock:
    snr_db: float | None = 10.0  # None records without noise
    duration_symbols: int = 5


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

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError("kind: must be manual, rician_random or cdl_profile")
        lo, hi = self.theta_range_deg
        if not 0.0 <= lo <= hi <= 90.0:
            raise ValueError(f"theta_range_deg: must satisfy 0 <= lo <= hi <= 90, got [{lo}, {hi}]")
        if self.phi_range_deg[0] > self.phi_range_deg[1]:
            raise ValueError(f"phi_range_deg: must satisfy lo <= hi, got {self.phi_range_deg}")
        if self.profile_path == "":
            raise ValueError("profile_path: must be nonempty")
        if self.kind == "manual" and not self.paths:
            raise ValueError("paths: manual channel needs at least one path")
        if self.paths:  # fig5 to fig8 record these paths whatever the kind
            power = sum(p.gain_real**2 + p.gain_imag**2 for p in self.paths)
            floor = LEAF_RULES["channel.paths[].gain_real"].hi ** -2  # 1/A^2
            if not power >= floor:
                raise ValueError(f"paths: total power must be >= {floor:g}, got {power}")


@dataclass(frozen=True)
class WeightsBlock:
    strategy: str = "mean"

    def __post_init__(self):
        if self.strategy not in WEIGHT_STRATEGIES:
            raise ValueError(f"strategy: must be one of {WEIGHT_STRATEGIES}, got {self.strategy!r}")


@dataclass(frozen=True)
class LinkBlock:
    K: int = 64
    rolloff: float = 0.25
    symbol_period: float = 1.0e-8
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    normalization: str = "normalized"

    def __post_init__(self):
        if not self.snr_db:
            raise ValueError("snr_db: must be a nonempty list")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError("normalization: must be normalized or absolute")


@dataclass(frozen=True)
class OutageBlock:
    r_th: float = 2.0
    trials: int = 2000


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"

    def __post_init__(self):
        if not self.directory:
            raise ValueError("directory: must be nonempty")


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    surface: SurfaceBlock = field(default_factory=SurfaceBlock)
    reference: ReferenceBlock = field(default_factory=ReferenceBlock)
    recording: RecordingBlock = field(default_factory=RecordingBlock)
    channel: ChannelBlock = field(default_factory=ChannelBlock)
    weights: WeightsBlock = field(default_factory=WeightsBlock)
    link: LinkBlock = field(default_factory=LinkBlock)
    outage: OutageBlock = field(default_factory=OutageBlock)
    seed: int = 1234
    output: OutputBlock = field(default_factory=OutputBlock)

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"schema_version: must be {SCHEMA_VERSION}, got {self.schema_version}")

    # conversions to domain objects ------------------------------------

    def geometry(self, rows: int | None = None, cols: int | None = None) -> SurfaceGeometry:
        s = self.surface
        lam = SPEED_OF_LIGHT / s.fc
        return SurfaceGeometry(
            rows if rows is not None else s.M,
            cols if cols is not None else s.N,
            s.dx if s.dx is not None else lam / 2.0,
            s.dy if s.dy is not None else lam / 2.0,
            s.fc,
            s.substrate_index,
        )

    def reference_wave(self) -> ReferenceWaveSpec:
        r = self.reference
        return ReferenceWaveSpec(r.amplitude, r.phase_offset)

    def pulse(self) -> PulseSpec:
        l = self.link
        return PulseSpec(l.symbol_period, l.rolloff)

    def manual_paths(self) -> PathSet:
        return PathSet(self.channel_config.paths)

    @functools.cached_property
    def channel_config(self) -> ChannelConfig:
        """The channel's domain object, built once per config and shared by its scenarios."""
        c = self.channel
        return ChannelConfig(
            kind=c.kind,
            L=c.L,
            k_factor_db=c.k_factor_db,
            max_delay=c.max_delay,
            delay_spread=c.delay_spread,
            theta_range=tuple(math.radians(v) for v in c.theta_range_deg),
            phi_range=tuple(math.radians(v) for v in c.phi_range_deg),
            paths=tuple(p.to_path() for p in c.paths),
            profile_path=c.profile_path,
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
            channel=self.channel_config,
            system=system,
            strategy=self.weights.strategy,
            recording_snr_db=self.recording.snr_db,
            duration_symbols=self.recording.duration_symbols,
            normalization=self.link.normalization,
            K=self.link.K,
        )
        base.update(overrides)
        return LinkScenario(**base)

    def fingerprint(self) -> str:
        return json_fingerprint(_to_jsonable(self))


def json_fingerprint(data: dict) -> str:
    """First 12 hex digits of the SHA-256 of a ``_to_jsonable`` config's sorted-key JSON."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()[:12]


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


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per block class


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object")
    hints = _type_hints(cls)  # one hint per field
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            sub = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _coerce(data[f.name], hints[f.name], sub)
    try:
        block = cls(**kwargs)
        _check_leaves(block, path)
    except ValueError as exc:  # "<field>: <reason>" from the block's own rules or its leaf rows
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from None
    return block


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object and validate it.

    Each block is checked as it is built (its own rules, then its
    ``LEAF_RULES`` rows); building its ``channel_config`` then parses a
    cdl_profile table, so a malformed row fails as ``channel.profile_path: line <n>: ...``
    and an unreadable file as the same ``OSError`` subclass with that prefix.
    """
    cfg = _build(ExperimentConfig, data, "")
    try:
        cfg.channel_config  # reads and parses a cdl_profile table now
    except ProfileError as exc:
        raise ConfigError(f"channel.profile_path: {exc}") from None
    except OSError as exc:
        raise type(exc)(f"channel.profile_path: {exc}") from None
    return cfg


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def merge_config(config: ExperimentConfig | None, *layers: dict | None) -> ExperimentConfig:
    """config (defaults when None) with each layer merged over it in turn, validated once.

    A layer is a nested dict of JSON config keys; nested objects merge key
    by key, anything else replaces. None and empty layers are skipped.
    """
    data = _to_jsonable(config) if config is not None else {}
    for layer in layers:
        if layer:
            data = _deep_merge(data, layer)
    return config_from_dict(data)


def load_config(path) -> ExperimentConfig:
    """Load, default-fill and validate a JSON experiment config.

    Raises:
        ConfigError: JSON syntax errors (with line and column), unknown keys,
            or schema violations (naming the offending key).
        OSError: an unreadable ``channel.profile_path``, its message prefixed by that key.
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
