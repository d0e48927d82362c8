"""Declarative JSON experiment configs with strict validation.

An empty JSON object resolves to the standard scenario: a 32x32 surface at
30 GHz with half-wavelength spacing and substrate index sqrt(3), reference
amplitude 2, unit user amplitude, five fixed incident paths, recording at
10 dB SNR for 5 symbol periods, mean-subtracted weights, unit radiated
power and a 64-symbol block with rolloff 0.25.

Unknown keys and non-finite numbers (JSON ``NaN``, ``1e999``) are rejected,
and every schema violation names the offending key with its full dotted
path. A value rule lives in the domain constructor that consumes the value;
``config_from_dict`` builds those objects once and maps their
``"<field>: <reason>"`` errors to dotted keys. The blocks check only rules
with no domain home. ``load_config(save_config(cfg))`` returns an equal
config, field for field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from ..channel import ChannelConfig, Path, PathSet, ProfileError, check_profile
from ..holography import WEIGHT_STRATEGIES, check_recording
from ..link import LinkScenario, PulseSpec
from ..surface import SPEED_OF_LIGHT, Direction, ReferenceWaveSpec, SurfaceGeometry

SCHEMA_VERSION = 4


class ConfigError(ValueError):
    """Config parsing or schema failure (exit code 2 at the CLI)."""


# Largest |dB| a config may hold. Linear values stay finite and nonzero to
# about 3082 dB, but a sweep multiplies them by signal powers and channel
# eigenvalues: 3082 dB in link.snr_db overflows the MI and -3100 dB in
# recording.snr_db the noise power, each mid-run.
_DB_LIMIT = 300.0

# Amplitude bound: user and reference amplitudes lie in [1/A, A], manual path
# gains have |real|, |imag| <= A and a total power sum |gain|^2 >= 1/A^2.
# Only the ratio rho = A_u * sqrt(sum |gain|^2) / A_r shapes a recording, and
# the bound keeps it within [1/A^3, ~A^3]. At A = 1e4 the user term then
# moves the recorded power by at least 1e-12 of itself, far above its
# rounding; at 1e-18 a mean or min subtraction left all-zero weights. The
# noise power A_u^2 * sum |gain|^2 / 10^(dB/10) stays below 1e47 at the
# -300 dB end of _DB_LIMIT, so recorded power and noise stay finite.
_AMPLITUDE_LIMIT = 1.0e4


def _check_db(key: str, db: float) -> None:
    """Reject a dB value beyond +-_DB_LIMIT."""
    if not abs(db) <= _DB_LIMIT:
        raise ValueError(
            f"{key}: linear value of {db} dB is out of range; |dB| must be <= {_DB_LIMIT:g}"
        )


def _check_amplitude(key: str, value: float) -> None:
    """Reject an amplitude outside [1/_AMPLITUDE_LIMIT, _AMPLITUDE_LIMIT]."""
    if not 1.0 / _AMPLITUDE_LIMIT <= value <= _AMPLITUDE_LIMIT:
        raise ValueError(
            f"{key}: must lie in [{1.0 / _AMPLITUDE_LIMIT:g}, {_AMPLITUDE_LIMIT:g}], got {value}"
        )


@dataclass(frozen=True)
class PathSpec:
    """One manually configured propagation path (angles in degrees)."""

    theta_deg: float
    phi_deg: float
    gain_real: float = 1.0
    gain_imag: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta_deg <= 90.0:
            raise ValueError(f"theta_deg: must lie in [0, 90], got {self.theta_deg}")
        for key, value in (("gain_real", self.gain_real), ("gain_imag", self.gain_imag)):
            if not abs(value) <= _AMPLITUDE_LIMIT:
                raise ValueError(f"{key}: |{key}| must be <= {_AMPLITUDE_LIMIT:g}, got {value}")
        self.to_path()  # Path checks the delay

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
        # ReferenceWaveSpec allows 0; a recording needs a reference to interfere with
        if self.amplitude <= 0:
            raise ValueError(f"amplitude: must be positive, got {self.amplitude}")
        _check_amplitude("amplitude", self.amplitude)


@dataclass(frozen=True)
class RecordingBlock:
    user_amplitude: float = 1.0
    snr_db: float | None = 10.0  # None records without noise
    duration_symbols: int = 5

    def __post_init__(self):
        _check_amplitude("user_amplitude", self.user_amplitude)
        if self.snr_db is not None:
            _check_db("snr_db", self.snr_db)
        check_recording(self.user_amplitude, self.duration_symbols)


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
        lo, hi = self.theta_range_deg
        if not 0.0 <= lo <= hi <= 90.0:
            raise ValueError(f"theta_range_deg: must satisfy 0 <= lo <= hi <= 90, got [{lo}, {hi}]")
        if self.phi_range_deg[0] > self.phi_range_deg[1]:
            raise ValueError(f"phi_range_deg: must satisfy lo <= hi, got {self.phi_range_deg}")
        if self.paths:  # fig5 to fig8 record these paths whatever the kind
            power = sum(p.gain_real**2 + p.gain_imag**2 for p in self.paths)
            if not power >= _AMPLITUDE_LIMIT**-2:
                raise ValueError(
                    f"paths: total power must be >= {_AMPLITUDE_LIMIT**-2:g}, got {power}"
                )


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
        for i, db in enumerate(self.snr_db):
            _check_db(f"snr_db[{i}]", db)


@dataclass(frozen=True)
class OutageBlock:
    r_th: float = 2.0
    trials: int = 2000

    def __post_init__(self):
        if self.r_th <= 0:
            raise ValueError(f"r_th: must be positive, got {self.r_th}")
        if self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")


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
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")

    # conversions to domain objects ------------------------------------

    def geometry(self, rows: int | None = None, cols: int | None = None) -> SurfaceGeometry:
        s = self.surface
        # fc <= 0 is SurfaceGeometry's to reject; only keep the division from failing first
        lam = SPEED_OF_LIGHT / s.fc if s.fc > 0 else math.inf
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
        return ReferenceWaveSpec(r.amplitude, 2.0 * math.pi * self.surface.fc, r.phase_offset)

    def pulse(self) -> PulseSpec:
        l = self.link
        return PulseSpec(l.symbol_period, l.rolloff)

    def manual_paths(self) -> PathSet:
        return PathSet(tuple(p.to_path() for p in self.channel.paths))

    @functools.cached_property
    def _profile_text(self) -> str | None:
        """Text of ``channel.profile_path``, read once per config (None: bundled table)."""
        c = self.channel
        if c.kind != "cdl_profile" or c.profile_path is None:
            return None
        try:
            return FsPath(c.profile_path).read_text("utf-8")
        except UnicodeDecodeError:
            raise ConfigError("channel.profile_path: not UTF-8") from None

    def channel_config(self) -> ChannelConfig:
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
            profile_text=self._profile_text,
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
            channel=self.channel_config(),
            system=system,
            strategy=self.weights.strategy,
            user_amplitude=self.recording.user_amplitude,
            recording_snr_db=self.recording.snr_db,
            duration_symbols=self.recording.duration_symbols,
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


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per block class


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object")
    hints = _type_hints(cls)
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
        return cls(**kwargs)
    except ValueError as exc:  # "<field>: <reason>" from the block's own rules
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from None


_KEY_RENAMES = {"rows": "M", "cols": "N", "k_sub": "substrate_index"}  # domain field -> key


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object and validate it.

    Builds each domain object the sweeps use once; a constructor's
    ``"<field>: <reason>"``, where <field> is one of that object's fields,
    becomes ``ConfigError("<block>.<key>: <reason>")``. Any other
    ValueError is not a rule on a config value and propagates unchanged. A
    cdl_profile table is read and parsed here too, so a malformed row fails
    as ``channel.profile_path: line <n>: ...``.
    """
    cfg = _build(ExperimentConfig, data, "")
    for block, make, domain in (
        ("surface", cfg.geometry, SurfaceGeometry),
        ("reference", cfg.reference_wave, ReferenceWaveSpec),
        ("channel", cfg.channel_config, ChannelConfig),
        ("link", cfg.pulse, PulseSpec),
        ("link", cfg.scenario, LinkScenario),
    ):
        try:
            make()
        except ConfigError:
            raise
        except ValueError as exc:
            key, _, reason = str(exc).partition(": ")
            if key not in _field_names(domain):
                raise
            raise ConfigError(f"{block}.{_KEY_RENAMES.get(key, key)}: {reason}") from None
    try:
        check_profile(cfg.channel_config())
    except ProfileError as exc:
        raise ConfigError(f"channel.profile_path: {exc}") from None
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
    data = _to_jsonable(config if config is not None else ExperimentConfig())
    for layer in layers:
        if layer:
            data = _deep_merge(data, layer)
    return config_from_dict(data)


@functools.cache
def _field_names(cls) -> frozenset:
    return frozenset(f.name for f in dataclasses.fields(cls))


def load_config(path) -> ExperimentConfig:
    """Load, default-fill and validate a JSON experiment config.

    Raises:
        ConfigError: JSON syntax errors (with line and column), unknown keys,
            or schema violations (naming the offending key).
        OSError: an unreadable ``channel.profile_path``.
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
