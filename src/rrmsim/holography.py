"""Interference-power recording and holographic weight synthesis.

The surface records, per element, the time-averaged power of the sum of the
incident user waves and a locally fed reference wave. Rotating that power
matrix by 180 degrees about the surface center (``reindex``) turns it into
amplitude weights whose useful component radiates back along the incident
paths when the surface is excited by the same reference wave. Subtracting a
constant before normalization (``make_weights``) suppresses the sidelobes
contributed by the power matrix's direction-independent terms.

``rhs_weights`` implements the baseline that skips recording entirely and
computes weights from known directions and gains (perfect CSI).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import PathSet
from .surface import (
    ComplexField,
    Direction,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    steering_field,
)

WEIGHT_STRATEGIES = ("none", "mean", "min")


@dataclass(frozen=True)
class RecordingConfig:
    """Uplink recording parameters.

    Attributes:
        user_amplitude: transmit amplitude A_u of the user signal.
        noise_power: variance (per complex sample) of the additive noise at
            each element sensor. 0 gives the exact closed-form power matrix.
        duration_symbols: recording duration as a multiple of the symbol time.
        samples_per_symbol: sensor samples taken per symbol time.
        rng_seed: seed for the noise stream; the recorded matrix is
            bit-reproducible for a fixed (seed, config, scenario).
    """

    user_amplitude: float = 1.0
    noise_power: float = 0.0
    duration_symbols: int = 5
    samples_per_symbol: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.user_amplitude < 0:
            raise ValueError("user amplitude must be nonnegative")
        if self.noise_power < 0:
            raise ValueError("noise power must be nonnegative")
        if self.duration_symbols < 1 or self.samples_per_symbol < 1:
            raise ValueError("recording needs at least one sample")

    @property
    def num_samples(self) -> int:
        return self.duration_symbols * self.samples_per_symbol


def noise_power_for_snr(
    snr_db: float | None, user_amplitude: float, paths: PathSet
) -> float:
    """Noise variance giving the requested recording SNR.

    Recording SNR is defined as A_u^2 * sum_i |gain_i|^2 / noise_power.
    None means noise-free recording.
    """
    if snr_db is None:
        return 0.0
    signal = user_amplitude**2 * paths.total_power()
    return signal / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class Hologram:
    """Recorded M x N interference-power matrix plus its provenance."""

    values: np.ndarray = field(repr=False)
    geometry: SurfaceGeometry | None = None
    config: RecordingConfig | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("hologram must be a 2-D matrix")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("hologram entries must be finite and nonnegative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class WeightMatrix:
    """Post-processed amplitude weights in [0, 1].

    b_used and rho_used record the exact subtraction constant and
    normalization factor. ``clipped`` marks that negative entries were
    forced to zero; ``degenerate`` marks an all-zero result.
    """

    values: np.ndarray = field(repr=False)
    b_used: float
    rho_used: float
    strategy: str
    clipped: bool = False
    degenerate: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < 0) or np.any(v > 1 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        if self.rho_used <= 0:
            raise ValueError("rho_used must be positive")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def record_hologram(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    paths: PathSet,
    cfg: RecordingConfig,
) -> Hologram:
    """Record the interference power matrix at complex baseband.

    Per element, the deterministic baseband sample is

        c = A_u * sum_i gain_i * exp(-j*omega_r*delay_i) * steer_i
            + A_r * exp(j*phase_offset) * ref_phase

    and the recorded entry is the mean of |c + z_k|^2 over
    duration_symbols * samples_per_symbol samples, z_k i.i.d. circular
    complex Gaussian with variance noise_power (independent per element).
    With zero noise the entry is exactly |c|^2.
    """
    if len(paths) == 0:
        raise ValueError("recording needs at least one incident path")
    if ref.amplitude <= 0:
        raise ValueError("recording needs a positive reference amplitude")

    user = cfg.user_amplitude * object_field(geom, paths, ref).values
    reference = np.exp(1j * ref.phase_offset) * reference_field(geom, ref).values
    carrier = user + reference

    if cfg.noise_power == 0.0:
        power = np.abs(carrier) ** 2
        return Hologram(power, geom, cfg)

    n_samples = cfg.num_samples
    rng = np.random.Generator(np.random.Philox(cfg.rng_seed))
    scale = math.sqrt(cfg.noise_power / 2.0)
    shape = (geom.rows, geom.cols, n_samples)
    noise = rng.normal(0.0, scale, size=shape) + 1j * rng.normal(0.0, scale, size=shape)
    power = np.mean(np.abs(carrier[:, :, None] + noise) ** 2, axis=2)
    return Hologram(power, geom, cfg)


def reindex(matrix: np.ndarray) -> np.ndarray:
    """180-degree rotation about the grid center: out(m,n) = in(M-m+1, N-n+1).

    Returns a copy; involutive and entry-preserving.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("reindex expects a 2-D matrix")
    return m[::-1, ::-1].copy()


def make_weights(holo: Hologram, strategy: str = "mean") -> WeightMatrix:
    """Reindex the recorded power matrix and map it to weights in [0, 1].

    The constant to subtract is 0 ("none"), the mean ("mean") or the minimum
    ("min") of the reindexed matrix; negatives after subtraction are forced
    to zero; the result is scaled so its maximum is 1.

    A matrix that is all zero after subtraction (e.g. a constant hologram
    under "mean") is returned as all-zero weights with rho_used = 1 and the
    degenerate flag set.
    """
    if strategy not in WEIGHT_STRATEGIES:
        raise ValueError(f"strategy must be one of {WEIGHT_STRATEGIES}, got {strategy!r}")
    w_prime = reindex(holo.values)
    if strategy == "none":
        b = 0.0
    elif strategy == "mean":
        b = float(np.mean(w_prime))
    else:
        b = float(np.min(w_prime))
    shifted = w_prime - b
    clipped = bool(np.any(shifted < 0))
    shifted = np.maximum(shifted, 0.0)
    peak = float(np.max(shifted))
    if peak <= 0.0:
        warnings.warn(
            "weight matrix is all zero after constant subtraction", RuntimeWarning
        )
        return WeightMatrix(
            np.zeros_like(shifted), b, 1.0, strategy, clipped=clipped, degenerate=True
        )
    rho = 1.0 / peak
    return WeightMatrix(shifted * rho, b, rho, strategy, clipped=clipped)


def reconstruct_field(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, weights_raw: np.ndarray
) -> ComplexField:
    """Field radiated by raw (reindexed, un-subtracted) weights: E_r * W'.

    Elementwise product of the reference field with the raw weight matrix.
    For a noise-free recording of paths with real gains and zero delays this
    decomposes exactly into a constant-times-reference term, the
    conjugate-object term |E_r|^2 * conj(E_o) that carries the beams, a
    cross-path term and a reference-squared term.
    """
    w = np.asarray(weights_raw, dtype=float)
    if w.shape != geom.shape:
        raise ValueError(f"weights shape {w.shape} does not match grid {geom.shape}")
    return ComplexField(reference_field(geom, ref).values * w)


def reconstruction_terms(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, paths: PathSet
) -> dict[str, np.ndarray]:
    """The four term groups of the reconstructed field, each built directly.

    Independent of ``reconstruct_field``: every group is assembled from the
    constituent fields, not from the recorded power matrix. Their sum equals
    reconstruct_field(geom, ref, reindex(|E_o + E_r|^2)) exactly when all
    composite path gains (gain * exp(-j*omega_r*delay)) are real.

    Returns:
        dict with keys "constant", "conjugate_object", "cross_path",
        "reference_squared": M x N complex arrays.
    """
    e_r = reference_field(geom, ref).values
    e_o = object_field(geom, paths, ref).values
    a_c = ref.amplitude**2 + paths.total_power()
    return {
        "constant": a_c * e_r,
        "conjugate_object": np.abs(e_r) ** 2 * np.conj(e_o),
        "cross_path": _cross_path_sum(geom, ref, paths) * e_r,
        "reference_squared": e_o * e_r**2,
    }


def _cross_path_sum(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, paths: PathSet
) -> np.ndarray:
    """sum over i != j of e_i * conj(e_j), e_i the incident field of path i."""
    gains = paths.carrier_gains(ref.angular_frequency)
    per_path = [g * steering_field(geom, p.direction) for g, p in zip(gains, paths.paths)]
    cross = np.zeros(geom.shape, dtype=complex)
    for i, ei in enumerate(per_path):
        for j, ej in enumerate(per_path):
            if i != j:
                cross += ei * np.conj(ej)
    return cross


def rhs_weights(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    desired: list[tuple[Direction, complex]],
) -> WeightMatrix:
    """Perfect-CSI baseline weights for a list of desired directions.

    For each desired direction the outgoing field profile is the conjugate
    of that direction's incident steering profile (a wave transmitted toward
    a direction conjugates the phase profile of a wave received from it).
    Directions are superposed with conjugated gains (maximum-ratio), the
    product with the conjugated reference field is taken, and the real part
    is mapped affinely from [-1, 1] to [0, 1]:

        weights = (Re[W_int] / max|Re[W_int]| + 1) / 2

    b_used is 0 and rho_used records the 1/max|Re| normalizer.
    """
    if not desired:
        raise ValueError("perfect-CSI weights need at least one desired direction")
    e_r = reference_field(geom, ref).values
    w_int = np.zeros(geom.shape, dtype=complex)
    for direction, gain in desired:
        outgoing = np.conj(steering_field(geom, direction))
        w_int += np.conj(gain) * outgoing
    w_int = w_int * np.conj(e_r)
    real = np.real(w_int)
    peak = float(np.max(np.abs(real)))
    if peak == 0.0:
        return WeightMatrix(np.full(geom.shape, 0.5), 0.0, 1.0, "none")
    return WeightMatrix((real / peak + 1.0) / 2.0, 0.0, 1.0 / peak, "none")


@dataclass(frozen=True)
class ReindexReport:
    """Max-norm residuals of the three reindexing identities."""

    object_conjugacy: float
    reference_symmetry: float
    expansion: float

    def max_residual(self) -> float:
        return max(self.object_conjugacy, self.reference_symmetry, self.expansion)

    def passed(self, tol: float = 1e-10) -> bool:
        return self.max_residual() < tol


def verify_reindexing_identities(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, paths: PathSet
) -> ReindexReport:
    """Numerically check the identities behind reindexing reconstruction.

    1. The reindexed incident field equals its elementwise conjugate.
    2. The reindexed reference field equals itself.
    3. The reindexed noise-free power matrix equals its five-group expansion
       (per-path powers + reference power + two conjugate cross terms +
       cross-path sum), every group built independently.

    The identities hold exactly when the composite path gains are real
    (complex gains rotate per-path phases, which moves no beam but breaks
    elementwise conjugation).
    """
    e_r = reference_field(geom, ref).values
    e_o = object_field(geom, paths, ref).values

    res_obj = float(np.max(np.abs(reindex(e_o) - np.conj(e_o))))
    res_ref = float(np.max(np.abs(reindex(e_r) - e_r)))

    power = np.abs(e_o + e_r) ** 2
    expansion = (
        paths.total_power()
        + np.abs(e_r) ** 2
        + np.conj(e_o) * np.conj(e_r)
        + e_o * e_r
        + _cross_path_sum(geom, ref, paths)
    )
    res_exp = float(np.max(np.abs(reindex(power) - expansion)))
    return ReindexReport(res_obj, res_ref, res_exp)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a real matrix as CSV, one matrix row per line, `%.17g` floats."""
    m = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by ``save_matrix_csv``."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [
            [float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return np.array(rows, dtype=float)
