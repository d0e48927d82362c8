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

``reconstruct_field`` is the field E_r * W' that the raw reindexed power
radiates, and ``reconstruction_terms`` builds its four term groups directly
from the paths. The reindexing identities are checked through the two, by
the invariant suite (``harness.invariants``) and the tests.

The formulas work on stacks: ``record_power``, ``weight_stack`` and
``rhs_weight_stack`` take path arrays of shape (..., L) and return
(..., M, N) matrices, one per Monte-Carlo trial. ``record_hologram``,
``make_weights`` and ``rhs_weights`` are their single-matrix views and
return what the stacked functions return for one matrix: an (M, N) power
array, and a ``WeightStack`` with (M, N) values and 0-d b, rho, clipped and
degenerate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import PathArrays, PathSet
from .surface import (
    Direction,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    steering_field,
    superpose,
)

WEIGHT_STRATEGIES = ("none", "mean", "min")


@dataclass(frozen=True)
class RecordingConfig:
    """Uplink recording parameters.

    Attributes:
        user_amplitude: transmit amplitude A_u of the user signal.
        noise_power: variance (per complex sample) of the additive noise at
            each element sensor. 0 gives the exact closed-form power matrix.
        duration_symbols: recording duration in symbol times; the sensor
            takes one sample per symbol time.
        rng_seed: seed for the noise stream; the recorded matrix is
            bit-reproducible for a fixed (seed, config, scenario).
    """

    user_amplitude: float = 1.0
    noise_power: float = 0.0
    duration_symbols: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        check_recording(self.user_amplitude, self.duration_symbols)
        if self.noise_power < 0:
            raise ValueError(f"noise_power: must be nonnegative, got {self.noise_power}")

    @property
    def num_samples(self) -> int:
        return self.duration_symbols


def check_recording(user_amplitude: float, duration_symbols: int) -> None:
    """The rules on the recording fields that ``RecordingConfig``, ``LinkScenario`` and the config share.

    Raises ValueError as "<field>: <reason>".
    """
    if user_amplitude < 0:
        raise ValueError(f"user_amplitude: must be nonnegative, got {user_amplitude}")
    if duration_symbols < 1:
        raise ValueError(f"duration_symbols: must be >= 1, got {duration_symbols}")


def noise_power_for_snr(snr_db: float | None, user_amplitude: float, paths):
    """Noise variance giving the requested recording SNR.

    Recording SNR is defined as A_u^2 * sum_i |gain_i|^2 / noise_power.
    None means noise-free recording. ``paths`` is a PathSet (a float is
    returned) or a stack of ``PathArrays`` (one variance per realization).
    """
    if snr_db is None:
        return 0.0
    signal = user_amplitude**2 * paths.total_power()
    return signal / 10.0 ** (snr_db / 10.0)


def record_hologram(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    paths: PathSet,
    cfg: RecordingConfig,
) -> np.ndarray:
    """Record the (M, N) interference power matrix at complex baseband.

    The single-recording view of ``record_power``; see there for the model
    and the noise stream.
    """
    return record_power(
        geom, ref, paths.arrays, cfg.user_amplitude, cfg.noise_power, cfg.num_samples,
        [cfg.rng_seed],
    )


def record_power(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    paths: PathArrays,
    user_amplitude: float,
    noise_power,
    num_samples: int,
    seeds,
) -> np.ndarray:
    """(..., M, N) recorded power matrices of a stack of path sets (..., L).

    Per element, the deterministic baseband sample is

        c = A_u * sum_i gain_i * exp(-j*omega_r*delay_i) * steer_i
            + A_r * exp(j*phase_offset) * ref_phase

    and the recorded entry is the mean of |c + z_k|^2 over num_samples
    samples, z_k i.i.d. circular complex Gaussian with variance noise_power
    (independent per element). With zero noise the entry is exactly |c|^2.

    noise_power broadcasts over the leading shape; seeds holds one seed per
    matrix, in C order of the leading shape. Each noisy matrix draws from
    its own Philox stream seeded with its seed: one (M, N, S) array of
    standard normals for the real parts x, then one for the imaginary parts
    y, each scaled by sqrt(noise_power / 2); reordering them would change
    every noisy hologram. The power is accumulated in float64 as
    (Re c + x)^2 + (Im c + y)^2, in place, so no complex (..., M, N, S)
    temporary is formed.
    """
    if paths.gain.shape[-1] == 0:
        raise ValueError("recording needs at least one incident path")
    if ref.amplitude <= 0:
        raise ValueError("recording needs a positive reference amplitude")
    reference = np.exp(1j * ref.phase_offset) * reference_field(geom, ref)

    gains = paths.carrier_gains(ref.angular_frequency)
    user = user_amplitude * superpose(geom, paths.theta, paths.phi, gains)
    carrier = user + reference
    flat = carrier.reshape((-1,) + geom.shape)
    noise = np.broadcast_to(np.asarray(noise_power, dtype=float), carrier.shape[:-2]).ravel()
    noisy = np.flatnonzero(noise != 0.0)
    if noisy.size == 0:
        return np.abs(carrier) ** 2

    every = noisy.size == noise.size
    c = flat if every else flat[noisy]
    acc = np.empty(c.shape + (num_samples,))
    imag = np.empty_like(acc)
    for i, t in enumerate(noisy):
        rng = np.random.Generator(np.random.Philox(int(seeds[t])))
        rng.standard_normal(out=acc[i])
        rng.standard_normal(out=imag[i])
    scale = np.sqrt(noise[noisy] / 2.0)[:, None, None, None]
    acc *= scale
    acc += c.real[..., None]
    np.square(acc, out=acc)
    imag *= scale
    imag += c.imag[..., None]
    np.square(imag, out=imag)
    acc += imag
    mean = np.mean(acc, axis=-1)
    if every:
        return mean.reshape(carrier.shape)
    power = np.abs(carrier) ** 2
    power.reshape(flat.shape)[noisy] = mean
    return power


def reindex(matrix: np.ndarray) -> np.ndarray:
    """180-degree rotation about the grid center: out(m,n) = in(M-m+1, N-n+1).

    Rotates each matrix of a (..., M, N) stack. Returns a contiguous copy;
    involutive and entry-preserving.
    """
    m = np.asarray(matrix)
    if m.ndim < 2:
        raise ValueError("reindex expects a matrix or a stack of matrices")
    return m[..., ::-1, ::-1].copy()


class WeightStack(NamedTuple):
    """Weights of a stack of recordings: values (..., M, N) and per-matrix scalars.

    b is the subtracted constant, rho the normalization factor, clipped
    marks that negatives were forced to zero and degenerate an all-zero
    result; each has the leading shape (...).
    """

    values: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    clipped: np.ndarray
    degenerate: np.ndarray


def weight_stack(power: np.ndarray, strategy: str = "mean") -> WeightStack:
    """Reindex recorded power matrices (..., M, N) and map each to weights in [0, 1].

    Per matrix, the constant to subtract is 0 ("none"), the mean ("mean")
    or the minimum ("min") of the reindexed matrix; negatives after
    subtraction are forced to zero; the result is scaled so its maximum is
    1. A matrix that is all zero after subtraction (e.g. a constant hologram
    under "mean") gives all-zero weights with rho = 1, marked degenerate.
    """
    if strategy not in WEIGHT_STRATEGIES:
        raise ValueError(f"strategy must be one of {WEIGHT_STRATEGIES}, got {strategy!r}")
    w_prime = reindex(power)  # contiguous: each mean adds in the reindexed order
    axes = (-2, -1)
    if strategy == "none":
        b = np.zeros(power.shape[:-2])
    elif strategy == "mean":
        b = np.mean(w_prime, axis=axes)
    else:
        b = np.min(w_prime, axis=axes)
    shifted = w_prime - b[..., None, None]
    clipped = np.any(shifted < 0, axis=axes)
    np.maximum(shifted, 0.0, out=shifted)
    peak = np.max(shifted, axis=axes)
    degenerate = peak <= 0.0
    rho = 1.0 / np.where(degenerate, 1.0, peak)
    values = np.where(degenerate[..., None, None], 0.0, shifted * rho[..., None, None])
    return WeightStack(values, b, rho, clipped, degenerate)


def make_weights(power: np.ndarray, strategy: str = "mean") -> WeightStack:
    """Reindex a recorded (M, N) power matrix and map it to weights in [0, 1].

    The single-matrix view of ``weight_stack``; an all-zero result also
    warns. A power matrix that is not 2-D, finite and nonnegative raises
    ValueError.
    """
    power = np.asarray(power, dtype=float)
    if power.ndim != 2 or not np.all(np.isfinite(power)) or np.any(power < 0):
        raise ValueError(f"power: must be finite, nonnegative and 2-D, got shape {power.shape}")
    weights = weight_stack(power, strategy)
    if weights.degenerate:
        warnings.warn(
            "weight matrix is all zero after constant subtraction", RuntimeWarning
        )
    return weights


def reconstruct_field(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, weights_raw: np.ndarray
) -> np.ndarray:
    """(M, N) field radiated by raw (reindexed, un-subtracted) weights: E_r * W'.

    Elementwise product of the reference field with the raw weight matrix.
    For a noise-free recording of paths with real gains and zero delays this
    decomposes exactly into a constant-times-reference term, the
    conjugate-object term |E_r|^2 * conj(E_o) that carries the beams, a
    cross-path term and a reference-squared term. Weights that do not
    match the grid or are not finite raise ValueError.
    """
    w = np.asarray(weights_raw, dtype=float)
    if w.shape != geom.shape:
        raise ValueError(f"weights shape {w.shape} does not match grid {geom.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights: must be finite")
    return reference_field(geom, ref) * w


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
    e_r = reference_field(geom, ref)
    e_o = object_field(geom, paths, ref)
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
) -> WeightStack:
    """Perfect-CSI baseline weights for a list of desired directions.

    The single-matrix view of ``rhs_weight_stack``.
    """
    if not desired:
        raise ValueError("perfect-CSI weights need at least one desired direction")
    theta = np.array([direction.theta for direction, _ in desired], dtype=float)
    phi = np.array([direction.phi for direction, _ in desired], dtype=float)
    gains = np.array([gain for _, gain in desired], dtype=complex)
    return rhs_weight_stack(geom, ref, theta, phi, gains)


def rhs_weight_stack(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    theta: np.ndarray,
    phi: np.ndarray,
    gains: np.ndarray,
) -> WeightStack:
    """Perfect-CSI weights for stacks of desired directions and gains (..., L).

    For each desired direction the outgoing field profile is the conjugate
    of that direction's incident steering profile (a wave transmitted toward
    a direction conjugates the phase profile of a wave received from it).
    Directions are superposed with conjugated gains (maximum-ratio), the
    product with the conjugated reference field is taken, and the real part
    is mapped affinely from [-1, 1] to [0, 1]:

        weights = (Re[W_int] / max|Re[W_int]| + 1) / 2

    with W_int = conj(superpose(theta, phi, gains)) * conj(E_r). b is 0 and
    rho records the 1/max|Re| normalizer; an all-zero W_int gives weights of
    0.5 with rho = 1.
    """
    e_r = reference_field(geom, ref)
    real = np.real(np.conj(superpose(geom, theta, phi, gains)) * np.conj(e_r))
    peak = np.max(np.abs(real), axis=(-2, -1))
    flat = peak == 0.0
    safe = np.where(flat, 1.0, peak)
    values = np.where(flat[..., None, None], 0.5, (real / safe[..., None, None] + 1.0) / 2.0)
    no = np.zeros(peak.shape, dtype=bool)
    return WeightStack(values, np.zeros(peak.shape), 1.0 / safe, no, no)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a real matrix as CSV, one matrix row per line, `%.17g` floats."""
    m = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

