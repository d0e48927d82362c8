"""Interference-power recording and holographic weight synthesis.

The surface records, per element, the time-averaged power of the sum of the
incident user waves and a locally fed reference wave. Rotating that power
matrix by 180 degrees about the surface center (``reindex``) turns it into
amplitude weights whose useful component radiates back along the incident
paths when the surface is excited by the same reference wave. Subtracting a
constant before normalization (``make_weights``) suppresses the sidelobes
contributed by the power matrix's direction-independent terms.

The user's transmit amplitude lives in the path gains: scaling A_r and every
gain by c (the noise power by c^2) scales the power matrix by c^2, which the
normalized weights undo, so only the gains' ratio to A_r shapes a hologram.

``rhs_weights`` implements the baseline that skips recording entirely and
computes weights from known directions and gains (perfect CSI).

``reconstruct_field`` is the field E_r * W' that the raw reindexed power
radiates, and ``reconstruction_terms`` builds its four term groups directly
from the paths. The reindexing identities are checked through the two, by
the invariant suite (``harness.invariants``) and the tests.

The formulas work on stacks: ``record_power`` and ``rhs_weight_stack``
take object fields (..., M, N), the ``surface.superpose`` of each trial's
paths, ``weight_stack`` takes power matrices (..., M, N), and each returns
(..., M, N) matrices, one per Monte-Carlo trial. A stack's recording noise
is zero for every matrix or positive for every matrix. ``record_hologram``,
``make_weights`` and ``rhs_weights`` are their single-matrix views and
return what the stacked functions return for one matrix: an (M, N) power
array, and a ``WeightStack`` with (M, N) values and 0-d b, rho, clipped and
degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import PathSet
from .surface import (
    Direction,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    reference_phase,
    steering_field,
    steering_stack,
    superpose,
)

WEIGHT_STRATEGIES = ("none", "mean", "min")

# Bytes of the block of imaginary noise parts that ``record_power`` draws and
# reduces while it is in cache; link.STACK_BYTES bounds the whole stack.
_BLOCK_BYTES = 256 * 2**10


@dataclass(frozen=True)
class RecordingConfig:
    """Uplink recording parameters.

    Attributes:
        noise_power: variance (per complex sample) of the additive noise at
            each element sensor. 0 gives the exact closed-form power matrix.
        duration_symbols: recording duration in symbol times; the sensor
            takes one sample per symbol time.
        rng_seed: seed for the noise stream; the recorded matrix is
            bit-reproducible for a fixed (seed, config, scenario).
    """

    noise_power: float = 0.0
    duration_symbols: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        check_recording(self.duration_symbols)
        if self.noise_power < 0:
            raise ValueError(f"noise_power: must be nonnegative, got {self.noise_power}")

    @property
    def num_samples(self) -> int:
        return self.duration_symbols


def check_recording(duration_symbols: int) -> None:
    """The rule on the recording field that ``RecordingConfig`` and ``LinkScenario`` share.

    Raises ValueError as "<field>: <reason>".
    """
    if duration_symbols < 1:
        raise ValueError(f"duration_symbols: must be >= 1, got {duration_symbols}")


def noise_power_for_snr(snr_db: float | None, paths):
    """Noise variance giving the requested recording SNR.

    Recording SNR is defined as sum_i |gain_i|^2 / noise_power.
    None means noise-free recording. ``paths`` is a PathSet (a float is
    returned) or a stack of ``PathArrays`` (one variance per realization).
    """
    if snr_db is None:
        return 0.0
    return paths.total_power() / 10.0 ** (snr_db / 10.0)


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
    field = object_field(geom, paths)
    return record_power(geom, ref, field, cfg.noise_power, cfg.num_samples, [cfg.rng_seed])


def record_power(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    field: np.ndarray,
    noise_power,
    num_samples: int,
    seeds,
) -> np.ndarray:
    """(..., M, N) recorded power matrices of a stack of object fields (..., M, N).

    A path set's field is sum_i gain_i * exp(-j*omega_r*delay_i) * steer_i
    (``surface.superpose``); per element, the baseband sample adds the reference,

        c = field + A_r * exp(j*phase_offset) * ref_phase

    and the recorded entry is the mean of |c + z_k|^2 over num_samples
    samples, z_k i.i.d. circular complex Gaussian with variance noise_power
    (independent per element). With zero noise the entry is exactly |c|^2.

    noise_power broadcasts over the leading shape and is either zero for
    every matrix (the stack is recorded exactly) or positive for every
    matrix; a stack that mixes zero and positive entries, or holds a
    negative one, raises ValueError. seeds holds one seed per matrix, in C
    order of the leading shape. Each matrix of a noisy stack draws from
    its own Philox stream seeded with its seed: one (M, N, S) array of
    standard normals for the real parts x, then one for the imaginary parts
    y, each scaled by sqrt(noise_power / 2); reordering them would change
    every noisy hologram. The real parts of all matrices are drawn
    into one (..., M, N, S) stack. The imaginary parts are then drawn in
    blocks of about _BLOCK_BYTES, whole matrices per block when one fits
    and row ranges of one matrix otherwise, each stream continuing where it
    stopped. While a block is in cache, the power is accumulated in float64
    as (Re c + x)^2 + (Im c + y)^2 and its samples are added in the order
    ``np.mean`` adds them: in sequence when S < 8, pairwise by
    ``np.add.reduce`` otherwise. So the result is ``np.mean`` of the
    unblocked stack bit for bit. c and its reference are formed a block at
    a time, so no complex array is held beside the field; the imaginary block holds
    min(stack, _BLOCK_BYTES): a stack larger than the block is held once,
    while a smaller one (e.g. ten 8x8 trials) is held twice, as it was
    before blocking.
    """
    def carrier(e, rows=slice(None)):  # e + the reference on those rows, as reference_field
        return e + np.exp(1j * ref.phase_offset) * (ref.amplitude * reference_phase(geom)[rows])

    noise = np.broadcast_to(np.asarray(noise_power, dtype=float), field.shape[:-2]).ravel()
    if not np.any(noise):
        return np.abs(carrier(field)) ** 2
    if not np.all(noise > 0.0):
        raise ValueError("noise_power: must be zero for every matrix or positive for every matrix")

    e = field.reshape((-1,) + geom.shape)
    T, M, N = e.shape
    S = num_samples
    acc = np.empty(e.shape + (S,))
    rngs = [np.random.Generator(np.random.Philox(int(seeds[t]))) for t in range(T)]
    for rng, x in zip(rngs, acc):
        rng.standard_normal(out=x)
    scale = np.sqrt(noise / 2.0)[:, None, None, None]
    # A block is per_block whole matrices when one fits, else rows of one.
    rows = max(1, min(M, _BLOCK_BYTES // (8 * N * S)))
    per_block = max(1, min(T, _BLOCK_BYTES // (8 * M * N * S)))
    imag = np.empty((per_block, rows, N, S))
    mean = np.empty(e.shape)
    for t0 in range(0, T, per_block):
        t1 = min(T, t0 + per_block)
        for m0 in range(0, M, rows):
            m1 = min(M, m0 + rows)
            x = acc[t0:t1, m0:m1]
            y = imag[: t1 - t0, : m1 - m0]
            for rng, part in zip(rngs[t0:t1], y):
                rng.standard_normal(out=part)
            c = carrier(e[t0:t1, m0:m1], slice(m0, m1))
            x *= scale[t0:t1]
            x += c.real[..., None]
            np.square(x, out=x)
            y *= scale[t0:t1]
            y += c.imag[..., None]
            np.square(y, out=y)
            x += y
            out = mean[t0:t1, m0:m1]
            # numpy's pairwise sum adds fewer than 8 terms in order; the
            # slab sums are ~4x faster than np.add.reduce over the short axis.
            if S < 8:
                np.copyto(out, x[..., 0])
                for k in range(1, S):
                    out += x[..., k]
            else:
                np.add.reduce(x, axis=-1, out=out)
            out /= S
    return mean.reshape(field.shape)


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

    The single-matrix view of ``weight_stack``: an all-zero result is
    marked only by ``degenerate``. A power matrix that is not 2-D, finite
    and nonnegative raises ValueError.
    """
    power = np.asarray(power, dtype=float)
    if power.ndim != 2 or not np.all(np.isfinite(power)) or np.any(power < 0):
        raise ValueError(f"power: must be finite, nonnegative and 2-D, got shape {power.shape}")
    return weight_stack(power, strategy)


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
    e_o = object_field(geom, paths)
    a_c = ref.amplitude**2 + paths.total_power()
    return {
        "constant": a_c * e_r,
        "conjugate_object": np.abs(e_r) ** 2 * np.conj(e_o),
        "cross_path": _cross_path_sum(geom, paths) * e_r,
        "reference_squared": e_o * e_r**2,
    }


def _cross_path_sum(
    geom: SurfaceGeometry, paths: PathSet
) -> np.ndarray:
    """sum over i != j of e_i * conj(e_j), e_i the incident field of path i."""
    gains = paths.carrier_gains(geom.angular_frequency)
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
    return rhs_weight_stack(geom, ref, superpose(*steering_stack(geom, theta, phi), gains))


def rhs_weight_stack(
    geom: SurfaceGeometry, ref: ReferenceWaveSpec, field: np.ndarray
) -> WeightStack:
    """Perfect-CSI weights for a stack of object fields (..., M, N).

    For each desired direction the outgoing field profile is the conjugate
    of that direction's incident steering profile (a wave transmitted toward
    a direction conjugates the phase profile of a wave received from it).
    Directions are superposed with conjugated gains (maximum-ratio), the
    product with the conjugated reference field is taken, and the real part
    is mapped affinely from [-1, 1] to [0, 1]:

        weights = (Re[W_int] / max|Re[W_int]| + 1) / 2

    with W_int = conj(field) * conj(E_r), field the ``superpose`` of the
    desired directions and gains. b is 0 and rho records the 1/max|Re|
    normalizer; an all-zero W_int gives weights of 0.5 with rho = 1.
    """
    # Re(conj(a) conj(b)) = Re(a b) bit for bit: conj only flips signs
    real = np.real(field * reference_field(geom, ref))
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

