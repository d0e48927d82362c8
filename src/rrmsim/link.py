"""Downlink baseband model: pulse shaping, equivalent taps, block MI, outage.

The weighted surface, excited by the modulated reference wave, reaches the
user through the same resolvable paths that were recorded. Each path
contributes one complex equivalent amplitude (an exact sum over elements);
root-raised-cosine transmit/receive filtering turns the path delays into
discrete-time taps h[l] through the composite raised-cosine pulse evaluated
at fractional offsets, at exactly the 2K-1 lags -(K-1)..K-1 that a K-symbol
block reads. The filter pair is never sampled: ``raised_cosine`` is its
closed form, and ``PulseSpec`` holds only the rolloff and symbol period.
The block sees a Toeplitz channel matrix, white noise (identity noise
filter at symbol-rate RRC sampling), and

    MI = (1/K) * log2 det(I + gamma * H * H^H)

bits per symbol. Outage is the Monte-Carlo fraction of channel realizations
whose MI falls below a threshold rate.

Monte-Carlo trials run as stacks. ``draw_trials`` gives each trial its
own seeded path draw, in the order of one ``sample_paths`` call, into (T, L)
arrays, and the 64-bit Philox seed of its recording noise. ``stack_mi``
splits a (T, L) stack into chunks of ``chunk_trials`` trials, which keeps
each (T, K, K) and (T, M, N, S) stack within STACK_BYTES (16 MiB), and
carries each chunk through ``weight_stack_for`` (recorded or perfect-CSI
weights), ``alpha_stack``, ``tap_stack`` (one ``raised_cosine`` call) and a
(T, K, K) stack of the blocks' Gram matrices into one ``eigvalsh`` call and
one (T, n_snr) MI expression. In normalized mode the taps of each block are
scaled to unit average receive power before any matrix is formed, so no
later step knows the mode. Every MI sweep is ``stack_mi``, and every
outage sweep ``stack_outage``, of one stack per curve: seeded draws, or a
manual path set broadcast over its recording seeds. ``alpha_taps``,
``equivalent_taps`` and ``build_toeplitz`` are single-block views of the
same functions, as ``holography.record_hologram`` and ``make_weights``
are of ``record_power`` and ``weight_stack``; the weight views take the
one-matrix ``WeightStack`` that ``make_weights`` and ``rhs_weights`` return.

An outage sweep needs only the bit MI < r_th of each block and SNR.
``stack_outage`` runs the chunks of ``stack_mi`` and decides most bits from
two bounds read off the taps: Hadamard's upper bound from the diagonal of
H H^H, and a lower bound from the concavity of log2(1 + gamma lambda) on an
eigenvalue range [lam_min, lam_max] that the taps bound. A bound decides a
pair when it clears r_th by a margin larger than the rounding of the bounds
and of the eigen MI. The remaining pairs take a batched Cholesky
log-determinant, and the few whose value lies within the margin of r_th
take the eigen MI itself, so every bit equals ``stack_mi(...) < r_th``.
Sweeps summarise MI samples with ``mean_ci`` and outage bits with
``outage_ci``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelConfig, PathArrays, PathSet, draw_paths
from .holography import (
    RecordingConfig,
    WeightStack,
    check_recording,
    noise_power_for_snr,
    record_power,
    rhs_weight_stack,
    weight_stack,
)
from .surface import (
    ReferenceWaveSpec,
    SurfaceGeometry,
    reference_phase,
    steering_field,
    steering_stack,
)

# Bytes that one Monte-Carlo chunk may spend on each of its (T, K, K) complex
# and (T, M, N, S) float stacks; trials per chunk follow from it.
STACK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class PulseSpec:
    """Root-raised-cosine transmit/receive filter pair, used through ``raised_cosine``."""

    symbol_period: float = 1.0e-8
    rolloff: float = 0.25

    def __post_init__(self):
        if self.symbol_period <= 0:
            raise ValueError(f"symbol_period: must be positive, got {self.symbol_period}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff: must lie in [0, 1], got {self.rolloff}")


def raised_cosine(t_symbols, rolloff: float) -> np.ndarray:
    """Closed-form composite (transmit * receive) pulse at real lags.

    w(t) = sinc(t) * cos(pi*a*t) / (1 - (2*a*t)^2) with t in symbol periods;
    w(0) = 1 and w(k) = 0 at nonzero integer lags (zero ISI). The removable
    singularity at |t| = 1/(2a) takes its limit value.
    """
    t = np.asarray(t_symbols, dtype=float)
    a = rolloff
    if a == 0.0:
        return np.sinc(t)
    edge = 1.0 / (2.0 * a)
    # np.isclose(|t|, edge) at its default tolerances, without its overhead
    rest = ~(np.abs(np.abs(t) - edge) <= 1e-8 + 1e-5 * edge)
    out = np.full(t.shape, (math.pi / 4.0) * np.sinc(edge))
    num = np.sinc(t) * np.cos(math.pi * a * t)
    return np.divide(num, 1.0 - (2.0 * a * t) ** 2, out=out, where=rest)


def alpha_taps(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: WeightStack,
    paths: PathSet,
) -> np.ndarray:
    """Per-path equivalent amplitudes of one weight matrix; the view of ``alpha_stack``."""
    return alpha_stack(geom, ref, weights.values, paths.arrays)


def alpha_stack(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: np.ndarray,
    paths: PathArrays,
) -> np.ndarray:
    """(..., L) equivalent amplitudes of weight stacks (..., M, N) via the exact per-element sum.

    alpha_i = A_tx * sum_{m,n} W(m,n) * beta(m,n) * gain_i
              * steer_i(m,n) * exp(-j*omega_r*delay_i)

    with beta the unit-amplitude reference phase profile and A_tx chosen so
    the total radiated power sum_{m,n} (A_tx * W(m,n))^2 is 1; all-zero
    weights radiate nothing (A_tx = 0, so every alpha_i is 0).
    The steering field of path i is separable, steer_i = ax_i ay_i^T (see
    ``steering_stack``), so all L sums are sum_m ax * ((W * beta) @ ay): one
    (M, N) x (N, L) product per matrix and no per-path M x N map.
    """
    den = np.sum(weights**2, axis=(-2, -1))
    a_tx = np.sqrt(1.0 / np.where(den > 0.0, den, np.inf))
    beta = reference_phase(geom)
    ax, ay = steering_stack(geom, paths.theta, paths.phi)
    sums = np.sum(ax * ((weights * beta) @ ay), axis=-2)
    return a_tx[..., None] * paths.carrier_gains(ref.angular_frequency) * sums


def alpha_taps_split(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: WeightStack,
    paths: PathSet,
    recording: RecordingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path amplitudes decomposed into dominant and residual components.

    Expands the weight matrix into its recording term groups (constant minus
    offset, the two conjugate reference cross terms, the cross-path sum) and
    accumulates each group's contribution separately, so this never forms
    the weight matrix itself. The dominant component is the one that sums
    coherently over all M*N elements; everything else is residual. Their sum
    equals ``alpha_taps`` output.

    Only valid when the algebraic form W = rho*(W' - b) holds exactly, i.e.
    for a noise-free recording whose subtraction clipped nothing.

    Returns:
        (dominant, residual) complex arrays of length L.
    """
    if recording.noise_power != 0.0:
        raise ValueError("term-group split requires a noise-free recording")
    if weights.clipped:
        raise ValueError("term-group split is invalid once negatives were clipped")

    den = float(np.sum(weights.values**2))
    a_tx = math.sqrt(1.0 / den) if den > 0.0 else 0.0  # as alpha_stack
    rho = float(weights.rho)
    b = float(weights.b)
    a_u = recording.user_amplitude
    a_r = ref.amplitude
    phi = ref.phase_offset

    beta = reference_phase(geom)
    steer = [steering_field(geom, p.direction) for p in paths.paths]
    g = paths.carrier_gains(ref.angular_frequency)
    L = len(paths)
    const = a_r**2 + a_u**2 * paths.total_power()

    dominant = np.zeros(L, dtype=complex)
    residual = np.zeros(L, dtype=complex)
    scale = a_tx * rho
    for i in range(L):
        mode_i = beta * steer[i]
        # constant group (includes the -b offset)
        residual[i] += scale * (const - b) * g[i] * np.sum(mode_i)
        for j in range(L):
            # reference cross term carrying the conjugated incident profile
            coherent = (
                scale
                * a_u
                * a_r
                * np.exp(-1j * phi)
                * g[j]
                * g[i]
                * np.sum(np.conj(steer[j]) * steer[i])
            )
            if j == i:
                dominant[i] += coherent  # sums to M*N per element pair
            else:
                residual[i] += coherent
            # opposite-conjugate cross term, curvature-spoiled by beta^2
            residual[i] += (
                scale
                * a_u
                * a_r
                * np.exp(1j * phi)
                * np.conj(g[j])
                * g[i]
                * np.sum(steer[j] * steer[i] * beta**2)
            )
            # incident cross-path terms
            for k in range(L):
                if k == j:
                    continue
                residual[i] += (
                    scale
                    * a_u**2
                    * g[k]
                    * np.conj(g[j])
                    * g[i]
                    * np.sum(np.conj(steer[k]) * steer[j] * beta * steer[i])
                )
    return dominant, residual


def equivalent_taps(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: WeightStack,
    paths: PathSet,
    pulse: PulseSpec,
    K: int,
) -> np.ndarray:
    """Equivalent discrete-time taps of the weighted surface on a K-symbol block.

    ``tap_stack`` of the ``alpha_taps`` amplitudes: the 2K-1 taps at lags
    -(K-1)..K-1 that a K x K Toeplitz block reads; lag l is h[K-1+l].
    """
    if K < 1:
        raise ValueError("block length K must be >= 1")
    if len(paths) == 0:
        raise ValueError("tap synthesis needs at least one path")
    alpha = alpha_taps(geom, ref, weights, paths)
    return tap_stack(alpha, paths.arrays.delay, pulse, K)


def tap_stack(alpha: np.ndarray, delays: np.ndarray, pulse: PulseSpec, K: int) -> np.ndarray:
    """(..., 2K-1) taps h[l] = sum_i alpha_i * w(l - delay_i / T_s) from (..., L) paths.

    The lags are l = -(K-1)..K-1, lag l at h[..., K-1+l]. w is the
    closed-form composite raised-cosine pulse, evaluated at real arguments
    so fractional delays need no resampling, in one call for the whole
    stack; no tap in the window is truncated.
    """
    lags = np.arange(-(K - 1), K)[:, None]
    t = lags - (delays / pulse.symbol_period)[..., None, :]
    return (raised_cosine(t, pulse.rolloff) @ alpha[..., None])[..., 0]


def build_toeplitz(h) -> np.ndarray:
    """K x K Toeplitz block H[i, j] = h[K-1 + i-j] from the taps at lags -(K-1)..K-1."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1 or h.size % 2 == 0:
        raise ValueError("taps must be a 1-D array of odd length 2K-1")
    return _toeplitz(h)


def _toeplitz(h: np.ndarray) -> np.ndarray:
    """(..., K, K) Toeplitz blocks gathered from (..., 2K-1) taps."""
    return h[..., _toeplitz_index((h.shape[-1] + 1) // 2)]


@functools.lru_cache(maxsize=8)
def _toeplitz_index(K: int) -> np.ndarray:
    """Read-only (K, K) tap indices K-1 + i-j of a Toeplitz block."""
    idx = np.subtract.outer(np.arange(K), np.arange(K)) + (K - 1)
    idx.flags.writeable = False
    return idx


def _gram(H: np.ndarray) -> np.ndarray:
    """H H^H of each matrix of a (..., K, K) stack."""
    return H @ np.swapaxes(H.conj(), -1, -2)


def _gram_stack(h: np.ndarray) -> np.ndarray:
    """(..., K, K) Gram matrices H H^H of the Toeplitz blocks of (..., 2K-1) taps.

    Each block is gathered on its own and its product written into the
    preallocated stack, so the stack of blocks and of their conjugates is
    never held: at the Monte-Carlo chunk sizes those temporaries cost more
    in fresh memory pages than the products themselves.
    """
    K = (h.shape[-1] + 1) // 2
    G = np.empty(h.shape[:-1] + (K, K), dtype=complex)
    for idx in np.ndindex(h.shape[:-1]):
        H = _toeplitz(h[idx])
        np.matmul(H, H.conj().T, out=G[idx])
    return G


def _eigvals(G: np.ndarray) -> np.ndarray:
    """(..., K) eigenvalues of Gram matrices, one eigvalsh call, negatives rounded up to 0."""
    return np.clip(np.linalg.eigvalsh(G), 0.0, None)


def _mi_bits(lam: np.ndarray, gammas) -> np.ndarray:
    """(..., n) values of (1/K) * sum_k log2(1 + gamma * lambda_k) for the n gammas.

    lam holds the K eigenvalues of H H^H on its last axis.
    """
    gammas = np.asarray(gammas, dtype=float)
    terms = np.log2(1.0 + gammas[:, None] * lam[..., None, :])
    return np.sum(terms, axis=-1) / lam.shape[-1]


def mutual_information(H: np.ndarray, gamma: float, method: str = "eig") -> float:
    """Block mutual information (1/K) * log2 det(I + gamma * H * H^H) in bits.

    "eig" sums log2(1 + gamma * lambda_k) over the eigenvalues of H H^H;
    "logdet" evaluates the determinant directly. Both agree to 1e-9 relative
    and exist so each can check the other.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("H contains non-finite entries")
    if gamma < 0:
        raise ValueError("snr must be nonnegative")
    if method == "eig":
        return float(_mi_bits(_eigvals(_gram(H)), [gamma])[0])
    if method == "logdet":
        k = H.shape[0]
        sign, logdet = np.linalg.slogdet(np.eye(k) + gamma * (H @ H.conj().T))
        if sign <= 0:
            raise ArithmeticError("determinant of I + gamma*H*H^H must be positive")
        return float(logdet / math.log(2.0) / k)
    raise ValueError(f"unknown method {method!r}")


def gamma_from_db(snr_db: float) -> float:
    """Linear SNR from dB; -inf maps to exactly 0."""
    if snr_db == -math.inf:
        return 0.0
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class LinkScenario:
    """Everything needed to realize an end-to-end downlink channel.

    system "rrm" records a hologram per realization (noise per the recording
    settings) and derives weights with ``strategy``; system "rhs" computes
    perfect-CSI weights from the realized paths directly. normalization
    "normalized" rescales H to unit average receive power so the SNR axis is
    receive SNR; "absolute" keeps the physical scale of a unit radiated power
    (beamforming gain stays in H) and the SNR axis is transmit-referred.
    """

    geom: SurfaceGeometry
    ref: ReferenceWaveSpec
    pulse: PulseSpec
    channel: ChannelConfig
    system: str = "rrm"  # "rrm" | "rhs"
    strategy: str = "mean"
    user_amplitude: float = 1.0
    recording_snr_db: float | None = 10.0
    duration_symbols: int = 5
    normalization: str = "normalized"  # "normalized" | "absolute"
    K: int = 64

    def __post_init__(self):
        if self.system not in ("rrm", "rhs"):
            raise ValueError(f"system: must be rrm or rhs, got {self.system!r}")
        if self.normalization not in ("normalized", "absolute"):
            raise ValueError("normalization: must be normalized or absolute")
        if self.K < 1:
            raise ValueError(f"K: must be >= 1, got {self.K}")
        check_recording(self.user_amplitude, self.duration_symbols)


def weight_stack_for(scenario: LinkScenario, paths: PathArrays, seeds) -> WeightStack:
    """Weights of each realization of a (..., L) path stack; seeds as ``record_power``'s."""
    s = scenario
    if s.system == "rhs":
        gains = paths.carrier_gains(s.ref.angular_frequency)
        return rhs_weight_stack(s.geom, s.ref, paths.theta, paths.phi, gains)
    return weight_stack(recorded_power(s, paths, seeds), s.strategy)


def recorded_power(scenario: LinkScenario, paths: PathArrays, seeds) -> np.ndarray:
    """(..., M, N) power matrices recorded from a (..., L) path stack per the scenario.

    The noise power of each realization gives the scenario's recording SNR
    (``noise_power_for_snr``; None records without noise); seeds as
    ``record_power``'s.
    """
    s = scenario
    noise = noise_power_for_snr(s.recording_snr_db, s.user_amplitude, paths)
    return record_power(s.geom, s.ref, paths, s.user_amplitude, noise, s.duration_symbols, seeds)


def _scenario_taps(scenario: LinkScenario, paths: PathArrays, seeds) -> np.ndarray:
    """(..., 2K-1) block taps of a (..., L) path stack: weights, amplitudes, taps, normalization."""
    s = scenario
    if paths.gain.shape[-1] == 0:
        raise ValueError("tap synthesis needs at least one path")
    weights = weight_stack_for(s, paths, seeds).values
    alpha = alpha_stack(s.geom, s.ref, weights, paths)
    h = tap_stack(alpha, paths.delay, s.pulse, s.K)
    return _normalize_taps(h) if s.normalization == "normalized" else h


def _normalize_taps(h: np.ndarray) -> np.ndarray:
    """(..., 2K-1) taps scaled so that each block has (1/K) trace(H H^H) = 1.

    Lag l fills K - |l| entries of the Toeplitz block H, so that trace is
    sum_l (K - |l|) |h_l|^2, summed per block; dividing the taps divides H.
    All-zero taps stay zero: a block that receives nothing has MI 0.
    """
    K = (h.shape[-1] + 1) // 2
    fill = K - np.abs(np.arange(1 - K, K))
    mean_power = np.sum(fill * (h.real**2 + h.imag**2), axis=-1) / K
    return h / np.sqrt(np.where(mean_power > 0.0, mean_power, 1.0))[..., None]


def stack_mi(scenario: LinkScenario, paths: PathArrays, seeds, snr_db_list) -> np.ndarray:
    """(T, n_snr) MI in bits per symbol of each block of a (T, L) path stack.

    Block t records with seeds[t] (rrm). The blocks run in chunks of
    ``chunk_trials(scenario)``; each chunk is one (T, K, K) Gram stack and
    one ``eigvalsh`` call, and a block's MI does not depend on the chunk it
    falls in. A block whose weights or taps are all zero receives nothing
    and has MI 0.
    """
    gammas = [gamma_from_db(snr) for snr in snr_db_list]
    out = np.empty((len(seeds), len(gammas)))
    for chunk, h in _chunk_taps(scenario, paths, seeds):
        G = _gram_stack(h)
        out[chunk] = _mi_bits(_eigvals(G), gammas)
    return out


def stack_outage(
    scenario: LinkScenario, paths: PathArrays, seeds, snr_db_list, r_th: float
) -> np.ndarray:
    """(T, n_snr) outage bits: ``stack_mi(...) < r_th``, element for element.

    The blocks run in the chunks of ``stack_mi`` and get the same taps. Two
    bounds read off each block's taps decide most bits without a Gram
    matrix (``_outage_bounds``); only blocks with an undecided SNR get one,
    and only pairs whose MI lies within the rounding margin of r_th reach
    ``eigvalsh`` (``_outage_bits``). A block that receives nothing (all-zero
    weights or taps) has MI 0, as in ``stack_mi``, so its bit is set for
    every r_th > 0.
    """
    gammas = np.array([gamma_from_db(snr) for snr in snr_db_list])
    out = np.empty((len(seeds), gammas.size), dtype=bool)
    for chunk, h in _chunk_taps(scenario, paths, seeds):
        out[chunk] = _outage_bits(h, gammas, r_th)
    return out


def _chunk_taps(scenario: LinkScenario, paths: PathArrays, seeds):
    """(slice, (t, 2K-1) taps) of each ``chunk_trials`` chunk of a (T, L) path stack."""
    step = chunk_trials(scenario)
    for start in range(0, len(seeds), step):
        chunk = slice(start, start + step)
        taps = _scenario_taps(scenario, PathArrays(*(c[chunk] for c in paths)), seeds[chunk])
        yield chunk, taps


def _tap_spectrum(h: np.ndarray):
    """(diag, lam_min, lam_max) of the Gram matrices H H^H of (T, 2K-1) taps, from the taps alone.

    diag[:, k] = sum_{i=k}^{k+K-1} |h[i]|^2 (direct window sums) is the
    diagonal of H H^H. H is h_0 I plus the other lags' shift matrices, each
    of norm <= 1, weighted by their taps; with e = sum_{l != 0} |h_l|, every
    singular value of H lies in [|h_0| - e, |h_0| + e] (Weyl), so every
    eigenvalue of H H^H lies in [lam_min, lam_max] with
    lam_min = max(|h_0| - e, 0)^2 and lam_max = (sum |h|)^2.
    """
    K = (h.shape[-1] + 1) // 2
    diag = sliding_window_view(h.real**2 + h.imag**2, K, axis=-1).sum(axis=-1)
    total = np.abs(h).sum(axis=-1)
    lam_min = np.maximum(2.0 * np.abs(h[:, K - 1]) - total, 0.0) ** 2
    return diag, lam_min, total**2


def _outage_bounds(h: np.ndarray, gammas: np.ndarray):
    """(upper, lower, lam_max): bounds on the (T, n) eigen MI of (T, 2K-1) taps.

    From ``_tap_spectrum``. With f(x) = log2(1 + gamma x):
    - Hadamard's inequality gives MI <= upper = (1/K) sum_k f(diag_k);
    - f is concave, so on [lam_min, lam_max] it lies above its chord, and
      the eigenvalues sum to sum(diag): MI >= lower, the chord's value at
      the mean eigenvalue sum(diag)/K. With lam_min = 0 this is
      sum(diag) / (K lam_max) * f(lam_max).
    For a single-tap block (H = h_0 I) both bounds equal f(|h_0|^2).
    """
    diag, lam_min, lam_max = _tap_spectrum(h)
    K = diag.shape[-1]
    mean = diag.sum(axis=-1) / K
    upper = np.sum(np.log2(1.0 + gammas[:, None] * diag[:, None, :]), axis=-1) / K
    spread = lam_max - lam_min
    weight = np.divide(mean - lam_min, spread, out=np.zeros_like(spread), where=spread > 0.0)
    f_min = np.log2(1.0 + gammas * lam_min[:, None])
    f_max = np.log2(1.0 + gammas * lam_max[:, None])
    lower = f_min + np.clip(weight, 0.0, 1.0)[:, None] * (f_max - f_min)
    return upper, lower, lam_max


def _outage_bits(h: np.ndarray, gammas: np.ndarray, r_th: float) -> np.ndarray:
    """(T, n) bits ``_mi_bits(_eigvals(_gram_stack(h)), gammas) < r_th``.

    A pair is out if its upper bound (``_outage_bounds``) is below
    r_th - m and not out if its lower bound is above r_th + m, with the
    margin m = 1e-9 + 1e-12 * gamma * lam_max bits. m exceeds the rounding
    of the bounds and of the eigen MI (eigenvalue errors are of order
    K * eps * lam_max, which moves each log term by at most
    gamma * K * eps * lam_max / ln 2), so a decided bit is the bit the eigen
    MI gives. Every other pair takes log det(I + gamma G) from a batched
    Cholesky factor of its block's Gram matrix, whose backward error is of
    the same order; a pair whose Cholesky MI still lies within m of r_th
    (or whose factorization failed) is decided by ``_mi_bits(_eigvals(G))``
    itself, on the block's ``_gram_stack`` matrix. So every bit equals the
    eigen MI's.
    """
    upper, lower, lam_max = _outage_bounds(h, gammas)
    margin = 1e-9 + 1e-12 * gammas * lam_max[:, None]
    bits = upper < r_th - margin
    undecided = ~bits & ~(lower > r_th + margin)
    rows = np.flatnonzero(undecided.any(axis=1))
    if rows.size == 0:
        return bits
    G = _gram_stack(h[rows])
    block, snr = np.nonzero(undecided[rows])
    mi = _cholesky_mi(G, block, gammas[snr])
    bits[rows[block], snr] = mi < r_th
    near = ~(np.abs(mi - r_th) > margin[rows[block], snr])  # NaN counts as near
    if np.any(near):
        block, snr = block[near], snr[near]
        solved, at = np.unique(block, return_inverse=True)
        exact = _mi_bits(_eigvals(G[solved]), gammas)
        bits[rows[block], snr] = exact[at, snr] < r_th
    return bits


def _cholesky_mi(G: np.ndarray, blocks: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """MI (1/K) log2 det(I + gammas[p] G[blocks[p]]) of each pair p; NaN where Cholesky fails.

    One ``cholesky`` call per STACK_BYTES of pairs; log det is twice the sum
    of the logs of the factor's diagonal.
    """
    K = G.shape[-1]
    step = max(1, STACK_BYTES // (16 * K * K))
    out = np.empty(blocks.size)
    for start in range(0, blocks.size, step):
        part = slice(start, start + step)
        A = G[blocks[part]]
        A *= gammas[part, None, None]
        A.reshape(-1, K * K)[:, :: K + 1] += 1.0  # + I
        try:
            factor = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            out[part] = np.nan
            continue
        out[part] = np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1).real), axis=-1)
    return out * (2.0 / (K * math.log(2.0)))


def chunk_trials(scenario: LinkScenario) -> int:
    """Trials per Monte-Carlo chunk: as many as keep each stack within STACK_BYTES."""
    s = scenario
    per_trial = 16 * s.K * s.K  # complex (K, K) Gram matrix
    if s.system == "rrm" and s.recording_snr_db is not None:
        per_trial = max(per_trial, 8 * s.geom.rows * s.geom.cols * s.duration_symbols)
    return max(1, STACK_BYTES // per_trial)


def _trial_seeds(seed: int, trials: int):
    """(path SeedSequence, recording seed) of each trial.

    Trial t uses the two children of child t of SeedSequence(seed), built
    directly from their spawn keys (t, 0) and (t, 1), as ``spawn`` makes them.
    """
    for t in range(trials):
        path_ss = np.random.SeedSequence(seed, spawn_key=(t, 0))
        rec_ss = np.random.SeedSequence(seed, spawn_key=(t, 1))
        yield path_ss, int(rec_ss.generate_state(1, np.uint64)[0])


def draw_trials(channel: ChannelConfig, trials: int, seed: int) -> tuple[PathArrays, list[int]]:
    """(trials, L) path draws and the recording seeds of ``trials`` Monte-Carlo trials.

    Trial t takes child t of SeedSequence(seed) and splits it in two: the
    first seeds a Generator for ``draw_paths`` (the draws of one
    ``sample_paths`` call, in its order), the second gives the 64-bit Philox
    seed of its recording noise. Results are therefore order-independent,
    and systems handed the same draws are paired trial by trial.
    """
    seeds = list(_trial_seeds(seed, trials))
    paths = draw_paths(channel, [np.random.default_rng(ss) for ss, _ in seeds])
    return paths, [rec_seed for _, rec_seed in seeds]


def trial_mi_curves(
    scenario: LinkScenario, snr_db_list, trials: int, seed: int
) -> np.ndarray:
    """(trials, n_snr) MI samples over channel realizations: ``stack_mi`` of ``draw_trials``."""
    paths, seeds = draw_trials(scenario.channel, trials, seed)
    return stack_mi(scenario, paths, seeds, snr_db_list)


def mean_ci(samples) -> tuple[float, float | None]:
    """Sample mean and its 95% normal half-width (z * s / sqrt(n)); None when n = 1.

    Equal samples give a half-width of exactly 0, not the rounding of their mean.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 1:
        half = None
    elif x.min() == x.max():
        half = 0.0
    else:
        half = 1.96 * float(np.std(x, ddof=1)) / math.sqrt(x.size)
    return float(np.mean(x)), half


def outage_ci(below) -> tuple[float, float]:
    """Fraction of true outage bits and its 95% binomial half-width."""
    below = np.asarray(below)
    p = float(np.mean(below))
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / below.size)
