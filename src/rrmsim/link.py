"""Downlink baseband model: pulse shaping, equivalent taps, block MI, outage.

The weighted surface, excited by the modulated reference wave, reaches the
user through the same resolvable paths that were recorded. Each path
contributes one complex equivalent amplitude (an exact sum over elements);
root-raised-cosine transmit/receive filtering turns the path delays into
discrete-time taps h[l] through the composite raised-cosine pulse evaluated
at fractional lags. A K-symbol block then sees a Toeplitz channel matrix,
white noise (identity noise filter at symbol-rate RRC sampling), and

    MI = (1/K) * log2 det(I + gamma * H * H^H)

bits per symbol. Outage is the Monte-Carlo fraction of channel realizations
whose MI falls below a threshold rate. Every MI/outage sweep evaluates its
blocks with ``block_mi`` and summarises trials with ``mean_ci`` or
``outage_ci``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelConfig, PathSet, sample_paths
from .holography import (
    RecordingConfig,
    WeightMatrix,
    make_weights,
    noise_power_for_snr,
    record_hologram,
    rhs_weights,
)
from .surface import ReferenceWaveSpec, SurfaceGeometry, reference_field, steering_field

TAP_TRUNCATION = 1e-6
MAX_TAP_RADIUS_SYMBOLS = 600


@dataclass(frozen=True)
class PulseSpec:
    """Root-raised-cosine transmit/receive filter pair."""

    symbol_period: float = 1.0e-8
    rolloff: float = 0.25
    span_symbols: int = 10
    samples_per_symbol: int = 8

    def __post_init__(self):
        if self.symbol_period <= 0:
            raise ValueError("symbol period must be positive")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError("rolloff must lie in [0, 1]")
        if self.span_symbols < 4:
            raise ValueError("filter span must be at least 4 symbols")
        if self.samples_per_symbol < 1:
            raise ValueError("samples_per_symbol must be >= 1")


def _rrc_closed_form(t: np.ndarray, a: float) -> np.ndarray:
    """Root-raised-cosine impulse response at times t (symbol periods)."""
    if a == 0.0:
        return np.sinc(t)
    taps = np.zeros(t.shape)
    at_zero = np.isclose(t, 0.0)
    taps[at_zero] = 1.0 - a + 4.0 * a / math.pi
    at_sing = np.isclose(np.abs(t), 1.0 / (4.0 * a)) & ~at_zero
    taps[at_sing] = (a / math.sqrt(2.0)) * (
        (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * a))
        + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * a))
    )
    rest = ~(at_zero | at_sing)
    tr = t[rest]
    num = np.sin(math.pi * tr * (1.0 - a)) + 4.0 * a * tr * np.cos(
        math.pi * tr * (1.0 + a)
    )
    den = math.pi * tr * (1.0 - (4.0 * a * tr) ** 2)
    taps[rest] = num / den
    return taps


def _symbol_lag_isi(q: np.ndarray, sps: int, span: int) -> float:
    w = np.convolve(q, q)
    center = (w.size - 1) // 2
    lags = sps * np.arange(1, 2 * span + 1)
    return float(np.max(np.abs(w[center + lags])))


def rrc_impulse(pulse: PulseSpec) -> np.ndarray:
    """Unit-energy root-raised-cosine taps over +/- span_symbols.

    The taps evaluate the closed form on the grid
    (arange(n) - (n-1)/2) / samples_per_symbol with
    n = 2 * span_symbols * samples_per_symbol + 1, using the limit values
    at the two removable singularities (t = 0 and |t| = 1/(4*rolloff)).

    Truncating the tail mid-lobe leaves a residual correlation spike in the
    composite q*q at the span-boundary symbol lag (e.g. 3e-3 for span 10 at
    rolloff 0.25), so the outer tail is cosine-tapered, with the taper width
    searched over [0, span/2] to minimize the worst symbol-lag composite
    value. The interior of the pulse, including both singularity points, is
    never modified.
    """
    sps = pulse.samples_per_symbol
    span = pulse.span_symbols
    n = 2 * span * sps + 1
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    base = _rrc_closed_form(t, pulse.rolloff)

    best_isi = math.inf
    best = None
    for edge in np.arange(0.0, span / 2.0 + 0.25, 0.25):
        taper = np.ones(n)
        if edge > 0.0:
            outer = np.abs(t) > span - edge
            taper[outer] = 0.5 * (
                1.0 + np.cos(math.pi * (np.abs(t[outer]) - (span - edge)) / edge)
            )
        q = base * taper
        q = q / math.sqrt(float(np.sum(q**2)))
        isi = _symbol_lag_isi(q, sps, span)
        if isi < best_isi:
            best_isi, best = isi, q
    return best


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
    out = np.empty(t.shape, dtype=float)
    sing = np.isclose(np.abs(t), 1.0 / (2.0 * a))
    out[sing] = (math.pi / 4.0) * np.sinc(1.0 / (2.0 * a))
    rest = ~sing
    tr = t[rest]
    out[rest] = np.sinc(tr) * np.cos(math.pi * a * tr) / (1.0 - (2.0 * a * tr) ** 2)
    return out


def _support_radius(rolloff: float, threshold: float = TAP_TRUNCATION) -> int:
    """Smallest integer radius beyond which |w| stays under the threshold."""
    grid = np.arange(0.0, MAX_TAP_RADIUS_SYMBOLS, 0.125)
    w = np.abs(raised_cosine(grid, rolloff))
    above = np.nonzero(w >= threshold)[0]
    if above.size == 0:
        return 1
    return min(int(math.ceil(grid[above[-1]])) + 1, MAX_TAP_RADIUS_SYMBOLS)


@dataclass(frozen=True)
class LinkChannel:
    """Equivalent discrete-time channel for one scenario.

    taps maps integer lag l to h[l]; ``build_toeplitz`` turns them into the
    K x K block matrix. alpha_pairs holds per-path (dominant, residual)
    components of the equivalent amplitudes; the pair sums to the exact
    per-path amplitude.
    """

    taps: dict[int, complex] = field(repr=False)
    alpha_pairs: tuple[tuple[complex, complex], ...]

    def alpha(self) -> np.ndarray:
        """Per-path equivalent amplitudes (dominant + residual)."""
        return np.array([a + b for a, b in self.alpha_pairs], dtype=complex)


def alpha_taps(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: WeightMatrix,
    paths: PathSet,
    tx_power: float = 1.0,
) -> np.ndarray:
    """Per-path equivalent amplitudes via the exact per-element sum.

    alpha_i = A_tx * sum_{m,n} W(m,n) * beta(m,n) * gain_i
              * steer_i(m,n) * exp(-j*omega_r*delay_i)

    with beta the unit-amplitude reference phase profile and A_tx chosen so
    the total radiated power sum_{m,n} (A_tx * W(m,n))^2 equals tx_power.
    """
    w = weights.values
    den = float(np.sum(w**2))
    if den <= 0.0:
        raise ValueError("all-zero weights give a degenerate channel")
    a_tx = math.sqrt(tx_power / den)
    beta = reference_field(geom, ref).values / ref.amplitude
    out = np.zeros(len(paths), dtype=complex)
    gains = paths.carrier_gains(ref.angular_frequency)
    for i, (g, p) in enumerate(zip(gains, paths.paths)):
        out[i] = a_tx * g * np.sum(w * beta * steering_field(geom, p.direction))
    return out


def alpha_taps_split(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights: WeightMatrix,
    paths: PathSet,
    recording: RecordingConfig,
    tx_power: float = 1.0,
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
    if den <= 0.0:
        raise ValueError("all-zero weights give a degenerate channel")
    a_tx = math.sqrt(tx_power / den)
    rho = weights.rho_used
    b = weights.b_used
    a_u = recording.user_amplitude
    a_r = ref.amplitude
    phi = ref.phase_offset

    beta = reference_field(geom, ref).values / a_r
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
    weights: WeightMatrix,
    paths: PathSet,
    pulse: PulseSpec,
    tx_power: float = 1.0,
    recording: RecordingConfig | None = None,
) -> LinkChannel:
    """Equivalent discrete-time taps of the weighted surface over the paths.

    h[l] = sum_i alpha_i * w(l - delay_i / T_s) with w the closed-form
    composite raised-cosine pulse, evaluated at real arguments so fractional
    delays need no resampling. Lags where the pulse stays below 1e-6 for
    every path are dropped.

    When ``recording`` describes a noise-free recording whose weights kept
    the exact affine form, alpha_pairs carries the true dominant/residual
    split; otherwise the full amplitude is stored with a zero residual.
    """
    if len(paths) == 0:
        raise ValueError("tap synthesis needs at least one path")
    alpha = alpha_taps(geom, ref, weights, paths, tx_power)

    if (
        recording is not None
        and recording.noise_power == 0.0
        and not weights.clipped
        and not weights.degenerate
    ):
        dom, res = alpha_taps_split(geom, ref, weights, paths, recording, tx_power)
        pairs = tuple((complex(d), complex(r)) for d, r in zip(dom, res))
    else:
        pairs = tuple((complex(a), 0j) for a in alpha)

    delays_sym = paths.delays() / pulse.symbol_period
    radius = _support_radius(pulse.rolloff)
    l_min = int(math.floor(np.min(delays_sym))) - radius
    l_max = int(math.ceil(np.max(delays_sym))) + radius
    lags = np.arange(l_min, l_max + 1)
    h = np.zeros(lags.size, dtype=complex)
    keep = np.zeros(lags.size, dtype=bool)
    for a, d in zip(alpha, delays_sym):
        w = raised_cosine(lags - d, pulse.rolloff)
        h += a * w
        keep |= np.abs(w) >= TAP_TRUNCATION
    taps = {int(l): complex(v) for l, v, k in zip(lags, h, keep) if k}
    if not taps:
        taps = {0: 0j}
    return LinkChannel(taps, pairs)


def build_toeplitz(taps, K: int) -> np.ndarray:
    """K x K Toeplitz matrix with H[i, j] = h[i - j] (0 outside tap support)."""
    if K < 1:
        raise ValueError("block length K must be >= 1")
    if isinstance(taps, LinkChannel):
        taps = taps.taps
    lags = np.arange(-(K - 1), K)
    h = np.array([taps.get(int(l), 0j) for l in lags], dtype=complex)
    idx = np.subtract.outer(np.arange(K), np.arange(K)) + (K - 1)
    return h[idx]


def normalize_channel(H: np.ndarray) -> np.ndarray:
    """Scale H so that (1/K) * trace(H H^H) = 1 (unit average receive power)."""
    H = np.asarray(H, dtype=complex)
    k = H.shape[0]
    mean_power = float(np.real(np.trace(H @ H.conj().T))) / k
    if mean_power <= 0.0:
        raise ValueError("cannot normalize a zero channel matrix")
    return H / math.sqrt(mean_power)


def _gram_eigvals(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of H H^H, rounding negatives up to 0."""
    return np.clip(np.linalg.eigvalsh(H @ H.conj().T), 0.0, None)


def _mi_bits(lam: np.ndarray, gamma: float) -> float:
    """(1/K) * sum_k log2(1 + gamma * lambda_k) over the K eigenvalues of H H^H."""
    return float(np.sum(np.log2(1.0 + gamma * lam)) / lam.size)


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
        return _mi_bits(_gram_eigvals(H), gamma)
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
    receive SNR; "absolute" keeps the physical scale (beamforming gain stays
    in H) and the SNR axis is transmit-referred.
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
    samples_per_symbol: int = 1
    tx_power: float = 1.0
    normalization: str = "normalized"  # "normalized" | "absolute"
    K: int = 64

    def __post_init__(self):
        if self.system not in ("rrm", "rhs"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.normalization not in ("normalized", "absolute"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.tx_power <= 0:
            raise ValueError("tx_power must be positive")


def scenario_weights(
    scenario: LinkScenario, paths: PathSet, recording_seed: int = 0
) -> WeightMatrix:
    """Weights for one realization: recorded (rrm) or perfect-CSI (rhs)."""
    if scenario.system == "rhs":
        gains = paths.carrier_gains(scenario.ref.angular_frequency)
        desired = [(p.direction, g) for p, g in zip(paths.paths, gains)]
        return rhs_weights(scenario.geom, scenario.ref, desired)
    cfg = RecordingConfig(
        user_amplitude=scenario.user_amplitude,
        noise_power=noise_power_for_snr(
            scenario.recording_snr_db, scenario.user_amplitude, paths
        ),
        duration_symbols=scenario.duration_symbols,
        samples_per_symbol=scenario.samples_per_symbol,
        rng_seed=recording_seed,
    )
    holo = record_hologram(scenario.geom, scenario.ref, paths, cfg)
    return make_weights(holo, scenario.strategy)


def realize_block(
    scenario: LinkScenario, paths: PathSet, recording_seed: int = 0
) -> np.ndarray:
    """K x K channel matrix for one path realization, normalization applied."""
    weights = scenario_weights(scenario, paths, recording_seed)
    chan = equivalent_taps(
        scenario.geom, scenario.ref, weights, paths, scenario.pulse, scenario.tx_power
    )
    H = build_toeplitz(chan.taps, scenario.K)
    if scenario.normalization == "normalized":
        H = normalize_channel(H)
    return H


def block_mi(
    scenario: LinkScenario, paths: PathSet, recording_seed: int, snr_db_list
) -> np.ndarray:
    """MI in bits per symbol of one realized block at every SNR in snr_db_list."""
    lam = _gram_eigvals(realize_block(scenario, paths, recording_seed))
    return np.array([_mi_bits(lam, gamma_from_db(s)) for s in snr_db_list])


def _trial_seeds(seed: int, trials: int):
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        path_ss, rec_ss = child.spawn(2)
        yield path_ss, int(rec_ss.generate_state(1, np.uint64)[0])


def trial_mi_curves(
    scenario: LinkScenario, snr_db_list, trials: int, seed: int
) -> np.ndarray:
    """(trials, n_snr) mutual-information samples over channel realizations.

    Trial t draws its paths and recording noise from seeds derived
    deterministically from (seed, t), so results are order-independent and
    paired across systems that share the seed.
    """
    snr_db_list = list(snr_db_list)
    out = np.empty((trials, len(snr_db_list)))
    for t, (path_ss, rec_seed) in enumerate(_trial_seeds(seed, trials)):
        paths = sample_paths(scenario.channel, np.random.default_rng(path_ss))
        out[t] = block_mi(scenario, paths, rec_seed, snr_db_list)
    return out


def mean_ci(samples) -> tuple[float, float | None]:
    """Sample mean and its 95% normal half-width (z * s / sqrt(n)); None when n = 1."""
    x = np.asarray(samples, dtype=float)
    half = 1.96 * float(np.std(x, ddof=1)) / math.sqrt(x.size) if x.size > 1 else None
    return float(np.mean(x)), half


def outage_ci(mi_samples, r_th: float) -> tuple[float, float]:
    """Fraction of MI samples below r_th and its 95% binomial half-width."""
    below = np.asarray(mi_samples) < r_th
    p = float(np.mean(below))
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / below.size)


class OutageResult(NamedTuple):
    probability: float
    ci_half_width: float
    trials: int


def outage_probability(
    scenario: LinkScenario, r_th: float, snr_db: float, trials: int, seed: int
) -> OutageResult:
    """Monte-Carlo outage Pr{MI < r_th} with a 95% binomial half-width.

    Each trial runs the full pipeline: sample paths, record (rrm only),
    derive weights, build taps and the block matrix, evaluate MI.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if r_th < 0:
        raise ValueError("threshold rate must be nonnegative")
    mi = trial_mi_curves(scenario, [snr_db], trials, seed)[:, 0]
    return OutageResult(*outage_ci(mi, r_th), trials)
