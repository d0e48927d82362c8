
import math
import os

import numpy as np
import pytest

from rrmsim import Direction, PathSet, ReferenceWaveSpec, SurfaceGeometry, holography, link
from rrmsim.channel import Path, sample_paths
from rrmsim.harness.invariants import _mutual_information
from rrmsim.surface import steering_stack, superpose

FIVE_PATH_ANGLES = [(15.0, 100.0), (30.0, 60.0), (40.0, 35.0), (45.0, 45.0), (45.0, 140.0)]
# Delays are integer carrier cycles at 30 GHz and sub-symbol fractions of the
# 10 ns default symbol.
FIVE_PATH_DELAYS = [0.0, 2.0e-9, 4.5e-9, 7.0e-9, 9.5e-9]


def make_geometry(rows=32, cols=32, fc=30.0e9):
    return SurfaceGeometry.half_wavelength(rows, cols, fc)

def make_reference(geom, amplitude=2.0, phase=0.0):
    return ReferenceWaveSpec(amplitude, phase)

def make_five_paths(delays=None, gains=None):
    delays = FIVE_PATH_DELAYS if delays is None else delays
    gains = [1.0 + 0j] * 5 if gains is None else gains
    return PathSet(
        tuple(
            Path(g, d, Direction.from_degrees(t, p))
            for (t, p), d, g in zip(FIVE_PATH_ANGLES, delays, gains)
        )
    )

def object_fields(geom, paths):
    """(..., M, N) object fields of (..., L) path arrays: ``superpose`` of their carrier gains."""
    ax, ay = steering_stack(geom, paths.theta, paths.phi)
    return superpose(ax, ay, paths.carrier_gains(geom.angular_frequency))


def block_matrix(scenario, paths, recording_seed=0):
    """K x K channel matrix of one path realization, built from the single-block views.

    The per-block oracle of the stacked kernels: one ``record_hologram`` and
    ``make_weights`` (rrm) or ``rhs_weights`` (rhs), ``equivalent_taps`` and
    ``build_toeplitz``; normalized mode then scales the matrix itself to
    (1/K) trace(H H^H) = 1.
    """
    s = scenario
    if s.system == "rhs":
        gains = paths.carrier_gains(s.geom.angular_frequency)
        desired = [(p.direction, g) for p, g in zip(paths.paths, gains)]
        weights = holography.rhs_weights(s.geom, s.ref, desired)
    else:
        noise = holography.noise_power_for_snr(s.recording_snr_db, paths)
        cfg = holography.RecordingConfig(noise, s.duration_symbols, recording_seed)
        power = holography.record_hologram(s.geom, s.ref, paths, cfg)
        weights = holography.make_weights(power, s.strategy)
    H = link.build_toeplitz(link.equivalent_taps(s.geom, weights, paths, s.pulse, s.K))
    if s.normalization == "normalized":
        power = np.real(np.trace(H @ H.conj().T)) / s.K
        if power > 0.0:
            H = H / np.sqrt(power)
    return H


def logdet_mutual_information(H, gamma):
    """(1/K) * log2 det(I + gamma * H * H^H) from the determinant itself.

    The oracle of ``harness.invariants._mutual_information``, which sums
    over the eigenvalues of H H^H.
    """
    k = H.shape[0]
    sign, logdet = np.linalg.slogdet(np.eye(k) + gamma * (H @ H.conj().T))
    assert sign.real > 0, "determinant of I + gamma*H*H^H must be positive"
    return float(logdet / math.log(2.0) / k)


def per_trial_mi(scenario, snr_db_list, trials, seed):
    """(trials, n_snr) MI of each Monte-Carlo trial on its own.

    Trial t draws its paths with one ``sample_paths`` call on the trial's
    path seed, forms its ``block_matrix`` with its recording seed, and takes
    ``harness.invariants._mutual_information`` per SNR.
    """
    gammas = [link.gamma_from_db(snr) for snr in snr_db_list]
    rows = []
    for path_ss, rec_seed in link._trial_seeds(seed, trials):
        paths = sample_paths(scenario.channel, np.random.default_rng(path_ss))
        H = block_matrix(scenario, paths, rec_seed)
        rows.append([_mutual_information(H, gamma) for gamma in gammas])
    return np.array(rows)


@pytest.fixture
def geom32():
    return make_geometry(32, 32)

@pytest.fixture
def five_paths():
    return make_five_paths()

@pytest.fixture
def five_dirs():
    return [Direction.from_degrees(t, p) for t, p in FIVE_PATH_ANGLES]

@pytest.fixture
def serial(monkeypatch):
    """Leave BLAS unpinned in the environment, so every caller runs its serial loop."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

@pytest.fixture
def force_threads(monkeypatch):
    """force(cpus) pins BLAS in the environment and claims ``cpus`` usable CPUs.

    rrmsim._cores then takes its threaded path in this process (the BLAS
    library already loaded keeps its own thread count; only the rule reads
    the environment).
    """

    def force(cpus=2):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return force
