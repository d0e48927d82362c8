
import os

import pytest

from rrmsim import Direction, PathSet, ReferenceWaveSpec, SurfaceGeometry
from rrmsim.channel import Path

FIVE_PATH_ANGLES = [(15.0, 100.0), (30.0, 60.0), (40.0, 35.0), (45.0, 45.0), (45.0, 140.0)]
# Delays are integer carrier cycles at 30 GHz and sub-symbol fractions of the
# 10 ns default symbol.
FIVE_PATH_DELAYS = [0.0, 2.0e-9, 4.5e-9, 7.0e-9, 9.5e-9]


def make_geometry(rows=32, cols=32, fc=30.0e9):
    return SurfaceGeometry.half_wavelength(rows, cols, fc)

def make_reference(geom, amplitude=2.0, phase=0.0, sign=-1):
    return ReferenceWaveSpec.for_geometry(geom, amplitude, phase, sign)

def make_five_paths(delays=None, gains=None):
    delays = FIVE_PATH_DELAYS if delays is None else delays
    gains = [1.0 + 0j] * 5 if gains is None else gains
    return PathSet(
        tuple(
            Path(g, d, Direction.from_degrees(t, p))
            for (t, p), d, g in zip(FIVE_PATH_ANGLES, delays, gains)
        )
    )

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
