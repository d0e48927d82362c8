"""Surface geometry, reference-wave phases, steering vectors and incident fields.

Everything downstream (hologram recording, weight synthesis, beam patterns,
the link model) is built from three primitives defined here:

* the feed-to-element distance map of a rectangular element grid whose
  geometric center is the feed location,
* the guided reference wave launched by the feed (``reference_field``); its
  unit phase map ``reference_phase`` is computed once per geometry and
  cached,
* the per-element plane-wave phase profile of a far-field direction. It is
  separable, exp(-j*k*(x*u + y*v)) = exp(-j*k*x*u) * exp(-j*k*y*v), so
  ``steering_stack`` returns only the (..., M, L) row and (..., N, L) column
  factors of direction arrays of shape (..., L), and every per-path sum over
  the grid (``superpose``, ``link.alpha_taps``, ``holography.rhs_weights``)
  is built from them with O((M+N)*L) exponentials instead of O(M*N*L).
  Leading axes stack Monte-Carlo trials; ``object_field`` (a path set)
  and ``steering_field`` (one ``Direction``) are the single-set views.

The geometry owns the carrier: ``SurfaceGeometry`` holds fc and the
substrate index and derives omega = 2*pi*fc, k_free and k_sub from them,
so the user waves and the reference wave share one carrier by
construction. ``ReferenceWaveSpec`` holds only the reference amplitude and
its recording phase offset.

``reference_field``, ``object_field`` and ``steering_field`` return plain
(M, N) complex arrays, as ``superpose`` does for one path set.

All angles are radians; degrees are accepted only at config/CLI boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Reference phase maps kept per geometry; a 256x256 map is 1 MiB.
_REFERENCE_CACHE_SIZE = 8


@dataclass(frozen=True)
class SurfaceGeometry:
    """Rectangular element grid with the feed at the geometric center.

    Element (m, n), 1-based, sits at x = dx*(m-(M+1)/2), y = dy*(n-(N+1)/2).
    The center coordinates are real-valued so even grid sizes work the same
    as odd ones.

    Attributes:
        rows: M, number of elements along x.
        cols: N, number of elements along y.
        dx: element spacing along x in meters.
        dy: element spacing along y in meters.
        fc: carrier frequency in Hz.
        substrate_index: refractive index of the substrate that guides the
            reference wave; >= 1.
    """

    rows: int
    cols: int
    dx: float
    dy: float
    fc: float
    substrate_index: float

    def __post_init__(self):
        for name, count in (("rows", self.rows), ("cols", self.cols)):
            if count < 1:
                raise ValueError(f"{name}: must be >= 1, got {count}")
        # fc first: a nonpositive fc also makes half-wavelength spacings nonpositive
        if self.fc <= 0:
            raise ValueError(f"fc: must be positive, got {self.fc}")
        for name, spacing in (("dx", self.dx), ("dy", self.dy)):
            if spacing <= 0:
                raise ValueError(f"{name}: must be positive, got {spacing}")
        if not self.substrate_index >= 1.0:
            raise ValueError(f"substrate_index: must be >= 1, got {self.substrate_index}")

    @property
    def angular_frequency(self) -> float:
        """Carrier angular frequency omega = 2*pi*fc in rad/s."""
        return 2.0 * math.pi * self.fc

    @property
    def k_free(self) -> float:
        """Free-space wavenumber omega/c in rad/m."""
        return self.angular_frequency / SPEED_OF_LIGHT

    @property
    def k_sub(self) -> float:
        """Wavenumber of the guided reference wave, substrate_index * k_free, in rad/m."""
        return self.substrate_index * self.k_free

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def half_wavelength(
        cls,
        rows: int,
        cols: int,
        fc: float,
        substrate_index: float = math.sqrt(3.0),
    ) -> "SurfaceGeometry":
        """Grid with half-wavelength spacing."""
        lam = SPEED_OF_LIGHT / fc
        return cls(rows, cols, lam / 2.0, lam / 2.0, fc, substrate_index)

    def element_x(self) -> np.ndarray:
        """(M,) x-coordinates of element rows, centered on the feed."""
        m = np.arange(1, self.rows + 1, dtype=float)
        return self.dx * (m - (self.rows + 1) / 2.0)

    def element_y(self) -> np.ndarray:
        """(N,) y-coordinates of element columns, centered on the feed."""
        n = np.arange(1, self.cols + 1, dtype=float)
        return self.dy * (n - (self.cols + 1) / 2.0)

    def feed_distance(self) -> np.ndarray:
        """(M, N) distance from the feed to each element."""
        x = self.element_x()[:, None]
        y = self.element_y()[None, :]
        return np.hypot(x, y)


def wrap_phi(phi: float) -> float:
    """Azimuth in radians folded into [0, 2*pi).

    Tiny negative phi, where ``phi % (2*pi)`` rounds up to 2*pi, folds to 0.
    """
    wrapped = phi % (2.0 * math.pi)
    return 0.0 if wrapped == 2.0 * math.pi else wrapped


@dataclass(frozen=True)
class Direction:
    """Far-field direction: elevation theta in [0, pi/2], azimuth phi in [0, 2*pi).

    theta = 0 is broadside (surface normal).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise ValueError(f"theta: must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi: must lie in [0, 2*pi), got {self.phi}")

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "Direction":
        return cls(math.radians(theta_deg), wrap_phi(math.radians(phi_deg)))

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector pointing toward this direction."""
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class ReferenceWaveSpec:
    """Guided reference wave fed at the surface center.

    It propagates as exp(-j*k_sub*d) from the feed, in recording and in
    reconstruction alike, at the carrier of the geometry it is used with.

    Attributes:
        amplitude: A_r > 0.
        phase_offset: phase (radians) of the recording-time reference relative
            to the reconstruction-time reference. Applied only while recording.
    """

    amplitude: float
    phase_offset: float = 0.0

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude: must be positive, got {self.amplitude}")

    @classmethod
    def for_geometry(
        cls,
        geom: SurfaceGeometry,
        amplitude: float = 1.0,
        phase_offset: float = 0.0,
    ) -> "ReferenceWaveSpec":
        """The wave of that amplitude and phase; ``geom`` is not read (it owns the carrier).

        Its last caller is ``perfbench/workloads.py``; ROADMAP item 4 deletes it.
        """
        return cls(amplitude, phase_offset)


@functools.lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def reference_phase(geom: SurfaceGeometry) -> np.ndarray:
    """Unit-amplitude reference wave exp(-j*k_sub*d(m,n)) across the surface.

    Cached per geometry and returned read-only; copy before modifying.
    """
    phase = np.exp(1j * -(geom.k_sub * geom.feed_distance()))
    phase.flags.writeable = False
    return phase


def reference_field(geom: SurfaceGeometry, ref: ReferenceWaveSpec) -> np.ndarray:
    """(M, N) reference wave across the surface: A_r * exp(-j*k_sub*d(m,n)).

    d(m,n) is the feed-to-element distance, so the field is centrally
    symmetric: value at (m, n) equals value at (M+1-m, N+1-n). The recording
    phase offset is deliberately not included here; recording applies it.
    The unit phase map is cached per geometry; every call returns a
    fresh array, so callers may modify it.
    """
    return ref.amplitude * reference_phase(geom)


def steering_stack(
    geom: SurfaceGeometry, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Separable steering factors of direction arrays of shape (..., L).

    Returns (ax, ay) with ax[..., m, l] = exp(-j*k_free*x_m*u_l), shape
    (..., M, L), and ay[..., n, l] = exp(-j*k_free*y_n*v_l), shape
    (..., N, L), where (u, v) = sin(theta) * (cos(phi), sin(phi)). The
    steering field of direction l is the outer product ax[..., :, l]
    ay[..., :, l]^T. Leading axes stack independent direction sets.
    """
    st = np.sin(theta)
    u = (st * np.cos(phi))[..., None, :]
    v = (st * np.sin(phi))[..., None, :]
    k = -1j * geom.k_free
    ax = np.exp(k * (geom.element_x()[:, None] * u))
    ay = np.exp(k * (geom.element_y()[:, None] * v))
    return ax, ay


def steering_field(geom: SurfaceGeometry, direction: Direction) -> np.ndarray:
    """(M, N) incident plane-wave phase profile exp(-j*k_free*(x*u + y*v)).

    Unit modulus everywhere. The value at the index-mirrored element
    (M+1-m, N+1-n) is the complex conjugate of the value at (m, n).
    """
    ax, ay = steering_stack(geom, np.array([direction.theta]), np.array([direction.phi]))
    return np.outer(ax[:, 0], ay[:, 0])


def superpose(ax: np.ndarray, ay: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """(..., M, N) sum over l of gains[..., l] * the steering field of direction l.

    ax and ay are the ``steering_stack`` factors of the directions. The sum
    is the rank-L product (ax * gains) @ ay^T, so no per-path M x N map is
    formed.
    """
    return (ax * gains[..., None, :]) @ np.swapaxes(ay, -1, -2)


def object_field(geom: SurfaceGeometry, paths) -> np.ndarray:
    """(M, N) superposition of incident plane waves from a set of propagation paths.

    Each path contributes gain * exp(-j*omega*delay) * steering(theta, phi);
    the delay term is the baseband carrier rotation accumulated along the
    path, at the geometry's carrier omega. Linear in the path gains. This is ``superpose`` of the paths'
    directions with their carrier gains.

    Args:
        geom: surface geometry; supplies omega for the delay phase.
        paths: a ``rrmsim.channel.PathSet``; its ``arrays`` are used.

    Raises:
        ValueError: if the path set is empty.
    """
    if len(paths.paths) == 0:
        raise ValueError("object field needs at least one incident path")
    p = paths.arrays
    return superpose(*steering_stack(geom, p.theta, p.phi), p.carrier_gains(geom.angular_frequency))
