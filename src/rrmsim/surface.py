"""Surface geometry, reference-wave phases, steering vectors and incident fields.

Everything downstream (hologram recording, weight synthesis, beam patterns,
the link model) is built from three primitives defined here:

* the feed-to-element distance map of a rectangular element grid whose
  geometric center is the feed location,
* the guided reference wave launched by the feed (``reference_field``),
* the per-element plane-wave phase profile of a far-field direction
  (``steering_field``).

All angles are radians; degrees are accepted only at config/CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


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
        k_sub: wavenumber of the guided reference wave in the substrate,
            rad/m. Must be >= the free-space wavenumber.
    """

    rows: int
    cols: int
    dx: float
    dy: float
    fc: float
    k_sub: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("element spacings must be positive")
        if self.fc <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.k_sub < self.k_free - 1e-9:
            raise ValueError("substrate wavenumber must be >= free-space wavenumber")

    @property
    def k_free(self) -> float:
        """Free-space wavenumber 2*pi*fc/c in rad/m."""
        return 2.0 * math.pi * self.fc / SPEED_OF_LIGHT

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
        """Grid with half-wavelength spacing and k_sub = substrate_index * k_free."""
        lam = SPEED_OF_LIGHT / fc
        k_free = 2.0 * math.pi / lam
        return cls(rows, cols, lam / 2.0, lam / 2.0, fc, substrate_index * k_free)

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
            raise ValueError(f"theta must be in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")

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
class ComplexField:
    """M x N grid of complex field amplitudes (dimensionless)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"field must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ReferenceWaveSpec:
    """Guided reference wave fed at the surface center.

    Attributes:
        amplitude: A_r >= 0.
        phase_offset: phase (radians) of the recording-time reference relative
            to the reconstruction-time reference. Applied only while recording.
        angular_frequency: omega_r in rad/s; must equal 2*pi*fc of the geometry
            it is used with (the waves cannot interfere otherwise).
        sign: +1 or -1, sign of the propagation phase exp(j*sign*k_sub*d).
            -1 is the convention used throughout the link pipeline; +1 is
            exposed for pattern studies that prefer the opposite convention.
            Use one sign consistently between recording and reconstruction.
    """

    amplitude: float
    angular_frequency: float
    phase_offset: float = 0.0
    sign: int = -1

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("reference amplitude must be nonnegative")
        if self.angular_frequency <= 0:
            raise ValueError("angular frequency must be positive")
        if self.sign not in (-1, +1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def for_geometry(
        cls,
        geom: SurfaceGeometry,
        amplitude: float = 1.0,
        phase_offset: float = 0.0,
        sign: int = -1,
    ) -> "ReferenceWaveSpec":
        return cls(amplitude, 2.0 * math.pi * geom.fc, phase_offset, sign)


def _check_frequency(geom: SurfaceGeometry, ref: ReferenceWaveSpec) -> None:
    omega_c = 2.0 * math.pi * geom.fc
    if not math.isclose(ref.angular_frequency, omega_c, rel_tol=1e-9):
        raise ValueError(
            "reference angular frequency must equal 2*pi*fc of the geometry "
            f"({ref.angular_frequency} != {omega_c})"
        )


def reference_field(geom: SurfaceGeometry, ref: ReferenceWaveSpec) -> ComplexField:
    """Reference wave across the surface: A_r * exp(j*sign*k_sub*d(m,n)).

    d(m,n) is the feed-to-element distance, so the field is centrally
    symmetric: value at (m, n) equals value at (M+1-m, N+1-n). The recording
    phase offset is deliberately not included here; recording applies it.
    """
    _check_frequency(geom, ref)
    phase = ref.sign * geom.k_sub * geom.feed_distance()
    return ComplexField(ref.amplitude * np.exp(1j * phase))


def path_length(geom: SurfaceGeometry, direction: Direction) -> np.ndarray:
    """(M, N) plane-wave path-length map d(m,n) = x*sin(t)cos(p) + y*sin(t)sin(p)."""
    st = math.sin(direction.theta)
    u = st * math.cos(direction.phi)
    v = st * math.sin(direction.phi)
    return geom.element_x()[:, None] * u + geom.element_y()[None, :] * v


def steering_field(geom: SurfaceGeometry, direction: Direction) -> np.ndarray:
    """(M, N) incident plane-wave phase profile exp(-j*k_free*d(m,n)).

    Unit modulus everywhere. The value at the index-mirrored element
    (M+1-m, N+1-n) is the complex conjugate of the value at (m, n).
    """
    return np.exp(-1j * geom.k_free * path_length(geom, direction))


def object_field(geom: SurfaceGeometry, paths, ref: ReferenceWaveSpec) -> ComplexField:
    """Superposition of incident plane waves from a set of propagation paths.

    Each path contributes gain * exp(-j*omega_r*delay) * steering(theta, phi);
    the delay term is the baseband carrier rotation accumulated along the
    path. Linear in the path gains.

    Args:
        geom: surface geometry.
        paths: a ``rrmsim.channel.PathSet``; its ``carrier_gains`` and each
            path's ``direction`` are used.
        ref: supplies omega_r for the delay phase.

    Raises:
        ValueError: if the path set is empty.
    """
    _check_frequency(geom, ref)
    if len(paths.paths) == 0:
        raise ValueError("object field needs at least one incident path")
    total = np.zeros(geom.shape, dtype=complex)
    for g, p in zip(paths.carrier_gains(ref.angular_frequency), paths.paths):
        total += g * steering_field(geom, p.direction)
    return ComplexField(total)
