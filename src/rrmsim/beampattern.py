"""Far-field power patterns of a weighted surface, peak search and sidelobe stats.

The pattern projects the aperture field (weights times reference field) onto
the incident steering profile of every grid direction; that projection is the
same per-direction phase factor the downlink tap model applies, so a pattern
peak at a direction means the link actually delivers power there. Grid
evaluation uses factored axis sums and must match the direct per-element
double sum to 1e-9 (the unit tests hold it to that).

Element coordinates are mirror-symmetric about the feed bit for bit
(``x[::-1] == -x``, since x = dx*(m - (M+1)/2)), so the axis steering factor
of a mirrored element equals the conjugate of the original's in value:
exp(-j*k*(-x)*u) = conj(exp(-j*k*x*u)). ``array_factor`` evaluates the
exponentials for the first (M+1)//2 coordinates of each axis and conjugates
them into the rest; the centre element of an odd axis is computed directly.

The same sign argument holds for the direction cosines: s*cos(phi) for a
negative cos(phi) is the exact negation of s*|cos(phi)| (a product's sign is
the XOR of its factors' signs, signed zeros included), so its factor is the
conjugate of the one at |cos(phi)|. Each theta row therefore exponentiates
only the distinct magnitudes |cos(phi)| and |sin(phi)|, appends their
conjugates, and gathers every phi column from that table. On a square grid
with dx == dy the x and y coordinates are the same array, so both axes share
one table over the distinct values of |cos(phi)| and |sin(phi)| together:
789 of the 1,440 per-row arguments on the 0.5 degree grid. Otherwise each
axis has its own table (510 distinct |cos(phi)| and 529 |sin(phi)| there).
Bit-identity contract: the power grid, the peak list and the CSV bytes equal
those of a full per-row evaluation, a nested-loop peak search and a per-cell
CSV writer, which the unit tests keep as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._cores import thread_map, workers
from .holography import WeightStack
from .surface import Direction, ReferenceWaveSpec, SurfaceGeometry, reference_field


@dataclass(frozen=True)
class PatternGrid:
    """Normalized power pattern over a (theta, phi) grid.

    power_db has its maximum at exactly 0 dB; peak_linear is the
    pre-normalization peak power.
    """

    theta_rad: np.ndarray = field(repr=False)
    phi_rad: np.ndarray = field(repr=False)
    power_db: np.ndarray = field(repr=False)
    peak_linear: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.theta_rad, dtype=float)
        p = np.asarray(self.phi_rad, dtype=float)
        if t.ndim != 1 or p.ndim != 1 or t.size == 0 or p.size == 0:
            raise ValueError("pattern axes must be nonempty 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValueError("pattern axes must be finite")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(p) <= 0):
            raise ValueError("pattern axes must be strictly increasing")
        db = np.asarray(self.power_db, dtype=float)
        if db.shape != (t.size, p.size):
            raise ValueError("power grid shape does not match axes")
        object.__setattr__(self, "theta_rad", t)
        object.__setattr__(self, "phi_rad", p)
        object.__setattr__(self, "power_db", db)

    def linear(self) -> np.ndarray:
        """Normalized linear power (peak 1)."""
        return 10.0 ** (self.power_db / 10.0)

    def value_at(self, direction: Direction) -> float:
        """power_db at the nearest grid point to a direction.

        phi distances are circular when the phi axis spans the full circle.
        """
        it = int(np.argmin(np.abs(self.theta_rad - direction.theta)))
        dphi = np.abs(self.phi_rad - direction.phi)
        if _phi_wraps(self.phi_rad):
            dphi = np.minimum(dphi, 2.0 * math.pi - dphi)
        ip = int(np.argmin(dphi))
        return float(self.power_db[it, ip])


def _phi_wraps(phi_rad: np.ndarray) -> bool:
    """True when a uniform phi axis of more than 2 points spans the full circle."""
    if phi_rad.size <= 2:
        return False
    step = phi_rad[1] - phi_rad[0]
    return abs((phi_rad[-1] + step) % (2 * math.pi) - phi_rad[0]) < 1e-9


def default_axes(step_deg: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """theta in [0, 90] deg inclusive, phi in [0, 360) deg, both in radians."""
    theta = np.radians(np.arange(0.0, 90.0 + step_deg / 2, step_deg))
    phi = np.radians(np.arange(0.0, 360.0, step_deg))
    return theta, phi


def _weight_values(weights) -> np.ndarray:
    return weights.values if isinstance(weights, WeightStack) else np.asarray(weights)


def array_factor(
    geom: SurfaceGeometry,
    ref: ReferenceWaveSpec,
    weights,
    theta_rad: np.ndarray,
    phi_rad: np.ndarray,
) -> PatternGrid:
    """Normalized far-field power pattern of the weighted, reference-fed surface.

    P(theta, phi) = |sum_{m,n} W(m,n) * E_r(m,n) * exp(-j*k_free*d_mn(theta,phi))|^2,
    normalized to its peak. ``weights`` may be a WeightStack or a raw
    nonnegative array (the pattern is invariant to positive scaling).

    When ``_cores.workers`` allows several threads (BLAS pinned to one
    thread), the theta rows are split into that many contiguous blocks, one
    per thread, each with its own work arrays and written into its own rows
    of the shared power grid. Every row is computed by the same operations on
    either path, so the grid keeps its bytes.

    Raises:
        ValueError: all-zero weights, or empty or non-finite axes.
    """
    w = _weight_values(weights)
    if w.shape != geom.shape:
        raise ValueError(f"weights shape {w.shape} does not match grid {geom.shape}")
    if not np.any(w):
        raise ValueError("cannot form a pattern from all-zero weights")
    theta = np.asarray(theta_rad, dtype=float)
    phi = np.asarray(phi_rad, dtype=float)
    if theta.size == 0 or phi.size == 0:
        raise ValueError("pattern axes must be nonempty")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise ValueError("pattern axes must be finite")

    aperture = w * reference_field(geom, ref)
    x = geom.element_x()
    y = geom.element_y()
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    if np.array_equal(x, y):  # square grid with dx == dy: one shared table
        mag, cols = _table_columns(np.concatenate([cos_phi, sin_phi]))
        axes = ((x, mag),)
        x_cols, y_cols = cols[: phi.size], cols[phi.size :]
    else:
        x_mag, x_cols = _table_columns(cos_phi)
        y_mag, y_cols = _table_columns(sin_phi)
        axes = ((x, x_mag), (y, y_mag))

    power = np.empty((theta.size, phi.size), dtype=float)

    def fill(block: tuple[range, _RowBuffers]) -> None:
        rows, buf = block
        for it in rows:
            st = math.sin(theta[it])
            for table in buf.tables:
                table.evaluate(st)
            ay = buf.tables[-1].gather(y_cols, buf.ay)  # (N, P)
            ax = buf.tables[0].gather(x_cols, buf.ax)  # (M, P)
            f_rows = np.matmul(aperture, ay, out=buf.prod)
            np.multiply(ax, f_rows, out=f_rows)
            power[it, :] = np.abs(np.sum(f_rows, axis=0)) ** 2

    n = workers(theta.size)
    bounds = [theta.size * i // n for i in range(n + 1)]
    # Every block's work arrays are allocated here, in the calling thread:
    # glibc gives each thread its own heap arena and keeps what a thread
    # frees resident there, so large temporaries made on a worker thread
    # would stay in memory after the pool is gone.
    blocks = [
        (range(a, b), _RowBuffers.for_grid(geom.shape, geom.k_free, axes, phi.size))
        for a, b in zip(bounds, bounds[1:])
    ]
    thread_map(fill, blocks)

    peak = float(np.max(power))
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(power / peak)
    return PatternGrid(theta, phi, power_db, peak)


def _table_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct magnitudes of ``values`` and each value's column in a steering table.

    Column u < U (U distinct magnitudes) holds the factor at magnitude u,
    column U + u its conjugate, which is the factor at the negated value.
    """
    mag, inv = np.unique(np.abs(values), return_inverse=True)
    return mag, inv + mag.size * np.signbit(values)


class _SteeringTable:
    """Steering factors of one axis at the distinct magnitudes of its direction cosines.

    For a theta row with s = sin(theta), ``evaluate`` fills the first U
    columns of ``values`` with exp(-j*k*c*(s*mag)) for the first h =
    (len(c)+1)//2 coordinates c, and the last U with their conjugates. The
    exponent is formed as in the direct evaluation: -k*(c*(s*mag)), written
    into the imaginary part of a zero-real argument.
    """

    def __init__(self, c: np.ndarray, k: float, mag: np.ndarray):
        self.size = c.size
        self.half = c[: (c.size + 1) // 2, None]
        self.neg_k = -k
        self.mag = mag
        self.scaled = np.empty(mag.size)
        self.phase = np.empty((self.half.size, mag.size))
        self.values = np.empty((self.half.size, 2 * mag.size), dtype=complex)

    def evaluate(self, s: float) -> None:
        u = self.mag.size
        # The conjugate half holds the arguments first; the previous row's
        # conjugates left their real parts there, so those are reset to 0.
        arg = self.values[:, u:]
        np.multiply(s, self.mag, out=self.scaled)
        np.multiply(self.half, self.scaled, out=self.phase)
        np.multiply(self.phase, self.neg_k, out=arg.imag)
        arg.real = 0.0
        np.exp(arg, out=self.values[:, :u])
        np.conjugate(self.values[:, :u], out=arg)

    def gather(self, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The (len(c), P) factors of columns ``cols`` into out, for c[::-1] == -c exactly.

        The first h rows are taken from the table; the mirrored rows are
        their conjugates. These equal the direct exponentials in value; only
        the sign of a zero imaginary part can differ.
        """
        h = self.half.size
        self.values.take(cols, axis=1, out=out[:h], mode="clip")
        np.conjugate(out[: self.size - h][::-1], out=out[h:])
        return out


class _RowBuffers(NamedTuple):
    """Work arrays of one block of pattern rows on an (M, N) grid with P phi values."""

    tables: tuple[_SteeringTable, ...]  # the x table first, the y table last (one if shared)
    ax: np.ndarray  # (M, P) complex: x-axis steering factors
    ay: np.ndarray  # (N, P) complex: y-axis steering factors
    prod: np.ndarray  # (M, P) complex: aperture @ ay, then times ax

    @classmethod
    def for_grid(
        cls, shape: tuple[int, int], k: float, axes: tuple, n_phi: int
    ) -> "_RowBuffers":
        """``axes`` holds (coordinates, distinct magnitudes) for each table."""
        rows, cols = shape
        return cls(
            tuple(_SteeringTable(c, k, mag) for c, mag in axes),
            np.empty((rows, n_phi), dtype=complex),
            np.empty((cols, n_phi), dtype=complex),
            np.empty((rows, n_phi), dtype=complex),
        )


def angular_separation(a: Direction, b: Direction) -> float:
    """Great-circle angle in radians between two directions."""
    dot = float(np.dot(a.unit_vector(), b.unit_vector()))
    return math.acos(min(1.0, max(-1.0, dot)))


class PeakSearchResult(NamedTuple):
    peaks: list[tuple[Direction, float]]
    complete: bool


def find_peaks(
    pattern: PatternGrid, count: int, min_separation_deg: float
) -> PeakSearchResult:
    """Top-k separated local maxima of a pattern, strongest first.

    Local maxima are grid points not below any of their 8 neighbors (the phi
    axis wraps when it spans the full circle). Candidates are taken greedily
    in (-power, theta, phi) order, skipping any candidate closer than
    min_separation_deg (great-circle) to an already accepted one. If fewer
    than ``count`` separated peaks exist, the result carries complete=False.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    db = pattern.power_db
    nt, nphi = db.shape
    padded = np.full((nt + 2, nphi + 2), -np.inf)
    padded[1:-1, 1:-1] = db
    if _phi_wraps(pattern.phi_rad):
        padded[1:-1, 0] = db[:, -1]
        padded[1:-1, -1] = db[:, 0]
    above = np.zeros(db.shape, dtype=bool)  # some neighbour is above the point
    for dt in range(3):
        for dp in range(3):
            if (dt, dp) != (1, 1):
                above |= padded[dt : dt + nt, dp : dp + nphi] > db
    it, ip = np.nonzero(~above)
    theta = pattern.theta_rad[it]
    phi = pattern.phi_rad[ip]
    values = db[it, ip]
    order = np.lexsort((phi, theta, -values))
    candidates = zip(theta[order].tolist(), phi[order].tolist(), values[order].tolist())

    min_sep = math.radians(min_separation_deg)
    selected: list[tuple[Direction, float]] = []
    for th, ph, val in candidates:
        d = Direction(th, ph)
        if all(angular_separation(d, s) >= min_sep for s, _ in selected):
            selected.append((d, val))
        if len(selected) == count:
            break
    return PeakSearchResult(selected, complete=len(selected) == count)


# Rows farther than guard + _ROW_MARGIN in theta from a mainlobe direction
# lie outside its cone. The great-circle distance between two directions is
# at least their theta difference (for theta in [0, pi]), and the margin is
# far above the rounding of arccos(clip(cos_sep)), at most ~3e-8 rad (at
# separations near pi), so those rows pass the arccos test too.
_ROW_MARGIN = 1e-6


def sidelobe_metrics(
    pattern: PatternGrid, mainlobe_dirs: list[Direction], guard_deg: float
) -> dict[str, float]:
    """Peak and mean sidelobe level outside guard cones around the mainlobes.

    A grid point is a sidelobe point if its great-circle distance to every
    mainlobe direction, arccos of the clipped cosine of the separation,
    exceeds guard_deg. The mean is taken over the linear power of the
    sidelobe points and converted to dB.

    Raises:
        ValueError: nonpositive guard, or guard cones covering the whole grid.
    """
    if guard_deg <= 0:
        raise ValueError("guard_deg must be positive")
    mask = _sidelobe_mask(pattern, mainlobe_dirs, math.radians(guard_deg))
    if not np.any(mask):
        raise ValueError("guard regions cover the entire pattern grid")
    sidelobe_db = pattern.power_db[mask]
    return {
        "peak_sidelobe_db": float(np.max(sidelobe_db)),
        "mean_sidelobe_db": float(10.0 * np.log10(np.mean(10.0 ** (sidelobe_db / 10.0)))),
    }


def _sidelobe_mask(
    pattern: PatternGrid, mainlobe_dirs: list[Direction], guard: float
) -> np.ndarray:
    """Grid points whose arccos(clip(cos_sep)) exceeds ``guard`` for every mainlobe direction.

    Each direction's test runs only on the theta rows within guard +
    _ROW_MARGIN of it (and on any row outside [0, pi]); every other row is
    outside its cone. The tested rows form the same per-point expression as
    a full-grid evaluation, so the mask equals it point for point.
    """
    theta = pattern.theta_rad
    unbounded = (theta < 0.0) | (theta > math.pi)
    ct = np.cos(theta)[:, None]
    st = np.sin(theta)[:, None]
    cp = np.cos(pattern.phi_rad)[None, :]
    sp = np.sin(pattern.phi_rad)[None, :]
    mask = np.ones(pattern.power_db.shape, dtype=bool)
    for d in mainlobe_dirs:
        rows = np.flatnonzero((np.abs(theta - d.theta) <= guard + _ROW_MARGIN) | unbounded)
        ux, uy, uz = d.unit_vector()
        cos_sep = st[rows] * cp * ux + st[rows] * sp * uy + ct[rows] * uz
        mask[rows] &= np.arccos(np.clip(cos_sep, -1.0, 1.0)) > guard
    return mask


def export_pattern_csv(pattern: PatternGrid, path) -> None:
    """Write `theta_deg,phi_deg,power_db` rows, row-major over theta then phi.

    Each axis value is formatted once: a theta row is one %-template of the
    preformatted phi strings, filled with the row's power values ("%.9g"
    formats a float exactly as f"{v:.9g}"). The file is written one theta row
    at a time, so no whole-file string is built.
    """
    theta = [f"{v:.9g}," for v in np.degrees(pattern.theta_rad).tolist()]
    phi = [f"{v:.9g},%.9g\n" for v in np.degrees(pattern.phi_rad).tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta_deg,phi_deg,power_db\n")
        for th, row in zip(theta, pattern.power_db):
            fh.write((th + th.join(phi)) % tuple(row.tolist()))
