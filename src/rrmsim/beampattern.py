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

The CSV writer formats the dB values of a block of theta rows together: for
1 <= |v| < 1000 the 9 significant digits come from one product by an exact
power of ten and its rounding, and the text from digit tables, into
NUL-padded fixed-width records that are compacted and written in binary. The
few other values (main-lobe cells, infinities, NaN, near-ties) are formatted
one at a time by "%.9g".

Bit-identity contract: the power grid, the peak list and the CSV bytes equal
those of a full per-row evaluation, a nested-loop peak search and a per-cell
CSV writer, which the unit tests keep as references.
"""

from __future__ import annotations

import functools
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
        t, p = _pattern_axes(self.theta_rad, self.phi_rad)
        db = np.asarray(self.power_db, dtype=float)
        if db.shape != (t.size, p.size):
            raise ValueError("power grid shape does not match axes")
        object.__setattr__(self, "theta_rad", t)
        object.__setattr__(self, "phi_rad", p)
        object.__setattr__(self, "power_db", db)

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


def _pattern_axes(theta_rad, phi_rad) -> tuple[np.ndarray, np.ndarray]:
    """The (theta, phi) axes as float arrays, checked nonempty, 1-D, finite and increasing."""
    t = np.asarray(theta_rad, dtype=float)
    p = np.asarray(phi_rad, dtype=float)
    if t.ndim != 1 or p.ndim != 1 or t.size == 0 or p.size == 0:
        raise ValueError("pattern axes must be nonempty 1-D arrays")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError("pattern axes must be finite")
    if np.any(np.diff(t) <= 0) or np.any(np.diff(p) <= 0):
        raise ValueError("pattern axes must be strictly increasing")
    return t, p


def _phi_wraps(phi_rad: np.ndarray) -> bool:
    """True when a uniform phi axis of more than 2 points spans the full circle."""
    if phi_rad.size <= 2:
        return False
    step = phi_rad[1] - phi_rad[0]
    return abs((phi_rad[-1] + step) % (2 * math.pi) - phi_rad[0]) < 1e-9


def default_axes(step_deg: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """theta in [0, 90] deg, phi in [0, 360) deg, both in radians, step_deg apart.

    The theta rows are the multiples of step_deg below 90 + step_deg/2. When
    step_deg does not divide 90 the last of them can lie past 90 deg (91 deg
    at a 13 deg step); it is moved onto 90 deg, the horizon.
    """
    theta = np.radians(np.minimum(np.arange(0.0, 90.0 + step_deg / 2, step_deg), 90.0))
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
        ValueError: all-zero weights, or axes that ``PatternGrid`` rejects.
    """
    w = _weight_values(weights)
    if w.shape != geom.shape:
        raise ValueError(f"weights shape {w.shape} does not match grid {geom.shape}")
    if not np.any(w):
        raise ValueError("cannot form a pattern from all-zero weights")
    theta, phi = _pattern_axes(theta_rad, phi_rad)

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

    Every number is written as f"{v:.9g}" writes it. Each axis value is
    formatted once. The dB values with 1 <= |v| < 1000, every cell of a
    pattern but those of its main lobes, are formatted in bulk from digit
    tables (see ``_CsvBlock``). The rest go through "%.9g" one at a time:
    |v| < 1 (the 0 dB peak and -0.0 among them), |v| >= 1000, infinities,
    NaN, and the values within 1e-6 units of the 9th significant digit of a
    rounding tie.

    The rows are formatted in blocks of ``_CSV_BLOCK_ROWS`` into one reused
    ``_CsvBlock``, so no whole-file buffer is built.
    """
    db = pattern.power_db
    theta = _field_words([f"\n{v:.9g}," for v in np.degrees(pattern.theta_rad).tolist()], False)
    phi = _field_words([f"{v:.9g}," for v in np.degrees(pattern.phi_rad).tolist()], True)
    rows = min(_CSV_BLOCK_ROWS, db.shape[0])
    block = _CsvBlock(theta.shape[1], phi, rows)
    with open(path, "wb") as fh:
        # Each record starts with its newline, so the header's comes first
        # and the last record's at the end.
        fh.write(b"theta_deg,phi_deg,power_db")
        for a in range(0, db.shape[0], rows):
            block.fill(db[a : a + rows], theta[a : a + rows])
            fh.write(block.compact())
        fh.write(b"\n")


# Theta rows formatted per block of the CSV writer.
_CSV_BLOCK_ROWS = 16
# A fast-path value whose scaled digits y lie within this of a rounding tie
# (|frac(y) - 1/2| <= _TIE_BAND) goes to "%.9g".
_TIE_BAND = 1e-6
_SCALE = np.array([1e8, 1e7, 1e6])  # 10**(8 - x) for x + 1 integer digits
_SHIFT = np.array([1.0, 10.0, 100.0])  # 10**x


class _DigitTables(NamedTuple):
    """ASCII words of the fast path; NUL bytes stand for dropped characters.

    head[q + 1000*negative + 2000*has_fraction] is the sign, the integer part
    q < 1000 and the decimal point, right-aligned in 8 bytes.
    high[h + 10000*(low half is 0)] is the 4-digit high fraction half h, its
    trailing zeros dropped when the low half is 0; low[l] is the 4-digit low
    half l, its trailing zeros dropped.
    """

    head: np.ndarray  # uint64
    high: np.ndarray  # uint32
    low: np.ndarray  # uint32


# Built on the first export, in about 0.5 ms. The numpy loops that build them
# page in about 0.45 MB of numpy's code, which a process that writes no
# pattern CSV need not pay.
@functools.cache
def _digit_tables() -> _DigitTables:
    i = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    low = np.zeros((10_000, 4), dtype=np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        digits[:, k] = i // place % 10 + ord("0")
        # digit k and every digit after it are 0 exactly when i % (10 * place) == 0
        np.copyto(low[:, k], digits[:, k], where=i % (10 * place) != 0)
    q = np.arange(1000)
    ndigits = 1 + (q >= 10) + (q >= 100)
    shown = np.where(ndigits[:, None] > np.arange(2, -1, -1), digits[:1000, 1:], 0)
    head = np.zeros((2, 2, 1000, 8), dtype=np.uint8)  # [has fraction, negative, q]
    head[0, :, :, 5:] = shown
    head[0, 1, q, 7 - ndigits] = ord("-")
    head[1, :, :, 4:7] = shown
    head[1, 1, q, 6 - ndigits] = ord("-")
    head[1, :, :, 7] = ord(".")
    return _DigitTables(
        head.reshape(4000, 8).view(np.uint64).ravel(),
        np.concatenate([digits, low]).view(np.uint32).ravel(),
        low.view(np.uint32).ravel(),
    )


def _field_words(texts: list[str], left: bool) -> np.ndarray:
    """ASCII texts NUL-padded to a common multiple of 8 bytes, as (len, words) uint64.

    Left-aligned texts are padded after the text, right-aligned ones before it.
    """
    data = [t.encode("ascii") for t in texts]
    width = -(-max(map(len, data)) // 8) * 8
    pad = bytes.ljust if left else bytes.rjust
    joined = b"".join(pad(d, width, b"\0") for d in data)
    return np.frombuffer(joined, dtype=np.uint64).reshape(len(data), width // 8)


class _CsvBlock:
    """NUL-padded fixed-width records of a block of pattern rows, and its work arrays.

    A record is one line: the theta field (newline, theta and comma,
    right-aligned), the phi field (phi and comma, left-aligned), then 16
    value bytes: the head word and the two fraction halves from the digit
    tables, or the "%.9g" text of a fallback value. Dropping every NUL byte
    leaves the lines. The padding of neighbouring fields sits together, so
    each line is two runs of text; the compaction costs per run. Every array
    is made by the constructor and reused for each row block.
    """

    def __init__(self, theta_words: int, phi: np.ndarray, rows: int):
        cols, phi_words = phi.shape
        self.tables = _digit_tables()
        self.theta_words = theta_words
        self.value = theta_words + phi_words  # word index of the value bytes
        self.records = np.zeros((rows, cols, self.value + 2), dtype=np.uint64)
        self.records[:, :, theta_words : self.value] = phi
        self.rows = rows
        self.floats = np.empty((4, rows, cols))
        self.flags = np.empty((2, rows, cols), dtype=bool)
        self.decade = np.empty((rows, cols), dtype=np.int8)
        self.index = np.empty((rows, cols), dtype=np.intp)
        self.head = np.empty((rows, cols), dtype=np.uint64)
        self.halves = np.empty((2, rows, cols), dtype=np.uint32)
        self.kept = np.empty(self.records.nbytes, dtype=bool)

    def fill(self, db: np.ndarray, theta: np.ndarray) -> None:
        """Write the records of ``db`` (rows, cols) with theta fields ``theta``."""
        r = self.rows = db.shape[0]
        rec = self.records[:r]
        rec[:, :, : self.theta_words] = theta[:, None, :]
        mag, y, fixed, high = self.floats[:, :r]
        fast, flag = self.flags[:, :r]
        decade, index = self.decade[:r], self.index[:r]
        # |v| to 9 significant digits is rint(y) * 10**(x - 8), for x + 1
        # integer digits and y = |v| * 10**(8 - x): one rounded product by an
        # exact power of ten, off by at most half an ulp of 1e9 (6e-8), so
        # away from a tie rint(y) is the rounding "%.9g" makes. fmin maps NaN
        # and everything above 1000 to 1000, which the fast test rejects.
        np.fmin(np.abs(db, out=mag), 1000.0, out=mag)
        np.greater_equal(mag, 10.0, out=fast)
        np.add(fast, np.greater_equal(mag, 100.0, out=flag), out=decade, dtype=np.int8)
        np.multiply(mag, _SCALE.take(decade, out=y, mode="clip"), out=y)
        np.rint(y, out=fixed)
        np.less(np.abs(np.subtract(y, fixed, out=y), out=y), 0.5 - _TIE_BAND, out=fast)
        fast &= np.greater_equal(mag, 1.0, out=flag)
        fast &= np.less(fixed, 1e9, out=flag)
        # The value times 1e8, an integer below 1e11, split into its integer
        # part and two 4-digit fraction halves. Each quotient is of integers
        # and is either whole or at least 1e-8 below the next integer, so the
        # rounded division floors exactly.
        np.multiply(fixed, _SHIFT.take(decade, out=y, mode="clip"), out=fixed)
        whole = np.floor(np.divide(fixed, 1e8, out=mag), out=mag)
        fraction = np.subtract(fixed, np.multiply(whole, 1e8, out=y), out=fixed)
        np.floor(np.divide(fraction, 1e4, out=high), out=high)
        low = np.subtract(fraction, np.multiply(high, 1e4, out=y), out=y)
        np.add(whole, 1000.0, out=whole, where=np.signbit(db, out=flag))
        np.add(whole, 2000.0, out=whole, where=np.not_equal(fraction, 0.0, out=flag))
        np.add(high, 10_000.0, out=high, where=np.equal(low, 0.0, out=flag))
        # Fallback values index anywhere; mode="clip" keeps them in the
        # tables, and their bytes are replaced below.
        t, head, halves = self.tables, self.head[:r], self.halves[:, :r]
        for table, key, out in (
            (t.head, whole, head),
            (t.high, high, halves[0]),
            (t.low, low, halves[1]),
        ):
            np.copyto(index, key, casting="unsafe")
            np.take(table, index, out=out, mode="clip")
        v = self.value
        rec[:, :, v] = head
        rec[:, :, v + 1 :].view(np.uint32)[..., 0] = halves[0]
        rec[:, :, v + 1 :].view(np.uint32)[..., 1] = halves[1]
        slow = np.nonzero(np.logical_not(fast, out=flag))
        for i, j, value in zip(*slow, db[slow].tolist()):
            text = ("%.9g" % value).encode("ascii").ljust(16, b"\0")
            rec[i, j, v:] = np.frombuffer(text, dtype=np.uint64)

    def compact(self) -> np.ndarray:
        """The bytes of the filled lines."""
        flat = self.records[: self.rows].reshape(-1).view(np.uint8)
        return flat[np.not_equal(flat, 0, out=self.kept[: flat.size])]
