import cmath
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import (
    Direction,
    RecordingConfig,
    SurfaceGeometry,
    make_weights,
    record_hologram,
    reference_field,
)
from rrmsim import _cores, beampattern
from rrmsim.beampattern import (
    _ROW_MARGIN,
    PatternGrid,
    _sidelobe_mask,
    angular_separation,
    array_factor,
    default_axes,
    export_pattern_csv,
    find_peaks,
    sidelobe_metrics,
)
from rrmsim.harness.cli import main
from rrmsim.harness.presets import resolve_config

from conftest import make_five_paths, make_geometry, make_reference


def pattern_oracle(geom, ref, weights, theta, phi):
    """Direct per-element double sum, one direction at a time."""
    e_r = reference_field(geom, ref)
    aperture = np.asarray(weights) * e_r
    k = geom.k_free
    power = np.zeros((len(theta), len(phi)))
    for it, th in enumerate(theta):
        for ip, ph in enumerate(phi):
            total = 0j
            for m in range(1, geom.rows + 1):
                for n in range(1, geom.cols + 1):
                    x = geom.dx * (m - (geom.rows + 1) / 2)
                    y = geom.dy * (n - (geom.cols + 1) / 2)
                    d = x * math.sin(th) * math.cos(ph) + y * math.sin(th) * math.sin(ph)
                    total += aperture[m - 1, n - 1] * cmath.exp(-1j * k * d)
            power[it, ip] = abs(total) ** 2
    return power


def array_factor_reference(geom, ref, weights, theta, phi):
    """Per-row full-exponential evaluation; array_factor must match it bit for bit."""
    aperture = np.asarray(weights) * reference_field(geom, ref)
    x = geom.element_x()
    y = geom.element_y()
    k = geom.k_free
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    power = np.empty((theta.size, phi.size), dtype=float)
    for it, th in enumerate(theta):
        st = math.sin(th)
        ay = np.exp(-1j * k * np.outer(y, st * sin_phi))
        ax = np.exp(-1j * k * np.outer(x, st * cos_phi))
        power[it, :] = np.abs(np.sum(ax * (aperture @ ay), axis=0)) ** 2
    peak = float(np.max(power))
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power / peak), peak


def fig5_weights(size):
    """Both weight matrices of the fig5 preset at size x size."""
    cfg = resolve_config("fig5_beampattern", overrides={"surface": {"M": size, "N": size}})
    geom = cfg.geometry()
    ref = cfg.reference_wave()
    holo = record_hologram(geom, ref, cfg.manual_paths(), RecordingConfig(0.0, 1, 0))
    return geom, ref, [make_weights(holo, s).values for s in ("none", "mean")]


class TestHalfExponentials:
    @pytest.mark.parametrize(
        "rows, cols, dx, dy",
        [(1, 2, 0.005, 0.005), (7, 12, 0.0037, 0.0051), (8, 8, 0.005, 0.005), (33, 32, 0.0049, 0.0031)],
    )
    def test_element_coordinates_mirror_exactly(self, rows, cols, dx, dy):
        geom = SurfaceGeometry(rows, cols, dx, dy, 30.0e9, math.sqrt(3.0))
        for c in (geom.element_x(), geom.element_y()):
            assert np.array_equal(c[::-1], -c)

    @pytest.mark.parametrize("rows, cols", [(7, 12), (8, 8), (33, 32)])
    def test_bit_identical_to_full_evaluation(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        geom = make_geometry(rows, cols)
        ref = make_reference(geom)
        weights = rng.uniform(0.0, 1.0, size=geom.shape)
        theta, phi = default_axes(1.5)
        pattern = array_factor(geom, ref, weights, theta, phi)
        power_db, peak = array_factor_reference(geom, ref, weights, theta, phi)
        assert np.array_equal(pattern.power_db, power_db)
        assert pattern.peak_linear == peak

    def test_bit_identical_on_fig5_inputs(self):
        geom, ref, weights = fig5_weights(16)
        theta, phi = default_axes(0.5)
        for w in weights:
            pattern = array_factor(geom, ref, w, theta, phi)
            power_db, peak = array_factor_reference(geom, ref, w, theta, phi)
            assert np.array_equal(pattern.power_db, power_db)
            assert pattern.peak_linear == peak


class TestSteeringTables:
    """The sign and shared-axis lookups against the full evaluation, bit for bit."""

    @pytest.fixture(params=[False, True], ids=["serial", "threads"])
    def threads(self, request, serial, force_threads):
        if request.param:
            force_threads(3)

    def assert_bit_identical(self, geom, theta, phi, seed=0):
        weights = np.random.default_rng(seed).uniform(0.0, 1.0, size=geom.shape)
        ref = make_reference(geom)
        pattern = array_factor(geom, ref, weights, theta, phi)
        power_db, peak = array_factor_reference(geom, ref, weights, theta, phi)
        assert np.array_equal(pattern.power_db, power_db)
        assert pattern.peak_linear == peak

    @pytest.mark.parametrize(
        "rows, cols, dx, dy",
        [
            (12, 12, 0.0049, 0.0031),  # square, dx != dy: one table per axis
            (7, 7, 0.005, 0.005),  # odd square: one shared table
            (9, 5, 0.005, 0.005),  # odd, non-square
            (1, 1, 0.005, 0.005),
        ],
    )
    def test_grid_shapes_and_spacings(self, threads, rows, cols, dx, dy):
        geom = SurfaceGeometry(rows, cols, dx, dy, 30.0e9, math.sqrt(3.0))
        self.assert_bit_identical(geom, *default_axes(1.5), seed=rows * cols)

    def test_partial_phi_axis(self, threads):
        phi = np.radians(np.arange(10.0, 200.0, 1.5))
        theta, _ = default_axes(1.5)
        for size in (8, 9):
            self.assert_bit_identical(make_geometry(size, size), theta, phi, seed=size)

    def test_theta_outside_zero_to_pi(self, threads):
        theta = np.radians(np.arange(-40.0, 260.0, 7.5))
        _, phi = default_axes(2.5)
        self.assert_bit_identical(make_geometry(8, 8), theta, phi)
        self.assert_bit_identical(make_geometry(6, 9), theta, phi)

    @pytest.mark.parametrize(
        "phi_deg",
        [
            [-180.0, -90.0, 0.0, 90.0, 180.0, 270.0, 360.0, 450.0],
            [-0.0, 90.0, 180.0, 270.0],  # sin(-0.0) is -0.0: its conjugate column
        ],
    )
    def test_phi_at_multiples_of_90_degrees(self, threads, phi_deg):
        theta, _ = default_axes(3.0)
        phi = np.radians(np.array(phi_deg))
        self.assert_bit_identical(make_geometry(8, 8), theta, phi)
        self.assert_bit_identical(make_geometry(5, 4), theta, phi)

    def test_single_phi_value(self, threads):
        theta, _ = default_axes(1.5)
        for phi_deg in (0.0, 37.0, 243.5):
            phi = np.radians(np.array([phi_deg]))
            self.assert_bit_identical(make_geometry(8, 8), theta, phi)
            self.assert_bit_identical(make_geometry(7, 10), theta, phi)

    def test_fig5_grid_exponentiates_each_distinct_argument_once(self, monkeypatch):
        """181 rows x 16 half coordinates x 789 distinct |cos|, |sin| values on 32x32."""
        geom, ref, weights = fig5_weights(32)
        theta, phi = default_axes(0.5)
        counted = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                counted.append(np.size(x))  # list.append is atomic across threads
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(beampattern, "np", CountingNumpy())
        array_factor(geom, ref, weights[1], theta, phi)
        assert sum(counted) == 181 * 16 * 789


def _axis(draw_values, size):
    """Strictly increasing radians: general angles, multiples of 90 degrees, -0.0, negatives."""
    degrees = st.one_of(
        st.floats(-400.0, 400.0, allow_nan=False),
        st.sampled_from([-0.0, 0.0, -90.0, 90.0, 180.0, -180.0, 270.0, 360.0, 450.0]),
    )
    return np.unique(np.radians(draw_values(st.lists(degrees, min_size=1, max_size=size))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_property_array_factor_equals_reference(data):
    """array_factor against the full evaluation under np.array_equal, serial and threaded."""
    rows = data.draw(st.integers(1, 9), label="rows")
    cols = data.draw(st.integers(1, 9), label="cols")
    dx = data.draw(st.floats(0.001, 0.01), label="dx")
    dy = data.draw(st.one_of(st.just(dx), st.floats(0.001, 0.01)), label="dy")
    theta = _axis(lambda s: data.draw(s, label="theta_deg"), 12)
    phi = _axis(lambda s: data.draw(s, label="phi_deg"), 16)
    cpus = data.draw(st.integers(2, 5), label="cpus")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    geom = SurfaceGeometry(rows, cols, dx, dy, 30.0e9, math.sqrt(3.0))
    ref = make_reference(geom)
    weights = np.random.default_rng(seed).uniform(0.0, 1.0, size=geom.shape)
    weights[0, 0] = 1.0  # never all zero
    power_db, peak = array_factor_reference(geom, ref, weights, theta, phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OPENBLAS_NUM_THREADS", raising=False)
        mp.delenv("OMP_NUM_THREADS", raising=False)
        for threaded in (False, True):
            if threaded:  # as the force_threads fixture
                mp.setenv("OPENBLAS_NUM_THREADS", "1")
                mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                assert _cores.workers(theta.size) == min(theta.size, cpus)
            pattern = array_factor(geom, ref, weights, theta, phi)
            assert np.array_equal(pattern.power_db, power_db, equal_nan=True)
            assert pattern.peak_linear == peak


class TestDefaultAxes:
    @pytest.mark.parametrize(
        "step_deg",
        [0.1, 0.125, 0.3, 0.5, 0.7, 1.1, 1.5, 2.0, 2.7, 7.0, 13.0, 45.0, 50.0, 89.0, 90.0, 120.0],
    )
    def test_every_theta_row_is_an_elevation(self, step_deg):
        theta, _ = default_axes(step_deg)
        deg = np.degrees(theta)
        assert theta[0] == 0.0 and np.all(np.diff(theta) > 0.0)
        assert np.max(theta) <= math.pi / 2  # what Direction accepts
        # the rows before the last are step_deg apart; the last is within
        # half a step of the horizon
        assert np.allclose(np.diff(deg[:-1]), step_deg, rtol=0.0, atol=1e-9)
        assert 90.0 - deg[-1] <= step_deg / 2

    @pytest.mark.parametrize("step_deg", [0.125, 0.5, 1.5, 2.0])
    def test_grids_that_divide_ninety_end_on_the_horizon(self, step_deg):
        theta, _ = default_axes(step_deg)
        n = round(90.0 / step_deg) + 1
        assert np.array_equal(theta, np.radians(np.arange(n) * step_deg))
        assert theta[-1] == math.pi / 2

    @pytest.mark.parametrize(
        "step_deg, last", [(0.7, 89.6), (7.0, 84.0), (13.0, 78.0), (50.0, 50.0)]
    )
    def test_a_last_row_past_ninety_moves_onto_it(self, step_deg, last):
        deg = np.degrees(default_axes(step_deg)[0])
        assert deg[-1] == 90.0
        assert deg[-2] == pytest.approx(last, abs=1e-9)

    def test_cli_beampattern_at_13_degrees(self, tmp_path):
        out = tmp_path / "out"
        code = main(["beampattern", "--step-deg", "13", "--out", str(out), "--quiet"])
        assert code == 0
        rows = np.loadtxt(out / "pattern.csv", delimiter=",", skiprows=1)
        assert sorted(set(rows[:, 0])) == [0, 13, 26, 39, 52, 65, 78, 90]


class TestArrayFactor:
    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(8)
        geom = make_geometry(5, 4)
        ref = make_reference(geom)
        weights = rng.uniform(0.0, 1.0, size=geom.shape)
        theta = np.radians(np.array([0.0, 17.0, 41.0, 76.0]))
        phi = np.radians(np.array([3.0, 111.0, 222.0, 301.0]))
        pattern = array_factor(geom, ref, weights, theta, phi)
        raw = 10.0 ** (pattern.power_db / 10.0) * pattern.peak_linear
        expected = pattern_oracle(geom, ref, weights, theta, phi)
        assert np.allclose(raw, expected, rtol=1e-9, atol=1e-12)

    def test_phase_compensated_aperture_peaks_at_broadside(self):
        geom = make_geometry(8, 8)
        ref = make_reference(geom)
        # compensating the reference phases makes the aperture co-phased
        comp = np.conj(reference_field(geom, ref)) / ref.amplitude
        theta, phi = default_axes(2.0)
        pattern = array_factor(geom, ref, comp, theta, phi)
        it, ip = np.unravel_index(np.argmax(pattern.power_db), pattern.power_db.shape)
        assert pattern.theta_rad[it] == 0.0
        assert pattern.power_db[it, ip] == 0.0

    def test_single_element_is_isotropic(self):
        geom = make_geometry(1, 1)
        ref = make_reference(geom)
        theta, phi = default_axes(5.0)
        pattern = array_factor(geom, ref, np.ones((1, 1)), theta, phi)
        assert np.allclose(pattern.power_db, 0.0, atol=1e-12)

    def test_recorded_five_paths_peak_within_two_degrees(
        self, geom32, five_paths, five_dirs
    ):
        ref = make_reference(geom32)
        holo = record_hologram(
            geom32, ref, five_paths, RecordingConfig(0.0, 1, 0)
        )
        weights = make_weights(holo, "mean")
        theta, phi = default_axes(1.0)
        pattern = array_factor(geom32, ref, weights, theta, phi)
        found = find_peaks(pattern, count=5, min_separation_deg=5.0)
        assert found.complete
        for d in five_dirs:
            err = min(
                math.degrees(angular_separation(d, peak)) for peak, _ in found.peaks
            )
            assert err <= 2.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        geom = make_geometry(6, 6)
        ref = make_reference(geom)
        w = rng.uniform(0.0, 1.0, size=geom.shape)
        theta, phi = default_axes(4.0)
        p1 = array_factor(geom, ref, w, theta, phi)
        p2 = array_factor(geom, ref, 7.3 * w, theta, phi)
        assert np.allclose(p1.power_db, p2.power_db, atol=1e-9)

    def test_all_zero_weights_rejected(self):
        geom = make_geometry(3, 3)
        theta, phi = default_axes(10.0)
        with pytest.raises(ValueError):
            array_factor(geom, make_reference(geom), np.zeros((3, 3)), theta, phi)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("axis", ("theta", "phi"))
    def test_non_finite_axis_rejected(self, axis, bad):
        geom = make_geometry(4, 4)
        axes = {"theta": np.array([0.1, 0.2, 0.3]), "phi": np.array([0.0, 1.0, 2.0])}
        axes[axis][1] = bad
        w = np.ones(geom.shape)
        with pytest.raises(ValueError, match="finite"):
            array_factor(geom, make_reference(geom), w, axes["theta"], axes["phi"])


class TestPatternGrid:
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("axis", ("theta", "phi"))
    def test_non_finite_axis_rejected(self, axis, bad):
        axes = {"theta": np.array([0.1, 0.2, 0.3]), "phi": np.array([0.0, 1.0, 2.0])}
        axes[axis][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            PatternGrid(axes["theta"], axes["phi"], np.zeros((3, 3)))


def synthetic_pattern(power_db, theta_deg, phi_deg):
    return PatternGrid(
        np.radians(np.asarray(theta_deg, dtype=float)),
        np.radians(np.asarray(phi_deg, dtype=float)),
        np.asarray(power_db, dtype=float),
    )


class TestFindPeaks:
    def test_single_beam(self):
        theta = [0, 10, 20, 30]
        phi = [0, 90, 180, 270]
        grid = np.full((4, 4), -30.0)
        grid[2, 1] = 0.0
        found = find_peaks(synthetic_pattern(grid, theta, phi), 1, 5.0)
        assert found.complete
        direction, power = found.peaks[0]
        assert math.degrees(direction.theta) == pytest.approx(20.0)
        assert math.degrees(direction.phi) == pytest.approx(90.0)
        assert power == 0.0

    def test_equal_peaks_lexicographic_tie_break(self):
        theta = [0, 10, 20, 30, 40]
        phi = [0, 45, 90, 135]
        grid = np.full((5, 4), -40.0)
        grid[1, 3] = 0.0
        grid[3, 1] = 0.0
        found = find_peaks(synthetic_pattern(grid, theta, phi), 2, 5.0)
        assert found.complete
        first, second = found.peaks
        assert math.degrees(first[0].theta) == pytest.approx(10.0)
        assert math.degrees(first[0].phi) == pytest.approx(135.0)
        assert math.degrees(second[0].theta) == pytest.approx(30.0)

    def test_separation_and_count_flag(self):
        theta = [0, 10, 20]
        phi = [0, 120, 240]
        grid = np.full((3, 3), -40.0)
        grid[1, 1] = 0.0
        found = find_peaks(synthetic_pattern(grid, theta, phi), 3, 8.0)
        assert not found.complete
        assert len(found.peaks) >= 1

    def test_phi_wrap_local_maximum(self):
        # peak at phi = 0 must see its neighbor across the wrap
        theta = [10, 20, 30]
        phi = list(np.arange(0.0, 360.0, 45.0))
        grid = np.full((3, 8), -40.0)
        grid[1, 0] = 0.0
        grid[1, 7] = 5.0  # larger neighbor across the wrap
        found = find_peaks(synthetic_pattern(grid, theta, phi), 1, 1.0)
        direction, power = found.peaks[0]
        assert math.degrees(direction.phi) == pytest.approx(315.0)
        assert power == 5.0


def find_peaks_reference(pattern, count, min_separation_deg):
    """Nested-loop peak search; find_peaks must return the same peaks."""
    db = pattern.power_db
    nt, npnts = db.shape
    phi_step = pattern.phi_rad[1] - pattern.phi_rad[0] if npnts > 1 else 0.0
    phi_wraps = (
        npnts > 2
        and abs((pattern.phi_rad[-1] + phi_step) % (2 * math.pi) - pattern.phi_rad[0])
        < 1e-9
    )
    candidates = []
    for it in range(nt):
        for ip in range(npnts):
            val = db[it, ip]
            is_max = True
            for dt in (-1, 0, 1):
                for dp in (-1, 0, 1):
                    if dt == 0 and dp == 0:
                        continue
                    jt = it + dt
                    jp = ip + dp
                    if jt < 0 or jt >= nt:
                        continue
                    if jp < 0 or jp >= npnts:
                        if not phi_wraps:
                            continue
                        jp %= npnts
                    if db[jt, jp] > val:
                        is_max = False
                        break
                if not is_max:
                    break
            if is_max:
                candidates.append(
                    (float(pattern.theta_rad[it]), float(pattern.phi_rad[ip]), float(val))
                )
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    min_sep = math.radians(min_separation_deg)
    selected = []
    for th, ph, val in candidates:
        d = Direction(th, ph)
        if all(angular_separation(d, s) >= min_sep for s, _ in selected):
            selected.append((d, val))
        if len(selected) == count:
            break
    return selected, len(selected) == count


def random_peak_grid(rng, nt, nphi, wraps):
    theta = np.sort(rng.choice(np.arange(0.0, 90.5, 0.5), size=nt, replace=False))
    if wraps:
        phi = np.arange(nphi) * (360.0 / nphi)
    else:
        phi = np.sort(rng.choice(np.arange(0.0, 300.0, 2.5), size=nphi, replace=False))
    db = np.round(rng.normal(-20.0, 4.0, size=(nt, nphi)))  # integer plateaus
    db[rng.random((nt, nphi)) < 0.1] = -np.inf
    db[rng.integers(nt), rng.integers(nphi)] = 0.0
    return synthetic_pattern(db, theta, phi)


class TestFindPeaksAgainstLoop:
    @pytest.mark.parametrize("wraps", [True, False])
    @pytest.mark.parametrize("nt, nphi", [(1, 8), (1, 3), (6, 2), (7, 3), (12, 24), (25, 40)])
    def test_same_peaks_as_nested_loop(self, nt, nphi, wraps):
        rng = np.random.default_rng(nt * 1000 + nphi * 10 + wraps)
        for _ in range(5):
            pattern = random_peak_grid(rng, nt, nphi, wraps)
            # every candidate in order, then a separated, possibly incomplete subset
            for count, sep in ((nt * nphi, 0.0), (4, 10.0), (nt * nphi, 25.0)):
                want, complete = find_peaks_reference(pattern, count, sep)
                got = find_peaks(pattern, count, sep)
                assert got.complete == complete
                assert got.peaks == want

    def test_all_equal_grid_keeps_every_point(self):
        pattern = synthetic_pattern(np.zeros((3, 4)), [0, 10, 20], [0, 90, 180, 270])
        got = find_peaks(pattern, 12, 0.0)
        assert got.peaks == find_peaks_reference(pattern, 12, 0.0)[0]
        assert len(got.peaks) == 12


class TestSidelobeMetrics:
    def test_delta_beam_floor(self):
        theta = list(range(0, 91, 5))
        phi = list(range(0, 360, 10))
        grid = np.full((len(theta), len(phi)), -45.0)
        grid[6, 9] = 0.0  # theta 30, phi 90
        pattern = synthetic_pattern(grid, theta, phi)
        metrics = sidelobe_metrics(pattern, [Direction.from_degrees(30, 90)], 5.0)
        assert metrics["peak_sidelobe_db"] == -45.0
        assert metrics["mean_sidelobe_db"] == pytest.approx(-45.0)

    def test_guard_covering_grid_rejected(self):
        pattern = synthetic_pattern(np.zeros((2, 2)), [10, 11], [40, 41])
        with pytest.raises(ValueError):
            sidelobe_metrics(pattern, [Direction.from_degrees(10.5, 40.5)], 60.0)

    def test_nonpositive_guard_rejected(self):
        pattern = synthetic_pattern(np.zeros((2, 2)), [10, 11], [40, 41])
        with pytest.raises(ValueError):
            sidelobe_metrics(pattern, [Direction.from_degrees(10, 40)], 0.0)


def _cos_separation(pattern, d):
    ct = np.cos(pattern.theta_rad)[:, None]
    st = np.sin(pattern.theta_rad)[:, None]
    cp = np.cos(pattern.phi_rad)[None, :]
    sp = np.sin(pattern.phi_rad)[None, :]
    ux, uy, uz = d.unit_vector()
    return st * cp * ux + st * sp * uy + ct * uz


def sidelobe_mask_reference(pattern, dirs, guard):
    """Full-grid arccos per direction; _sidelobe_mask must equal it."""
    mask = np.ones(pattern.power_db.shape, dtype=bool)
    for d in dirs:
        mask &= np.arccos(np.clip(_cos_separation(pattern, d), -1.0, 1.0)) > guard
    return mask


def sidelobe_metrics_reference(pattern, dirs, guard_deg):
    """Full-grid arccos mask and full-grid linear power; sidelobe_metrics must equal it."""
    mask = sidelobe_mask_reference(pattern, dirs, math.radians(guard_deg))
    if not np.any(mask):
        raise ValueError("guard regions cover the entire pattern grid")
    linear = 10.0 ** (pattern.power_db[mask] / 10.0)
    return {
        "peak_sidelobe_db": float(np.max(pattern.power_db[mask])),
        "mean_sidelobe_db": float(10.0 * np.log10(np.mean(linear))),
    }


def random_pattern(rng, step_deg=1.0):
    theta, phi = default_axes(step_deg)
    db = rng.uniform(-60.0, 0.0, size=(theta.size, phi.size))
    db[rng.integers(theta.size), rng.integers(phi.size)] = 0.0
    return PatternGrid(theta, phi, db)


def assert_sidelobes_match_reference(pattern, dirs, guard_deg):
    guard = math.radians(guard_deg)
    assert np.array_equal(
        _sidelobe_mask(pattern, dirs, guard), sidelobe_mask_reference(pattern, dirs, guard)
    )
    try:
        want = sidelobe_metrics_reference(pattern, dirs, guard_deg)
    except ValueError:
        with pytest.raises(ValueError, match="cover the entire"):
            sidelobe_metrics(pattern, dirs, guard_deg)
    else:
        assert sidelobe_metrics(pattern, dirs, guard_deg) == want


class TestSidelobeMaskWindow:
    def test_random_directions_match_arccos_reference(self):
        rng = np.random.default_rng(55)
        pattern = random_pattern(rng)
        for _ in range(25):
            dirs = [
                Direction(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi))
                for _ in range(rng.integers(1, 6))
            ]
            assert_sidelobes_match_reference(pattern, dirs, rng.uniform(0.2, 60.0))

    @pytest.mark.parametrize("guard_deg", [0.01, 95.0, 179.0, 180.0, 250.0])
    def test_extreme_guards_match_arccos_reference(self, guard_deg):
        pattern = random_pattern(np.random.default_rng(3), step_deg=2.0)
        dirs = [Direction.from_degrees(30.0, 90.0), Direction.from_degrees(0.0, 0.0)]
        assert_sidelobes_match_reference(pattern, dirs, guard_deg)

    def test_rows_outside_zero_to_pi_match_arccos_reference(self):
        theta = np.radians(np.arange(-30.0, 215.0, 5.0))
        phi = np.radians(np.arange(0.0, 360.0, 10.0))
        db = np.random.default_rng(4).uniform(-40.0, 0.0, size=(theta.size, phi.size))
        pattern = PatternGrid(theta, phi, db)
        dirs = [Direction.from_degrees(10.0, 200.0), Direction.from_degrees(80.0, 20.0)]
        for guard_deg in (3.0, 25.0, 70.0):
            assert_sidelobes_match_reference(pattern, dirs, guard_deg)

    def test_cone_boundary_and_window_edge_match_arccos_reference(self):
        """Guards at a cell's separation or a row's window edge, one ulp either way."""
        rng = np.random.default_rng(9)
        pattern = random_pattern(rng)
        theta = pattern.theta_rad
        nt, nphi = pattern.power_db.shape
        for _ in range(12):
            ip = rng.integers(nphi)
            d = Direction(float(theta[rng.integers(nt)]), float(pattern.phi_rad[ip]))
            cos_sep = _cos_separation(pattern, d)
            guards = [
                # a random cell on the cone, and one in the direction's own
                # phi column, where the separation is the theta difference
                math.acos(np.clip(cos_sep[rng.integers(nt), rng.integers(nphi)], -1.0, 1.0)),
                math.acos(np.clip(cos_sep[rng.integers(nt), ip], -1.0, 1.0)),
                # a row exactly on the edge of the tested window
                abs(float(theta[rng.integers(nt)]) - d.theta) - _ROW_MARGIN,
            ]
            for guard in guards:
                if guard <= 0.0:
                    continue
                for g in (guard, math.nextafter(guard, 0.0), math.nextafter(guard, 4.0)):
                    assert np.array_equal(
                        _sidelobe_mask(pattern, [d], g), sidelobe_mask_reference(pattern, [d], g)
                    )
                    assert_sidelobes_match_reference(pattern, [d], math.degrees(g))


# Cell values of the differential properties: integer plateaus and ties,
# one non-integer level and -inf cells (a zero-power direction).
PEAK_LEVELS = [-np.inf, -3.0, -2.0, -1.5, -1.0, 0.0]
THETA_DEG = np.arange(0.0, 90.5, 0.5).tolist()
OPEN_PHI_DEG = np.arange(0.0, 300.0, 2.5).tolist()


@st.composite
def level_patterns(draw, max_rows=10, max_cols=16):
    """Small patterns of PEAK_LEVELS cells on a phi axis that wraps or does not.

    A wrapping axis is uniform over the full circle (it wraps when it has
    more than 2 points); an open one is a sorted subset of [0, 300) deg.
    """
    nt = draw(st.integers(1, max_rows))
    nphi = draw(st.integers(1, max_cols))
    theta = sorted(draw(st.lists(st.sampled_from(THETA_DEG), min_size=nt, max_size=nt, unique=True)))
    if draw(st.booleans()):
        phi = (np.arange(nphi) * (360.0 / nphi)).tolist()
    else:
        phi = sorted(
            draw(st.lists(st.sampled_from(OPEN_PHI_DEG), min_size=nphi, max_size=nphi, unique=True))
        )
    cells = draw(st.lists(st.sampled_from(PEAK_LEVELS), min_size=nt * nphi, max_size=nt * nphi))
    return synthetic_pattern(np.reshape(cells, (nt, nphi)), theta, phi)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    pattern=level_patterns(),
    count=st.integers(1, 200),
    sep=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
)
def test_find_peaks_equals_the_nested_loop(pattern, count, sep):
    want, complete = find_peaks_reference(pattern, count, sep)
    got = find_peaks(pattern, count, sep)
    assert got.peaks == want and got.complete == complete


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data(), pattern=level_patterns())
def test_sidelobe_metrics_equal_the_full_mask(data, pattern):
    theta = np.degrees(pattern.theta_rad).tolist()
    phi = np.degrees(pattern.phi_rad).tolist()
    grid_point = st.tuples(st.sampled_from(theta), st.sampled_from(phi))
    anywhere = st.tuples(st.floats(0.0, 90.0), st.floats(0.0, 359.9))
    dirs = [
        Direction.from_degrees(*d)
        for d in data.draw(st.lists(st.one_of(grid_point, anywhere), min_size=1, max_size=3))
    ]
    # a guard of a theta spacing puts a row on the window's edge
    spacings = [abs(a - b) for a in theta for b in theta if a != b] or [5.0]
    guard_deg = data.draw(st.one_of(st.sampled_from(spacings), st.floats(0.05, 90.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # log10(0) when only -inf cells are left
        assert_sidelobes_match_reference(pattern, dirs, guard_deg)


def export_pattern_csv_reference(pattern, path):
    """Per-cell f-string writer; export_pattern_csv must write the same bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta_deg,phi_deg,power_db\n")
        for it, th in enumerate(np.degrees(pattern.theta_rad)):
            for ip, ph in enumerate(np.degrees(pattern.phi_rad)):
                fh.write(f"{th:.9g},{ph:.9g},{pattern.power_db[it, ip]:.9g}\n")


class TestValueAt:
    def test_nearest_phi_across_the_wrap(self):
        phi = list(np.arange(0.0, 360.0, 45.0))
        grid = np.full((3, 8), -40.0)
        grid[:, 0] = 0.0
        grid[:, 7] = -20.0
        pattern = synthetic_pattern(grid, [0, 10, 20], phi)
        assert pattern.value_at(Direction.from_degrees(10, 359.0)) == 0.0
        assert pattern.value_at(Direction.from_degrees(10, 340.0)) == 0.0
        assert pattern.value_at(Direction.from_degrees(10, 330.0)) == -20.0
        assert pattern.value_at(Direction.from_degrees(10, 1.0)) == 0.0

    def test_partial_phi_axis_does_not_wrap(self):
        phi = [0, 45, 90, 135, 180]
        grid = np.full((3, 5), -40.0)
        grid[:, 0] = 0.0
        grid[:, 4] = -20.0
        pattern = synthetic_pattern(grid, [0, 10, 20], phi)
        # 359 deg is 1 deg from 0 around the circle, but the axis stops at 180
        assert pattern.value_at(Direction.from_degrees(10, 359.0)) == -20.0
        assert pattern.value_at(Direction.from_degrees(10, 20.0)) == 0.0


def assert_csv_matches_reference(pattern, tmp_path):
    export_pattern_csv(pattern, tmp_path / "got.csv")
    export_pattern_csv_reference(pattern, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


def values_pattern(values, cols=7):
    """The values in row-major order on a synthetic grid, padded with -20.5 dB."""
    values = np.asarray(values, dtype=float)
    rows = -(-values.size // cols)
    grid = np.full(rows * cols, -20.5)
    grid[: values.size] = values
    theta, phi = np.arange(rows) * 0.5, np.arange(cols) * 45.0
    return synthetic_pattern(grid.reshape(rows, cols), theta, phi)


def neighbours(v):
    """v and the floats one ulp either side of it."""
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def ninth_digit_ties():
    """Exact binary values whose 10th significant digit is a trailing 5, per decade.

    An odd m over 512, 256 or 128 puts |v| in [1, 10), [10, 100) or [100, 1000)
    with y = |v| * 10**(8 - x) an odd multiple of 1/2: the tie goes to even.
    """
    ties = []
    for denominator, lo, hi in ((512, 1, 10), (256, 10, 100), (128, 100, 1000)):
        for m in (lo * denominator + 1, (lo + hi) * denominator // 2 + 1, hi * denominator - 1):
            ties.append(m / denominator)
    return ties


class TestCsvExport:
    def test_same_bytes_as_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(12)
        theta, phi = default_axes(1.5)
        db = rng.normal(-25.0, 12.0, size=(theta.size, phi.size))
        db[rng.random(db.shape) < 0.05] = -np.inf
        db[0, 0] = 0.0
        db[1, 1] = -0.0
        db[2, 2] = -1.0e-12
        got = assert_csv_matches_reference(PatternGrid(theta, phi, db), tmp_path)
        assert b"-inf" in got

    def test_format_and_order(self, tmp_path):
        pattern = synthetic_pattern([[0.0, -3.5], [-10.0, -20.25]], [0, 10], [0, 180])
        out = tmp_path / "pattern.csv"
        export_pattern_csv(pattern, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_deg,phi_deg,power_db"
        assert lines[1] == "0,0,0"
        assert lines[2] == "0,180,-3.5"
        assert lines[3] == "10,0,-10"
        assert lines[4] == "10,180,-20.25"

    def test_decade_edges(self, tmp_path):
        edges = [w for v in (1.0, 10.0, 100.0, 1000.0) for w in neighbours(v)]
        assert_csv_matches_reference(values_pattern(edges + [-v for v in edges]), tmp_path)

    def test_ninth_digit_ties(self, tmp_path):
        ties = ninth_digit_ties()
        assert all(f"{v:.10g}"[-1] == "5" for v in ties)
        near = [w for v in ties for w in neighbours(v)]
        # Decimal ties that are not exact doubles. For these y rounds to
        # exactly k + 1/2, where rint's choice of the even neighbour is the
        # wrong one, so they must take the fallback.
        near += [1.368761715, 8.319432155, 34.28080425, 92.14800195, 589.2624925, 861.9177155]
        assert_csv_matches_reference(values_pattern(near + [-v for v in near]), tmp_path)

    def test_rounding_carries_into_the_next_decade(self, tmp_path):
        carries = [9.999999995, 99.99999995, 999.9999995, 9.9999999951, 99.999999951, 999.99999951]
        pattern = values_pattern(carries + [-v for v in carries])
        got = assert_csv_matches_reference(pattern, tmp_path)
        for text in (b",10\n", b",100\n", b",1000\n", b",-10\n", b",-100\n", b",-1000\n"):
            assert text in got

    def test_zeros_infinities_and_nan(self, tmp_path):
        got = assert_csv_matches_reference(
            values_pattern([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 0.5, -0.999999999]),
            tmp_path,
        )
        for text in (b",0\n", b",-0\n", b",inf\n", b",-inf\n", b",nan\n"):
            assert text in got

    def test_exponent_form(self, tmp_path):
        small = [9.99999999e-5, -1.23456789e-5, 5e-324, -2.2250738585072014e-308, 1e-4]
        large = [1e9, -1.5e9, 123456789012.0, -1.7976931348623157e308, 999999999.5]
        got = assert_csv_matches_reference(values_pattern(small + large), tmp_path)
        assert b"e-05" in got and b"e+308" in got

    def test_long_axis_strings(self, tmp_path):
        theta = [0.123456789, 1.00000001, 45.987654321, 89.9999999]
        phi = [0.0, 1e-7, 123.456789012, 359.999999]
        db = np.random.default_rng(3).uniform(-60.0, 0.0, size=(len(theta), len(phi)))
        got = assert_csv_matches_reference(synthetic_pattern(db, theta, phi), tmp_path)
        assert b"\n45.9876543,123.456789," in got  # a 12-byte theta field

    def test_threaded_and_serial_bytes_match(self, tmp_path, serial, force_threads):
        rng = np.random.default_rng(5)
        theta, phi = default_axes(2.0)  # 46 rows: two full blocks and a short one
        db = rng.uniform(-80.0, 0.5, size=(theta.size, phi.size))
        db[rng.random(db.shape) < 0.02] = -np.inf
        pattern = PatternGrid(theta, phi, db)
        export_pattern_csv(pattern, tmp_path / "serial.csv")
        force_threads(2)
        assert _cores.workers(3) == 2
        want = assert_csv_matches_reference(pattern, tmp_path)
        assert want == (tmp_path / "serial.csv").read_bytes()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_same_bytes(self, tmp_path_factory, data):
        rows = data.draw(st.integers(1, 40), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        axis = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
        theta = data.draw(st.lists(axis, min_size=rows, max_size=rows, unique=True), label="theta")
        phi = data.draw(st.lists(axis, min_size=cols, max_size=cols, unique=True), label="phi")
        edges = [w for v in ninth_digit_ties() + [1.0, 10.0, 100.0, 1000.0] for w in neighbours(v)]
        value = st.one_of(
            st.floats(-1000.0, 1000.0),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(edges + [-v for v in edges]),
        )
        db = data.draw(st.lists(value, min_size=rows * cols, max_size=rows * cols), label="db")
        pattern = synthetic_pattern(np.reshape(db, (rows, cols)), sorted(theta), sorted(phi))
        assert_csv_matches_reference(pattern, tmp_path_factory.mktemp("csv"))


class TestApertureGrowth:
    def test_bigger_surface_not_worse(self, five_dirs):
        ratios = []
        for size in (8, 16, 32):
            geom = make_geometry(size, size)
            ref = make_reference(geom)
            holo = record_hologram(
                geom, ref, make_five_paths(), RecordingConfig(0.0, 1, 0)
            )
            weights = make_weights(holo, "mean")
            theta, phi = default_axes(1.0)
            pattern = array_factor(geom, ref, weights, theta, phi)
            floor = sidelobe_metrics(pattern, five_dirs, 8.0)["mean_sidelobe_db"]
            ratios.append(-floor)
        assert ratios[0] <= ratios[1] <= ratios[2]

    def test_path_directions_dominate_median(self, geom32, five_paths):
        ref = make_reference(geom32)
        holo = record_hologram(
            geom32, ref, five_paths, RecordingConfig(0.0, 1, 0)
        )
        weights = make_weights(holo, "mean")
        theta, phi = default_axes(1.0)
        pattern = array_factor(geom32, ref, weights, theta, phi)
        median = float(np.median(pattern.power_db))
        for p in five_paths.paths:
            assert pattern.value_at(p.direction) >= median + 10.0
