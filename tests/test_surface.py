import cmath
import math

import numpy as np
import pytest

from rrmsim import (
    Direction,
    PathSet,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    steering_field,
)
from rrmsim.channel import Path

from conftest import make_five_paths, make_geometry, make_reference


def element_position_oracle(geom, m, n):
    # independent of SurfaceGeometry.element_x/element_y
    x = geom.dx * (m - (geom.rows + 1) / 2)
    y = geom.dy * (n - (geom.cols + 1) / 2)
    return x, y


class TestGeometry:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SurfaceGeometry(0, 3, 5e-3, 5e-3, 30e9, 1.0)
        with pytest.raises(ValueError):
            SurfaceGeometry(3, 3, -1e-3, 5e-3, 30e9, 1.0)
        with pytest.raises(ValueError):
            # substrate wavenumber below free space
            geom = make_geometry(3, 3)
            SurfaceGeometry(3, 3, geom.dx, geom.dy, geom.fc, geom.k_free / 2)

    def test_k_free_value(self):
        geom = make_geometry(4, 4, fc=30e9)
        assert geom.k_free == pytest.approx(2 * math.pi * 30e9 / 299_792_458.0, rel=1e-12)
        assert geom.k_sub == pytest.approx(math.sqrt(3) * geom.k_free, rel=1e-12)

    def test_center_is_origin_even_and_odd(self):
        for rows, cols in ((3, 3), (4, 4), (5, 8)):
            geom = make_geometry(rows, cols)
            assert np.sum(geom.element_x()) == pytest.approx(0.0, abs=1e-15)
            assert np.sum(geom.element_y()) == pytest.approx(0.0, abs=1e-15)

    def test_feed_distance_matches_coordinates(self):
        geom = make_geometry(5, 7)
        d = geom.feed_distance()
        for m in range(1, 6):
            for n in range(1, 8):
                x, y = element_position_oracle(geom, m, n)
                assert d[m - 1, n - 1] == pytest.approx(math.hypot(x, y), rel=1e-12)


class TestDirection:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(math.pi / 2 + 0.01, 0.0)
        with pytest.raises(ValueError):
            Direction(0.1, 2 * math.pi)

    def test_from_degrees_wraps_phi(self):
        d = Direction.from_degrees(10.0, 370.0)
        assert d.phi == pytest.approx(math.radians(10.0))

    def test_from_degrees_tiny_negative_phi_wraps_to_zero(self):
        # -1e-17 % 360.0 rounds to 360.0; the wrap must still land in [0, 2*pi)
        assert Direction.from_degrees(10.0, -1e-17).phi == 0.0
        assert Direction.from_degrees(10.0, -90.0).phi == pytest.approx(math.radians(270.0))


class TestReferenceField:
    def test_center_element_of_odd_grid_is_amplitude(self):
        geom = make_geometry(3, 3)
        ref = make_reference(geom, amplitude=1.7)
        field = reference_field(geom, ref)
        assert field[1, 1] == pytest.approx(1.7 + 0j, abs=1e-15)

    def test_corner_phase_closed_form(self):
        # 3x3 half-wavelength grid: corner distance sqrt(2)*lambda/2, so the
        # phase is -sqrt(3) * (2 pi / lambda) * sqrt(2) * lambda / 2
        # = -sqrt(6) * pi.
        geom = make_geometry(3, 3)
        field = reference_field(geom, make_reference(geom, amplitude=1.0))
        lam = geom.wavelength
        d_corner = math.hypot(lam / 2, lam / 2)
        assert d_corner == pytest.approx(math.sqrt(2) * lam / 2, rel=1e-12)
        expected = cmath.exp(-1j * math.sqrt(6) * math.pi)
        assert field[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_central_symmetry_exact(self):
        for rows, cols in ((3, 3), (4, 6), (7, 4)):
            geom = make_geometry(rows, cols)
            field = reference_field(geom, make_reference(geom))
            assert np.array_equal(field, field[::-1, ::-1])

    def test_frequency_mismatch_rejected(self):
        geom = make_geometry(3, 3)
        bad = ReferenceWaveSpec(1.0, 2 * math.pi * 28e9)
        with pytest.raises(ValueError):
            reference_field(geom, bad)


class TestSteering:
    def test_broadside_is_unity(self):
        geom = make_geometry(3, 5)
        d = Direction(0.0, 0.3)
        field = steering_field(geom, d)
        assert np.allclose(field, 1.0, atol=1e-15)
        assert field[1, 3] == pytest.approx(1.0 + 0j)  # element (2, 4)

    def test_endfire_half_wavelength_element(self):
        # theta 90 deg, phi 0: element (3, 2) of a 3x3 grid sits half a
        # wavelength along x, so the phase is exp(-j pi) = -1.
        geom = make_geometry(3, 3)
        d = Direction.from_degrees(90.0, 0.0)
        value = steering_field(geom, d)[2, 1]
        # cross-check with a from-scratch coordinate computation
        x, _y = element_position_oracle(geom, 3, 2)
        expected = cmath.exp(-1j * geom.k_free * x * math.sin(math.pi / 2))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_mirror_element_is_conjugate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            geom = make_geometry(rows, cols)
            d = Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            field = steering_field(geom, d)
            assert np.allclose(field[::-1, ::-1], np.conj(field), atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(4)
        geom = make_geometry(6, 7)
        for _ in range(10):
            d = Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert np.max(np.abs(np.abs(steering_field(geom, d)) - 1.0)) < 1e-12


class TestObjectField:
    def test_single_broadside_path_is_ones(self):
        geom = make_geometry(4, 4)
        ref = make_reference(geom)
        paths = PathSet((Path(1.0 + 0j, 0.0, Direction(0.0, 0.0)),))
        field = object_field(geom, paths, ref)
        assert np.allclose(field, 1.0, atol=1e-15)

    def test_conjugate_pair_is_real(self):
        # two equal-gain paths whose steering phases are conjugate at the
        # mirrored element position give 2*cos there
        geom = make_geometry(5, 5)
        ref = make_reference(geom)
        d = Direction.from_degrees(35.0, 70.0)
        paths = PathSet((Path(1.0 + 0j, 0.0, d), Path(1.0 + 0j, 0.0, d)))
        single = steering_field(geom, d)
        combined = object_field(geom, paths, ref)
        # sum of a value at (m,n) and its own conjugate position value
        mirrored = combined + combined[::-1, ::-1]
        assert np.allclose(np.imag(mirrored), 0.0, atol=1e-12)
        assert np.allclose(
            np.real(mirrored), 4.0 * np.cos(np.angle(single)), atol=1e-12
        )

    def test_empty_paths_rejected(self):
        geom = make_geometry(3, 3)
        with pytest.raises(ValueError):
            object_field(geom, PathSet(()), make_reference(geom))

    def test_five_path_brute_force_oracle(self, geom32):
        # element-by-element, path-by-path loop with cmath
        ref = make_reference(geom32)
        paths = make_five_paths()
        field = object_field(geom32, paths, ref)
        k = geom32.k_free
        for m in (1, 7, 16, 32):
            for n in (1, 9, 25, 32):
                x = geom32.dx * (m - (geom32.rows + 1) / 2)
                y = geom32.dy * (n - (geom32.cols + 1) / 2)
                total = 0j
                for p in paths.paths:
                    d = x * math.sin(p.direction.theta) * math.cos(p.direction.phi)
                    d += y * math.sin(p.direction.theta) * math.sin(p.direction.phi)
                    total += (
                        p.gain
                        * cmath.exp(-1j * ref.angular_frequency * p.delay)
                        * cmath.exp(-1j * k * d)
                    )
                assert field[m - 1, n - 1] == pytest.approx(total, abs=1e-12)

    def test_linearity_in_gains(self):
        geom = make_geometry(6, 5)
        ref = make_reference(geom)
        base = make_five_paths()
        c = 0.7 - 1.9j
        scaled = PathSet(tuple(Path(p.gain * c, p.delay, p.direction) for p in base.paths))
        f_scaled = object_field(geom, scaled, ref)
        f_base = object_field(geom, base, ref)
        assert np.allclose(f_scaled, c * f_base, atol=1e-13)
