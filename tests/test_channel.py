import math

import numpy as np
import pytest

from rrmsim import ChannelConfig, Direction, PathSet, ProfileError, load_cdl_profile, sample_paths
from rrmsim.channel import Path, _parsed_profile, bundled_cdl_d


class TestPathSet:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Path(1.0, -1e-9, Direction(0.1, 0.2))


class TestSamplePaths:
    def test_manual_passthrough_verbatim(self):
        paths = tuple(
            Path(0.5 + 0.5j, k * 1e-9, Direction(0.2 + 0.1 * k, 1.0)) for k in range(3)
        )
        cfg = ChannelConfig("manual", paths=paths)
        out = sample_paths(cfg, 7)
        assert out.paths == paths

    def test_manual_zero_power_rejected(self):
        silent = (Path(0j, 0.0, Direction(0.2, 1.0)), Path(0j, 1e-9, Direction(0.3, 2.0)))
        with pytest.raises(ValueError, match="paths: "):
            ChannelConfig("manual", paths=silent)
        # the source kinds that draw their own paths ignore the manual list
        assert ChannelConfig("rician_random", paths=silent).kind == "rician_random"

    def test_rician_degenerate_single_los(self):
        cfg = ChannelConfig("rician_random", L=1, k_factor_db=math.inf)
        out = sample_paths(cfg, 0)
        assert len(out) == 1
        assert out.paths[0].gain == pytest.approx(1.0)
        assert out.paths[0].delay == 0.0

    def test_rician_structure(self):
        cfg = ChannelConfig("rician_random", L=5, k_factor_db=10.0)
        out = sample_paths(cfg, 3)
        assert len(out) == 5
        assert out.paths[0].delay == 0.0  # line of sight
        assert abs(out.total_power() - 1.0) < 1e-12
        for p in out.paths[1:]:
            assert 0.0 <= p.delay <= cfg.max_delay

    def test_k_factor_power_split_law_of_large_numbers(self):
        # aggregate line-of-sight power fraction over many draws approaches
        # k/(k+1) = 10/11 for a 10 dB K-factor
        cfg = ChannelConfig("rician_random", L=5, k_factor_db=10.0)
        rng = np.random.default_rng(12345)
        los = 0.0
        total = 0.0
        n = 100_000
        for _ in range(n):
            ps = _fast_rician(cfg, rng)
            los += abs(ps[0]) ** 2
            total += sum(abs(g) ** 2 for g in ps)
        assert los / total == pytest.approx(10.0 / 11.0, rel=0.01)

    def test_same_seed_bit_reproducible(self):
        cfg = ChannelConfig("rician_random", L=4)
        a = sample_paths(cfg, 55)
        b = sample_paths(cfg, 55)
        assert a.paths == b.paths

    def test_directions_respect_ranges(self):
        cfg = ChannelConfig(
            "rician_random",
            L=6,
            theta_range=(math.radians(20), math.radians(40)),
            phi_range=(math.radians(100), math.radians(140)),
        )
        for seed in range(10):
            for p in sample_paths(cfg, seed).paths:
                assert math.radians(20) <= p.direction.theta <= math.radians(40)
                assert math.radians(100) <= p.direction.phi <= math.radians(140)

    def test_negative_phi_range_wraps(self):
        cfg = ChannelConfig(
            "rician_random", L=6, phi_range=(math.radians(-10), math.radians(10))
        )
        seen_wrapped = False
        for seed in range(10):
            for p in sample_paths(cfg, seed).paths:
                phi = p.direction.phi
                assert 0.0 <= phi < 2 * math.pi
                assert phi <= math.radians(10) or phi >= math.radians(350)
                seen_wrapped |= phi >= math.radians(350)
        assert seen_wrapped


def _fast_rician(cfg, rng):
    """Gain-only re-draw mirroring sample_paths' Rician recipe (speed)."""
    los_frac = 1.0 / (1.0 + 10.0 ** (-cfg.k_factor_db / 10.0))
    n = cfg.L - 1
    sigma2 = (1.0 - los_frac) / n
    re = rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=n)
    im = rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=n)
    gains = [math.sqrt(los_frac)] + [complex(a, b) for a, b in zip(re, im)]
    norm = math.sqrt(sum(abs(g) ** 2 for g in gains))
    return [g / norm for g in gains]


class TestCdlProfile:
    def test_single_row(self):
        out = load_cdl_profile("0,0,0,0", 3e-8)
        assert len(out) == 1
        p = out.paths[0]
        assert p.delay == 0.0
        assert abs(p.gain) == pytest.approx(1.0)
        assert p.direction.theta == pytest.approx(math.radians(90.0))

    def test_power_ratio_after_normalization(self):
        out = load_cdl_profile("0,0,10,95\n1,-3,20,85", 1e-8)
        g0, g1 = (abs(p.gain) ** 2 for p in out.paths)
        assert g0 / g1 == pytest.approx(10 ** 0.3, rel=1e-9)
        assert abs(out.total_power() - 1.0) < 1e-12

    def test_comments_and_blank_lines(self):
        text = "# header\n\n0, 0, 0, 90  # inline comment\n1, -3, 10, 95\n"
        out = load_cdl_profile(text, 2e-8)
        assert len(out) == 2
        assert out.paths[1].delay == pytest.approx(2e-8)

    def test_malformed_row_names_line(self):
        with pytest.raises(ProfileError, match="line 3"):
            load_cdl_profile("0,0,0,90\n1,-3,10,95\n2,-5,20\n", 1e-8)
        with pytest.raises(ProfileError, match="line 2"):
            load_cdl_profile("0,0,0,90\n1,x,10,95\n", 1e-8)

    def test_empty_profile_rejected(self):
        with pytest.raises(ProfileError):
            load_cdl_profile("# only comments\n", 1e-8)

    def test_bundled_table(self):
        delay_spread = 3e-8
        out = load_cdl_profile(bundled_cdl_d(), delay_spread)
        assert len(out) == 13
        assert abs(out.total_power() - 1.0) < 1e-12
        assert max(p.delay for p in out.paths) == pytest.approx(12.525 * delay_spread)
        for p in out.paths:
            assert 0.0 <= p.direction.theta <= math.pi / 2
            assert 0.0 <= p.direction.phi < 2 * math.pi

    def test_tiny_negative_azimuth_wraps_to_zero(self):
        out = load_cdl_profile("0.0, 0.0, -1e-17, 90.0", 1e-8)
        assert out.paths[0].direction.phi == 0.0

    def test_bundled_azimuths_unchanged_by_wrap(self):
        out = load_cdl_profile(bundled_cdl_d(), 3e-8)
        rows = [
            line.split("#", 1)[0].split(",")
            for line in bundled_cdl_d().splitlines()
            if line.split("#", 1)[0].strip()
        ]
        for p, row in zip(out.paths, rows):
            assert p.direction.phi == math.radians(float(row[2]) % 360.0)

    def test_sampler_applies_random_phases(self):
        cfg = ChannelConfig("cdl_profile", delay_spread=3e-8)
        a = sample_paths(cfg, 1)
        b = sample_paths(cfg, 2)
        assert abs(a.total_power() - 1.0) < 1e-12
        assert any(pa.gain != pb.gain for pa, pb in zip(a.paths, b.paths))
        assert all(pa.delay == pb.delay for pa, pb in zip(a.paths, b.paths))
        assert all(abs(pa.gain) == pytest.approx(abs(pb.gain)) for pa, pb in zip(a.paths, b.paths))

    def test_parsed_profile_cached_and_equal(self):
        cfg = ChannelConfig("cdl_profile", delay_spread=3e-8)
        first = _parsed_profile(None, 3e-8)
        assert _parsed_profile(None, 3e-8) is first
        assert first == load_cdl_profile(bundled_cdl_d(), 3e-8)
        a, b = sample_paths(cfg, 5), sample_paths(cfg, 5)
        assert a == b
        assert [p.delay for p in a.paths] == [p.delay for p in first.paths]

    def test_cached_sampler_still_rejects_malformed_profile(self):
        cfg = ChannelConfig("cdl_profile", profile_text="0,0,0,90\n1,x,10,95\n")
        for _ in range(2):
            with pytest.raises(ProfileError, match="line 2"):
                sample_paths(cfg, 0)
