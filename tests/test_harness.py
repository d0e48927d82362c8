import json
import math
import shutil

import numpy as np
import pytest

from rrmsim.harness import (
    ConfigError,
    ExperimentConfig,
    ResultSet,
    emit_csv,
    load_config,
    run_preset,
    save_config,
)
from rrmsim.harness import config as config_module
from rrmsim.harness import invariants
from rrmsim.harness.cli import main
from rrmsim.harness.config import OutageBlock, config_from_dict
from rrmsim.harness.presets import resolve_config
from rrmsim.harness.results import fmt9
from rrmsim.link import outage_ci

from conftest import per_trial_mi


def _path(**fields):
    return {"theta_deg": 10.0, "phi_deg": 0.0, **fields}


# One config per load-time rule, with the dotted key its ConfigError must name.
REJECTED = [
    ({"surface": {"M": 0}}, "surface.M"),
    ({"surface": {"N": 0}}, "surface.N"),
    ({"surface": {"fc": 0.0}}, "surface.fc"),
    ({"surface": {"fc": -1.0}}, "surface.fc"),
    ({"surface": {"substrate_index": 0.5}}, "surface.substrate_index"),
    ({"surface": {"dx": 0.0}}, "surface.dx"),
    ({"surface": {"dy": -1.0}}, "surface.dy"),
    ({"reference": {"amplitude": 0.0}}, "reference.amplitude"),
    ({"reference": {"amplitude": -1.0}}, "reference.amplitude"),
    ({"recording": {"user_amplitude": -1.0}}, "recording.user_amplitude"),
    # Amplitude bounds: each of the first three loaded before them and exited 4 mid-run.
    ({"recording": {"user_amplitude": 1e160}}, "recording.user_amplitude"),
    ({"recording": {"user_amplitude": 0.0}}, "recording.user_amplitude"),
    ({"reference": {"amplitude": 1e200}}, "reference.amplitude"),
    ({"reference": {"amplitude": 1e-5}}, "reference.amplitude"),
    ({"recording": {"duration_symbols": 0}}, "recording.duration_symbols"),
    ({"recording": {"snr_db": 3090.0}}, "recording.snr_db"),
    ({"recording": {"snr_db": -3240.0}}, "recording.snr_db"),
    ({"channel": {"kind": "ray_traced"}}, "channel.kind"),
    ({"channel": {"L": 0}}, "channel.L"),
    ({"channel": {"max_delay": 0.0}}, "channel.max_delay"),
    ({"channel": {"delay_spread": 0.0}}, "channel.delay_spread"),
    ({"channel": {"theta_range_deg": [0.0, 100.0]}}, "channel.theta_range_deg"),
    ({"channel": {"theta_range_deg": [-5.0, 60.0]}}, "channel.theta_range_deg"),
    ({"channel": {"theta_range_deg": [60.0, 5.0]}}, "channel.theta_range_deg"),
    ({"channel": {"phi_range_deg": [90.0, 10.0]}}, "channel.phi_range_deg"),
    ({"channel": {"paths": []}}, "channel.paths"),
    ({"channel": {"paths": [_path(theta_deg=95.0)]}}, "channel.paths[0].theta_deg"),
    ({"channel": {"paths": [_path(), _path(theta_deg=-1.0)]}}, "channel.paths[1].theta_deg"),
    ({"channel": {"paths": [_path(delay=-1e-9)]}}, "channel.paths[0].delay"),
    ({"channel": {"paths": [_path(gain_real=0.0)]}}, "channel.paths"),
    ({"channel": {"paths": [_path(gain_real=1e200)]}}, "channel.paths[0].gain_real"),
    ({"channel": {"paths": [_path(), _path(gain_imag=-10000.5)]}}, "channel.paths[1].gain_imag"),
    ({"channel": {"paths": [_path(gain_real=1e-5), _path(gain_real=0.0)]}}, "channel.paths"),
    ({"weights": {"strategy": "median"}}, "weights.strategy"),
    ({"link": {"K": 0}}, "link.K"),
    ({"link": {"rolloff": 1.5}}, "link.rolloff"),
    ({"link": {"rolloff": -0.1}}, "link.rolloff"),
    ({"link": {"symbol_period": 0.0}}, "link.symbol_period"),
    ({"link": {"snr_db": []}}, "link.snr_db"),
    ({"link": {"snr_db": [0.0, 3090.0]}}, "link.snr_db[1]"),
    ({"link": {"snr_db": [-3240.0]}}, "link.snr_db[0]"),
    ({"link": {"normalization": "peak"}}, "link.normalization"),
    # Removed in schema 3: a radiated-power knob on top of the SNR axis, and a null outage block.
    ({"link": {"tx_power": 1.0}}, "link.tx_power"),
    ({"outage": None}, "outage"),
    # Removed in schema 4: the reference wave's winding convention and the
    # per-symbol sample count (a v3 file folds it into duration_symbols).
    ({"reference": {"sign": -1}}, "reference.sign"),
    ({"recording": {"samples_per_symbol": 1}}, "recording.samples_per_symbol"),
    ({"outage": {"r_th": 0.0}}, "outage.r_th"),
    ({"outage": {"trials": 0}}, "outage.trials"),
    ({"output": {"directory": ""}}, "output.directory"),
    ({"schema_version": 1}, "schema_version"),
    ({"schema_version": 2}, "schema_version"),
    ({"schema_version": 3}, "schema_version"),
    ({"seed": -1}, "seed"),
]
REJECTED_IDS = [json.dumps(data, separators=(",", ":")) for data, _key in REJECTED]


def _names_key(message: str, key: str) -> bool:
    """A rule's error starts with its dotted key; a removed key is an unknown one."""
    return message.startswith(key + ": ") or message == f"unknown key {key}"


class TestConfig:
    def test_empty_object_gives_standard_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.surface.fc == 30.0e9
        assert cfg.surface.M == 32 and cfg.surface.N == 32
        assert cfg.surface.substrate_index == pytest.approx(math.sqrt(3.0))
        assert cfg.surface.dx is None  # half wavelength
        geom = cfg.geometry()
        assert geom.dx == pytest.approx(geom.wavelength / 2)
        assert geom.k_sub == pytest.approx(math.sqrt(3.0) * geom.k_free)
        assert cfg.recording.snr_db == 10.0
        assert cfg.recording.duration_symbols == 5
        assert cfg.weights.strategy == "mean"
        assert cfg.outage == OutageBlock(r_th=2.0, trials=2000)
        assert cfg.link.K == 64 and cfg.link.rolloff == 0.25
        assert len(cfg.channel.paths) == 5

    def test_zero_rows_names_surface_m(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"surface": {"M": 0}}')
        with pytest.raises(ConfigError, match=r"surface\.M"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"surface": {"rows": 8}}')
        with pytest.raises(ConfigError, match=r"unknown key surface\.rows"):
            load_config(path)
        path.write_text('{"turbo": true}')
        with pytest.raises(ConfigError, match="unknown key turbo"):
            load_config(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "seed": 3,\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 1})
        with pytest.raises(ConfigError, match=r"^schema_version: must be 4, got 3$"):
            config_from_dict({"schema_version": 3})

    def test_type_errors_name_keys(self):
        with pytest.raises(ConfigError, match=r"seed: must be an integer"):
            config_from_dict({"seed": 1.5})
        with pytest.raises(ConfigError, match=r"link\.snr_db"):
            config_from_dict({"link": {"snr_db": "high"}})

    def test_round_trip_identity(self, tmp_path):
        cfg = config_from_dict(
            {
                "surface": {"M": 8, "N": 16},
                "reference": {"amplitude": 1.25, "phase_offset": 0.5},
                "channel": {
                    "kind": "manual",
                    "paths": [{"theta_deg": 12.5, "phi_deg": 245.0, "delay": 1.5e-9}],
                },
                "link": {"snr_db": [0, 10], "normalization": "absolute"},
                "outage": {"r_th": 1.5, "trials": 17},
                "seed": 99,
            }
        )
        path = tmp_path / "saved.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_fingerprint_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = config_from_dict({"seed": 1234})
        c = config_from_dict({"seed": 4321})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"link": {"snr_db": [NaN]}}', r"link\.snr_db\[0\]"),
            ('{"surface": {"fc": 1e999}}', r"surface\.fc"),
            ('{"recording": {"snr_db": -1e999}}', r"recording\.snr_db"),
            ('{"surface": {"fc": 1%s}}' % ("0" * 400), r"surface\.fc"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key + ": must be a finite number"):
            load_config(path)

    @pytest.mark.parametrize("lo, hi", [(0.0, 100.0), (-5.0, 60.0), (60.0, 5.0)])
    def test_theta_range_checked_at_load(self, lo, hi):
        with pytest.raises(ConfigError, match=r"channel\.theta_range_deg"):
            config_from_dict({"channel": {"theta_range_deg": [lo, hi]}})

    def test_reversed_phi_range_checked_at_load(self):
        with pytest.raises(ConfigError, match=r"channel\.phi_range_deg"):
            config_from_dict({"channel": {"phi_range_deg": [90.0, 10.0]}})

    def test_theta_range_edges_accepted(self):
        cfg = config_from_dict({"channel": {"theta_range_deg": [0.0, 90.0]}})
        assert cfg.channel.theta_range_deg == (0.0, 90.0)

    @pytest.mark.parametrize("amplitude", [0.0, -1.0])
    def test_reference_amplitude_must_be_positive(self, amplitude):
        with pytest.raises(ConfigError, match=r"reference\.amplitude: must be positive"):
            config_from_dict({"reference": {"amplitude": amplitude}})

    def test_strategy_validation(self):
        with pytest.raises(ConfigError, match=r"weights\.strategy"):
            config_from_dict({"weights": {"strategy": "median"}})

    @pytest.mark.parametrize("data, key", REJECTED, ids=REJECTED_IDS)
    def test_rejected_value_names_dotted_key(self, data, key):
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert _names_key(str(info.value), key)


class TestEmitCsv:
    def test_single_row_two_lines(self, tmp_path):
        rs = ResultSet()
        rs.add("demo", "snr_db", 10.0, "mi_bits", 3.5, None, 7)
        out = tmp_path / "results.csv"
        emit_csv(rs, out)
        lines = out.read_text().split("\n")
        assert lines[0] == "experiment,sweep_name,sweep_value,metric,value,ci_half_width,seed"
        assert lines[1] == "demo,snr_db,10,mi_bits,3.5,,7"
        assert lines[2] == ""

    def test_nine_significant_digits(self):
        assert fmt9(3.123456789123) == "3.12345679"
        assert fmt9(1.0) == "1"
        assert fmt9(0.000123456789) == "0.000123456789"

    def test_byte_identical_reruns(self, tmp_path):
        rs = ResultSet()
        rs.add("demo", "snr_db", 0.0, "mi", 1.23456789012, 0.05, 3)
        rs.add("demo", "snr_db", 5.0, "mi", 2.5, None, 3)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(rs, a)
        emit_csv(rs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(ResultSet(), tmp_path / "no.csv")


def fast_overrides(**extra):
    """Small sizes and short sweeps so preset tests stay quick."""
    base = {"link": {"snr_db": [0.0, 10.0, 20.0]}}
    base.update(extra)
    return base


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            run_preset("fig99", out_dir="/tmp/nope", quiet=True)

    def test_fig6_deterministic_byte_identical(self, tmp_path):
        run_preset(
            "fig6_b_sweep", overrides=fast_overrides(), out_dir=tmp_path / "a", quiet=True
        )
        run_preset(
            "fig6_b_sweep", overrides=fast_overrides(), out_dir=tmp_path / "b", quiet=True
        )
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        expected = resolve_config("fig6_b_sweep", None, fast_overrides()).fingerprint()
        assert meta["fingerprint"] == expected

    def test_fig8_row_count(self, tmp_path):
        rs = run_preset(
            "fig8_size_sweep", overrides=fast_overrides(), out_dir=tmp_path, quiet=True
        )
        # |sizes| x |snrs| x 2 systems
        assert len(rs.rows) == 4 * 3 * 2
        text = (tmp_path / "results.csv").read_text().splitlines()
        assert len(text) == 1 + 24

    def test_fig8_rrm_rows_monotone_in_snr_and_size(self, tmp_path):
        run_preset(
            "fig8_size_sweep", overrides=fast_overrides(), out_dir=tmp_path, quiet=True
        )
        table = {}
        lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
        for line in lines:
            _e, _s, snr, metric, value, _ci, _seed = line.split(",")
            table[(metric, float(snr))] = float(value)
        snrs = [0.0, 10.0, 20.0]
        for size in (8, 16, 32, 64):
            series = [table[(f"mi_rrm_{size}x{size}", s)] for s in snrs]
            assert series[0] < series[1] < series[2]
        for snr in snrs:
            by_size = [table[(f"mi_rrm_{s}x{s}", snr)] for s in (8, 16, 32, 64)]
            assert by_size[0] < by_size[1] < by_size[2] < by_size[3]

    def test_fig7_row_count(self, tmp_path):
        rs = run_preset(
            "fig7_recording", overrides=fast_overrides(), out_dir=tmp_path, quiet=True
        )
        # 2 recording SNRs x 2 durations x |snrs|
        assert len(rs.rows) == 2 * 2 * 3
        assert all(r.ci_half_width is not None for r in rs.rows)

    def test_fig9_row_count(self, tmp_path):
        rs = run_preset(
            "fig9_cdl", overrides=fast_overrides(), out_dir=tmp_path, quiet=True
        )
        assert len(rs.rows) == 4 * 3 * 2  # sizes x snrs x systems

    def test_fig10_outage_rows_bounded(self, tmp_path):
        rs = run_preset(
            "fig10_outage",
            overrides=fast_overrides(outage={"r_th": 2.0, "trials": 30}),
            out_dir=tmp_path,
            quiet=True,
        )
        assert len(rs.rows) == 2 * 2 * 3  # sizes x systems x snrs
        for row in rs.rows:
            assert 0.0 <= row.value <= 1.0
            assert row.ci_half_width is not None

    def test_validate_preset_all_pass(self, tmp_path):
        rs = run_preset("validate", out_dir=tmp_path, quiet=True)
        assert all(r.value == 1.0 for r in rs.rows if r.metric == "passed")


class TestInvariantSuite:
    @pytest.mark.parametrize("name, covered", [("unlisted_check", False), ("_helper", True)])
    def test_a_public_function_left_out_of_the_checks_fails_coverage(
        self, monkeypatch, name, covered
    ):
        def fn():
            return True, "never run"

        fn.__module__ = invariants.__name__
        assert invariants.suite_name_coverage()[0]
        monkeypatch.setattr(invariants, name, fn, raising=False)
        ok, detail = invariants.suite_name_coverage()
        assert ok == covered
        assert detail == ("every check function is listed" if covered else f"missing: [{name!r}]")


class TestCli:
    def test_validate_exit_code(self, tmp_path, capsys):
        assert main(["validate", "--quiet", "--out", str(tmp_path)]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"surface": {"M": 0}}')
        code = main(["record", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "surface.M" in capsys.readouterr().err

    def test_nan_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"link": {"snr_db": [0.0, NaN]}}')
        code = main(["mi-sweep", "--config", str(bad), "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "link.snr_db[1]" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    # -3100 dB loaded before the +-300 dB bound, then overflowed the noise power (exit 4)
    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3100.0, 300.5])
    def test_recording_db_beyond_the_float_range_exits_2(self, tmp_path, capsys, snr_db):
        # record divides by the linear SNR, so neither end may reach it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": {"M": 4, "N": 4}, "recording": {"snr_db": snr_db}}))
        out = tmp_path / "out"
        assert main(["record", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "config error: recording.snr_db: linear value of " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db, key", [([3082.0], "[0]"), ([0.0, 300.5], "[1]")])
    def test_link_db_beyond_the_limit_exits_2(self, tmp_path, capsys, snr_db, key):
        # 3082 dB loaded before the +-300 dB bound, then overflowed the MI (exit 4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": {"M": 8, "N": 8}, "link": {"snr_db": snr_db}}))
        out = tmp_path / "out"
        args = ["--config", str(cfg), "--out", str(out), "--quiet", "--reps", "2"]
        assert main(["mi-sweep", *args]) == 2
        assert f"config error: link.snr_db{key}: linear value of " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("db", [300.0, -300.0])
    def test_db_at_the_limit_runs(self, tmp_path, db):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"surface": {"M": 8, "N": 8}, "recording": {"snr_db": db}, "link": {"snr_db": [db]}}
            )
        )
        out = tmp_path / "out"
        assert main(["record", "--config", str(cfg), "--out", str(out / "record"), "--quiet"]) == 0
        args = ["--config", str(cfg), "--out", str(out / "mi"), "--quiet", "--reps", "2"]
        assert main(["mi-sweep", *args]) == 0
        assert (out / "mi" / "results.csv").exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_mi_sweep_rejects_nonpositive_reps(self, tmp_path, capsys, reps):
        out = tmp_path / "out"
        code = main(["mi-sweep", "--reps", reps, "--out", str(out), "--quiet"])
        assert code == 2
        assert "--reps" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_theta_exits_before_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "surface": {"M": 4, "N": 4},
                    "channel": {"kind": "rician_random", "theta_range_deg": [0, 100]},
                }
            )
        )
        out = tmp_path / "out"
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "3", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert "channel.theta_range_deg" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_zero_reference_amplitude_exits_before_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": {"M": 4, "N": 4}, "reference": {"amplitude": 0.0}}))
        out = tmp_path / "out"
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "2", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert "reference.amplitude" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("data, key", REJECTED, ids=REJECTED_IDS)
    def test_rejected_config_exits_before_sweep(self, tmp_path, capsys, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": {"M": 4, "N": 4}, **data}))
        out = tmp_path / "out"
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "1", "--out", str(out), "--quiet"]
        )
        assert code == 2
        message = capsys.readouterr().err.partition("config error: ")[2]
        assert _names_key(message.rstrip("\n"), key)
        assert not (out / "results.csv").exists()

    def test_negative_seed_flag_exits_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["record", "--seed", "-1", "--out", str(out), "--quiet"]) == 2
        assert "config error: seed: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_profile_is_io_error_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        missing = tmp_path / "missing.profile"
        cfg.write_text(
            json.dumps(
                {
                    "surface": {"M": 4, "N": 4},
                    "channel": {"kind": "cdl_profile", "profile_path": str(missing)},
                }
            )
        )
        out = tmp_path / "out"
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "1", "--out", str(out), "--quiet"]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "profile, message",
        [
            (b"\xff\xfe\x00", "channel.profile_path: not UTF-8"),
            (
                b"0.0, 0.0, 90.0\n",
                "channel.profile_path: line 1: expected 4 comma-separated values, got 3",
            ),
            (b"0.0, 0.0, 0.0, 90.0\n1.0, nan, 0.0, 90.0\n", "channel.profile_path: line 2: "),
            (b"0.0, 5000.0, 0.0, 90.0\n", "channel.profile_path: cluster powers overflow"),
            (b"# comments only\n", "channel.profile_path: profile contains no cluster rows"),
        ],
    )
    def test_bad_profile_exits_2_before_output(self, tmp_path, capsys, profile, message):
        prof = tmp_path / "bad.profile"
        prof.write_bytes(profile)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "surface": {"M": 4, "N": 4},
                    "channel": {"kind": "cdl_profile", "profile_path": str(prof)},
                }
            )
        )
        out = tmp_path / "out"
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "1", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_read_once_at_load(self, tmp_path):
        prof = tmp_path / "two.profile"
        prof.write_text("0.0, 0.0, 10.0, 90.0\n1.0, -3.0, 200.0, 80.0\n")
        cfg = config_from_dict(
            {"channel": {"kind": "cdl_profile", "profile_path": str(prof)}}
        )
        prof.unlink()  # later scenarios must not read the file again
        for system in ("rrm", "rhs"):
            assert cfg.scenario(system).channel.profile_text.startswith("0.0, 0.0, 10.0")

    def test_only_domain_value_errors_become_config_errors(self, monkeypatch):
        def broken(self):
            raise ValueError("not a rule on any field")

        monkeypatch.setattr(ExperimentConfig, "pulse", broken)
        with pytest.raises(ValueError, match="not a rule on any field") as info:
            config_from_dict({})
        assert not isinstance(info.value, ConfigError)

    def test_library_error_is_internal_not_config(self, tmp_path, capsys, monkeypatch):
        from rrmsim import link

        def broken(*args, **kwargs):
            raise ValueError("broken invariant")

        monkeypatch.setattr(link, "stack_mi", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": {"M": 4, "N": 4}}))
        code = main(
            ["mi-sweep", "--config", str(cfg), "--reps", "2", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "internal error" in err and "broken invariant" in err
        assert "config error" not in err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["record", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_record_writes_matrices(self, tmp_path):
        code = main(
            [
                "record",
                "--quiet",
                "--out",
                str(tmp_path),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        assert (tmp_path / "hologram.csv").exists()
        assert (tmp_path / "weights.csv").exists()

    def test_beampattern_command(self, tmp_path, capsys):
        code = main(
            ["beampattern", "--out", str(tmp_path), "--step-deg", "2.0", "--peaks", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak at theta" in out
        header = (tmp_path / "pattern.csv").read_text().splitlines()[0]
        assert header == "theta_deg,phi_deg,power_db"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--step-deg", "0"], "--step-deg: must be finite and > 0"),
            (["--step-deg", "-1"], "--step-deg: must be finite and > 0"),
            (["--step-deg", "nan"], "--step-deg: must be finite and > 0"),
            (["--step-deg", "inf"], "--step-deg: must be finite and > 0"),
            (["--peaks", "0"], "--peaks: must be >= 1"),
            (["--peaks", "-3"], "--peaks: must be >= 1"),
        ],
    )
    def test_bad_beampattern_flag_exits_2_before_output(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["beampattern", "--out", str(out), "--quiet", *flags]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # Recordings whose hologram is constant, so mean subtraction leaves
    # all-zero weights: one element (noise or not), and one broadside path on
    # a 2x2 surface, whose four elements see one phase of each wave. Drawing
    # their pattern exited 4 with the ValueError of array_factor.
    CONSTANT_HOLOGRAM = {
        "1x1": {"surface": {"M": 1, "N": 1}},
        "2x2_broadside": {
            "surface": {"M": 2, "N": 2},
            "recording": {"snr_db": None},
            "channel": {"paths": [{"theta_deg": 0.0, "phi_deg": 0.0}]},
        },
    }
    CONSTANT_HOLOGRAM_ERROR = (
        "config error: strategy 'mean' leaves all-zero weights: the recorded hologram "
        "is constant, so it forms no beam pattern\n"
    )

    @pytest.mark.parametrize(
        "case, command",
        [
            ("1x1", "beampattern"),
            ("1x1", "preset fig5_beampattern"),
            ("2x2_broadside", "beampattern"),
            ("2x2_broadside", "preset fig5_beampattern"),
        ],
    )
    def test_constant_hologram_pattern_exits_2(self, tmp_path, capsys, case, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONSTANT_HOLOGRAM[case]))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="weight matrix is all zero"):
            code = main([*command.split(), "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == self.CONSTANT_HOLOGRAM_ERROR
        assert not (out / "pattern.csv").exists() and not (out / "pattern_b_none.csv").exists()

    @pytest.mark.parametrize("case", sorted(CONSTANT_HOLOGRAM))
    def test_constant_hologram_records(self, tmp_path, case):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONSTANT_HOLOGRAM[case]))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="weight matrix is all zero"):
            code = main(["record", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        assert np.all(np.loadtxt(out / "weights.csv", delimiter=",") == 0.0)

    def test_mi_sweep_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "surface": {"M": 8, "N": 8},
                    "link": {"snr_db": [0.0, 10.0]},
                }
            )
        )
        code = main(
            [
                "mi-sweep",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--reps",
                "2",
                "--quiet",
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # two systems x two SNRs

    def test_io_error_exit_code(self, capsys):
        code = main(["record", "--quiet", "--out", "/proc/definitely/not/writable"])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_outage_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "surface": {"M": 8, "N": 8},
                    "channel": {"kind": "rician_random", "L": 4},
                    "link": {"snr_db": [0.0, 10.0], "normalization": "absolute"},
                    "outage": {"r_th": 2.0, "trials": 25},
                }
            )
        )
        code = main(
            ["outage", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        # each row against the MI of every trial's own block, thresholded
        loaded = load_config(cfg)
        for line in lines[1:]:
            _e, _s, snr, metric, value, ci, seed = line.split(",")
            system = metric.removeprefix("outage_")
            mi = per_trial_mi(loaded.scenario(system), [float(snr)], 25, int(seed))
            p, half = outage_ci(mi[:, 0] < 2.0)
            assert float(value) == pytest.approx(p, rel=1e-8)
            assert float(ci) == pytest.approx(half, rel=1e-8)

    def test_preset_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"snr_db": [0.0, 10.0]},
                                   "output": {"directory": str(tmp_path / "out")}}))
        code = main(["preset", "fig6_b_sweep", "--config", str(cfg), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_preset_flags_are_run_preset_overrides(self, tmp_path, monkeypatch):
        # --seed and --out are one override layer over the loaded config, so
        # the CLI writes what run_preset writes given them as overrides
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"snr_db": [0.0, 10.0]}, "seed": 3}))
        out = tmp_path / "out"
        builds = []
        build = config_module.config_from_dict

        def counted(data):
            builds.append(data)
            return build(data)

        monkeypatch.setattr(config_module, "config_from_dict", counted)
        args = ["--config", str(cfg), "--seed", "7", "--out", str(out), "--quiet"]
        assert main(["preset", "fig6_b_sweep", *args]) == 0
        assert len(builds) == 2  # the file at load, then preset defaults and flags over it
        files = ("results.csv", "meta.json")
        cli = [(out / name).read_bytes() for name in files]
        shutil.rmtree(out)
        overrides = {"seed": 7, "output": {"directory": str(out)}}
        run_preset("fig6_b_sweep", load_config(cfg), overrides, quiet=True)
        assert [(out / name).read_bytes() for name in files] == cli
        meta = json.loads(cli[1])["config"]
        assert meta["seed"] == 7 and meta["output"]["directory"] == str(out)
