import json
import math

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
from rrmsim.harness.cli import main
from rrmsim.harness.config import config_from_dict
from rrmsim.harness.results import fmt9
from rrmsim.link import outage_probability


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
        assert cfg.link.tx_power == 1.0
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

    def test_type_errors_name_keys(self):
        with pytest.raises(ConfigError, match=r"seed: must be an integer"):
            config_from_dict({"seed": 1.5})
        with pytest.raises(ConfigError, match=r"link\.snr_db"):
            config_from_dict({"link": {"snr_db": "high"}})

    def test_round_trip_identity(self, tmp_path):
        cfg = config_from_dict(
            {
                "surface": {"M": 8, "N": 16},
                "reference": {"amplitude": 1.25, "sign": 1},
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

    def test_strategy_validation(self):
        with pytest.raises(ConfigError, match=r"weights\.strategy"):
            config_from_dict({"weights": {"strategy": "median"}})


class TestEmitCsv:
    def test_single_row_two_lines(self, tmp_path):
        rs = ResultSet("abc123")
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
        rs = ResultSet("abc123")
        rs.add("demo", "snr_db", 0.0, "mi", 1.23456789012, 0.05, 3)
        rs.add("demo", "snr_db", 5.0, "mi", 2.5, None, 3)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(rs, a)
        emit_csv(rs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(ResultSet("x"), tmp_path / "no.csv")

    def test_fingerprint_carried_by_rows(self):
        rs = ResultSet("feedc0de")
        rs.add("e", "s", 1, "m", 2.0)
        assert rs.consistent()
        assert rs.rows[0].fingerprint == "feedc0de"


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
        rs1 = run_preset(
            "fig6_b_sweep", overrides=fast_overrides(), out_dir=tmp_path / "a", quiet=True
        )
        run_preset(
            "fig6_b_sweep", overrides=fast_overrides(), out_dir=tmp_path / "b", quiet=True
        )
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b
        assert rs1.consistent()
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        assert meta["fingerprint"] == rs1.fingerprint

    def test_fig8_row_count(self, tmp_path):
        rs = run_preset(
            "fig8_size_sweep", overrides=fast_overrides(), out_dir=tmp_path, quiet=True
        )
        # |sizes| x |snrs| x 2 systems
        assert len(rs.rows) == 3 * 3 * 2
        text = (tmp_path / "results.csv").read_text().splitlines()
        assert len(text) == 1 + 18

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
        for size in (8, 16, 32):
            series = [table[(f"mi_rrm_{size}x{size}", s)] for s in snrs]
            assert series[0] < series[1] < series[2]
        for snr in snrs:
            by_size = [table[(f"mi_rrm_{s}x{s}", snr)] for s in (8, 16, 32)]
            assert by_size[0] < by_size[1] < by_size[2]

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
        assert len(rs.rows) == 3 * 3 * 2  # sizes x snrs x systems

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
        loaded = load_config(cfg)
        for line in lines[1:]:
            _e, _s, snr, metric, value, ci, seed = line.split(",")
            system = metric.removeprefix("outage_")
            expected = outage_probability(
                loaded.scenario(system), 2.0, float(snr), trials=25, seed=int(seed)
            )
            assert float(value) == pytest.approx(expected.probability, rel=1e-8)
            assert float(ci) == pytest.approx(expected.ci_half_width, rel=1e-8)

    def test_preset_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"snr_db": [0.0, 10.0]},
                                   "output": {"directory": str(tmp_path / "out")}}))
        code = main(["preset", "fig6_b_sweep", "--config", str(cfg), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()
