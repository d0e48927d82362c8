"""Thread use: the rule in rrmsim._cores and byte identity of its callers.

The threaded path must give the same bytes as the serial loop: paired
rrm/rhs curves (fig9, fig10, CLI sweeps) and the theta-row blocks of
``beampattern.array_factor``.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rrmsim import _cores, link
from rrmsim.beampattern import array_factor, default_axes
from rrmsim.harness import run_preset
from rrmsim.harness.cli import main
from rrmsim.harness.presets import add_curves, paired_systems, resolve_config
from rrmsim.harness.results import ResultSet

from conftest import make_geometry, make_reference

SRC = Path(__file__).resolve().parent.parent / "src"


class TestWorkers:
    def test_unset_environment_is_serial(self, serial, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert _cores.workers(8) == 1

    def test_multithreaded_blas_is_serial(self, serial, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert _cores.workers(8) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")  # OPENBLAS_NUM_THREADS decides
        assert _cores.workers(8) == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_pinned_blas_uses_usable_cpus(self, serial, monkeypatch, var):
        monkeypatch.setenv(var, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert [_cores.workers(t) for t in (0, 1, 2, 3, 8)] == [1, 1, 2, 3, 3]

    def test_falls_back_to_cpu_count(self, serial, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _cores.workers(8) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cores.workers(8) == 1


class TestThreadMap:
    def test_serial_path_runs_in_calling_thread(self, serial):
        assert _cores.thread_map(lambda i: (i, threading.get_ident()), range(3)) == [
            (i, threading.get_ident()) for i in range(3)
        ]

    def test_threaded_path_keeps_order_and_first_item_in_caller(self, force_threads):
        force_threads(4)
        got = _cores.thread_map(lambda i: (i * i, threading.get_ident()), range(4))
        assert [v for v, _ in got] == [0, 1, 4, 9]
        assert got[0][1] == threading.get_ident()
        assert all(ident != threading.get_ident() for _, ident in got[1:])

    @pytest.mark.parametrize("bad", [0, 2])
    def test_exception_reaches_caller_and_pool_is_joined(self, force_threads, bad):
        force_threads(3)
        before = threading.active_count()

        def fn(i):
            if i == bad:
                raise RuntimeError(f"item {i}")
            return i

        with pytest.raises(RuntimeError, match=f"item {bad}"):
            _cores.thread_map(fn, range(3))
        assert threading.active_count() == before


def _files(out: Path, names) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in names}


class TestSameBytes:
    @pytest.mark.parametrize(
        "name, overrides, files",
        [
            ("fig10_outage", {"outage": {"trials": 20}}, ("results.csv", "meta.json")),
            ("fig9_cdl", None, ("results.csv", "meta.json")),
            (
                "fig5_beampattern",
                {"surface": {"M": 16, "N": 16}},
                ("results.csv", "meta.json", "pattern_b_none.csv", "pattern_b_mean.csv"),
            ),
        ],
    )
    def test_preset_files(self, tmp_path, serial, force_threads, name, overrides, files):
        run_preset(name, overrides=overrides, out_dir=tmp_path / "serial", quiet=True)
        force_threads(2)
        run_preset(name, overrides=overrides, out_dir=tmp_path / "threads", quiet=True)
        assert _files(tmp_path / "threads", files) == _files(tmp_path / "serial", files)

    @pytest.mark.parametrize(
        "cpus, step_deg, n_theta",
        [
            (7, 5.0, None),  # 19 rows over 7 workers: blocks of 2 and 3 rows
            (3, 2.0, None),  # 46 rows, odd split
            (64, 5.0, None),  # more workers claimed than rows
            (4, 5.0, 1),  # a one-row theta grid
        ],
    )
    def test_array_factor_grid(self, serial, force_threads, cpus, step_deg, n_theta):
        rng = np.random.default_rng(cpus)
        geom = make_geometry(9, 8)
        ref = make_reference(geom)
        weights = rng.uniform(0.0, 1.0, size=geom.shape)
        theta, phi = default_axes(step_deg)
        if n_theta is not None:
            theta = theta[3 : 3 + n_theta]
        want = array_factor(geom, ref, weights, theta, phi)
        force_threads(cpus)
        got = array_factor(geom, ref, weights, theta, phi)
        assert np.array_equal(got.power_db, want.power_db)
        assert got.peak_linear == want.peak_linear


class TestConcurrency:
    def test_array_factor_stress_with_short_switch_interval(self, serial, force_threads):
        """More workers than cores and a 1 us switch interval, against the serial grid."""
        geom = make_geometry(6, 7)
        ref = make_reference(geom)
        weights = np.random.default_rng(1).uniform(0.0, 1.0, size=geom.shape)
        theta, phi = default_axes(3.0)
        want = array_factor(geom, ref, weights, theta, phi).power_db
        force_threads(2 * (os.cpu_count() or 1) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = 0
            deadline = time.monotonic() + 1.5
            while runs < 3 or time.monotonic() < deadline:
                got = array_factor(geom, ref, weights, theta, phi).power_db
                assert np.array_equal(got, want), f"run {runs} differs"
                runs += 1
        finally:
            sys.setswitchinterval(interval)

    def test_shared_sweep_reraises_worker_error(self, force_threads, monkeypatch):
        force_threads(2)
        scenario_mi = link._scenario_mi
        raised_in = []

        def rhs_fails(scenario, *args):
            if scenario.system == "rhs":
                raised_in.append(threading.get_ident())
                raise ArithmeticError("rhs curve failed")
            return scenario_mi(scenario, *args)

        monkeypatch.setattr(link, "_scenario_mi", rhs_fails)
        cfg = resolve_config("fig10_outage")
        draw = link.draw_trials(cfg.channel_config, 3, 11)
        with pytest.raises(ArithmeticError, match="rhs curve failed"):
            add_curves(ResultSet(), "mi", cfg, paired_systems(cfg, "mi", 4), draw)
        assert raised_in and raised_in[0] != threading.get_ident()

    def test_library_error_is_internal_with_threads(
        self, tmp_path, capsys, monkeypatch, force_threads
    ):
        force_threads(2)

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


def test_cli_outage_with_pinned_blas_matches_serial(tmp_path, serial):
    """The production path: a fresh `python -X dev` process with OPENBLAS_NUM_THREADS=1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "surface": {"M": 8, "N": 8},
                "channel": {"kind": "rician_random", "L": 4},
                "link": {"snr_db": [-10.0, 0.0, 10.0], "normalization": "absolute"},
                "outage": {"r_th": 2.0, "trials": 30},
            }
        )
    )
    assert main(["outage", "--config", str(cfg), "--out", str(tmp_path / "serial"), "--quiet"]) == 0
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "PYTHONWARNINGS")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "rrmsim.harness.cli", "outage",
         "--config", str(cfg), "--out", str(tmp_path / "pinned"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    assert proc.stderr == ""
    got = (tmp_path / "pinned" / "results.csv").read_bytes()
    assert got == (tmp_path / "serial" / "results.csv").read_bytes()
