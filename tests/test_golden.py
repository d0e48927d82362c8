"""Golden outputs: every preset's numbers, pinned on small configs.

Each preset reruns into a temporary directory and its `results.csv` is
compared with `tests/golden/<preset>/results.csv`: numeric fields at 1e-9
relative, text fields exactly. fig5 also pins every PATTERN_STRIDE-th row of
its two pattern CSVs (the full files are 2.7 MB each).

The preset outputs round most outage values to exactly 0 or 1, so
`tests/golden/trial_mi_curves.json` also pins the raw (trials, n_snr)
`trial_mi_curves` arrays of TRIAL_CASES at full precision (16 trials on
8x8), compared at 1e-9 relative.

A change that moves the numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md why they moved.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rrmsim.harness import PRESET_NAMES, run_preset
from rrmsim.harness.config import config_from_dict
from rrmsim.link import trial_mi_curves

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-9
PATTERN_STRIDE = 509
PATTERN_FILES = ("pattern_b_none.csv", "pattern_b_mean.csv")

OVERRIDES = {
    "fig5_beampattern": {"surface": {"M": 16, "N": 16}},
    "fig7_recording": {"surface": {"M": 8, "N": 8}},
    "fig10_outage": {"outage": {"trials": 40}},
}


TRIALS_FILE = GOLDEN / "trial_mi_curves.json"
TRIALS = 16
TRIAL_SEED = 2024
# case name -> (channel kind, system, link normalization), all on 8x8
TRIAL_CASES = {
    f"{kind}_{system}_{norm}": (kind, system, norm)
    for kind, system, norm in [
        (kind, system, "absolute")
        for kind in ("manual", "rician_random", "cdl_profile")
        for system in ("rrm", "rhs")
    ]
    + [("rician_random", "rrm", "normalized"), ("rician_random", "rhs", "normalized")]
}


def _trial_curves(case: str) -> np.ndarray:
    kind, system, norm = TRIAL_CASES[case]
    cfg = config_from_dict(
        {
            "surface": {"M": 8, "N": 8},
            "channel": {"kind": kind},
            "link": {"normalization": norm},
            "seed": TRIAL_SEED,
        }
    )
    return trial_mi_curves(cfg.scenario(system), cfg.link.snr_db, TRIALS, TRIAL_SEED)


def _run(name: str, out_dir: Path) -> None:
    run_preset(name, overrides=OVERRIDES.get(name), out_dir=out_dir, quiet=True)


def _pattern_sample(path: Path) -> list[str]:
    lines = path.read_text("utf-8").splitlines()
    return [lines[0]] + lines[1::PATTERN_STRIDE]


def _rows(lines: list[str]) -> list[list[str]]:
    return list(csv.reader(lines))


def _assert_same(got: list[list[str]], want: list[list[str]], label: str) -> None:
    assert len(got) == len(want), f"{label}: {len(got)} rows, golden has {len(want)}"
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        assert len(g_row) == len(w_row), f"{label} row {i}: column count differs"
        for g, w in zip(g_row, w_row):
            try:
                g_num, w_num = float(g), float(w)
            except ValueError:
                assert g == w, f"{label} row {i}: {g!r} != {w!r}"
                continue
            assert math.isclose(g_num, w_num, rel_tol=REL_TOL), (
                f"{label} row {i}: {g} != {w}"
            )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_golden(name, tmp_path):
    _run(name, tmp_path)
    got = (tmp_path / "results.csv").read_text("utf-8").splitlines()
    want = (GOLDEN / name / "results.csv").read_text("utf-8").splitlines()
    _assert_same(_rows(got), _rows(want), f"{name}/results.csv")
    if name == "fig5_beampattern":
        for fname in PATTERN_FILES:
            got = _pattern_sample(tmp_path / fname)
            want = (GOLDEN / name / fname).read_text("utf-8").splitlines()
            _assert_same(_rows(got), _rows(want), f"{name}/{fname}")


@pytest.mark.parametrize("case", sorted(TRIAL_CASES))
def test_trial_mi_curves_match_golden(case):
    want = np.array(json.loads(TRIALS_FILE.read_text("utf-8"))[case])
    got = _trial_curves(case)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0.0)


def write_golden() -> None:
    """Regenerate every golden file from the current code."""
    for name in PRESET_NAMES:
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        _run(name, target)
        (target / "meta.json").unlink()
        for fname in PATTERN_FILES:
            full = target / fname
            if full.exists():
                full.write_text("\n".join(_pattern_sample(full)) + "\n", "utf-8")
        print(f"wrote {target}")
    # one trial per line; json writes floats with repr, which round-trips every bit
    blocks = [
        f" {json.dumps(case)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in _trial_curves(case).tolist())
        + "\n ]"
        for case in sorted(TRIAL_CASES)
    ]
    TRIALS_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", "utf-8")
    print(f"wrote {TRIALS_FILE}")


if __name__ == "__main__":
    write_golden()
