"""``tools/outputs.py``: the command list, and the per-file comparison on synthetic files.

Nothing is run or exported: the comparison reads two directories written here.
"""

import importlib.util
import json
import pathlib

from rrmsim.harness.presets import PRESET_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

HEADER = "experiment,sweep_name,sweep_value,metric,value,ci_half_width,seed\n"


def test_the_command_list_runs_every_preset_and_command_on_every_config():
    argvs = [argv for _name, argv in outputs.commands()]
    assert [argv[1] for argv in argvs if argv[0] == "preset"] == list(PRESET_NAMES)
    for command in ("record", "beampattern", "mi-sweep", "outage"):
        configs = [argv[-1] if "--config" in argv else None for argv in argvs if argv[0] == command]
        assert configs == [None, "rician8.json", "cdl16.json"]
    names = [name for name, _argv in outputs.commands()]
    assert len(set(names)) == len(names)


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_each_file_is_equal_or_says_how_it_moved(tmp_path):
    meta = {"preset": "p", "fingerprint": "aa", "config": {"seed": 1, "link": {"K": 4}}}
    old = {
        "a/results.csv": HEADER + "e,snr_db,0,mi,2.0,0.5,1\ne,snr_db,10,mi,4.0,,1\n",
        "a/meta.json": json.dumps(meta),
        "a/same.csv": "1,2\n",
        "b/pattern.csv": "theta_deg,phi_deg,power_db\n0,0,-3\n",
        "b/short.csv": "1\n2\n",
        "b/gone.csv": "1\n",
    }
    meta_new = {"preset": "p", "fingerprint": "bb", "config": {"seed": 1, "link": {"K": 8}}}
    new = {
        **old,
        "a/results.csv": HEADER + "e,snr_db,0,mi,2.1,0.5,1\ne,snr_db,10,mi,4.0,,1\n",
        "a/meta.json": json.dumps({**meta_new, "extra": 1}),
        "b/pattern.csv": "theta_deg,phi_deg,power_db\n0,0,x\n",
        "b/short.csv": "1\n",
        "b/new.csv": "1\n",
    }
    del new["b/gone.csv"]
    _write(tmp_path / "old", old)
    _write(tmp_path / "new", new)
    got = dict(outputs.compare_dirs(tmp_path / "old", tmp_path / "new"))
    assert got == {
        "a/results.csv": "max relative change 0.0476, max change 0.2 CI half-widths",
        "a/meta.json": "keys differ: config.link.K, extra, fingerprint",
        "a/same.csv": "equal",
        "b/pattern.csv": "row 2 cell 3: '-3' -> 'x'",
        "b/short.csv": "2 rows -> 1 rows",
        "b/gone.csv": "only in REV",
        "b/new.csv": "only in the working tree",
    }
    assert list(got) == sorted(got)


def test_exit_codes_and_stdout_are_compared_per_command():
    old = {"record-default": (0, b"wrote a\nwrote b\n"), "outage-default": (0, b"x\n")}
    new = {"record-default": (0, b"wrote a\nwrote c\n"), "outage-default": (4, b"x\n")}
    assert outputs.compare_runs(old, new) == [
        ("record-default exit code", "equal"),
        ("record-default stdout", "line 2 differs"),
        ("outage-default exit code", "0 -> 4"),
        ("outage-default stdout", "equal"),
    ]
    assert outputs.describe("stdout", b"a\n", b"a\nb\n") == "line 2 differs"
