"""Output diff: this checkout's outputs against another revision's, file by file.

    python tools/outputs.py --against REV

REV's committed files are exported as ``tools/abtest.py`` exports them, and
one fixed command list runs in REV and in this working tree, with the BLAS
thread count unset and with ``OPENBLAS_NUM_THREADS=1``. The list is every
preset, plus ``record``, ``beampattern``, ``mi-sweep --reps 3`` and
``outage`` on three configs: the default, 8x8 Rician and 16x16 bundled CDL.
Each command runs as its own ``python -m rrmsim.harness.cli`` process. Both
trees write into the same output path, one after the other, because the
path ends up in ``meta.json`` and in stdout.

Every output file, every stdout and every exit code is compared, and one
line is printed per output:
- ``equal`` when the bytes are;
- for a CSV, the largest relative change of a numeric cell and the largest
  change of a ``value`` cell in units of its row's ``ci_half_width`` (as
  REV wrote it), or the first cell or row count that differs otherwise;
- for ``meta.json``, the dotted keys that differ;
- ``only in REV`` or ``only in the working tree`` for a file one side lacks.
stderr is not compared: a traceback names each tree's own files. The last
line counts the outputs. The exit code is 1 when any output differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# abtest is loaded from its file, not through sys.path, so importing this
# module (as its test does) registers no module and changes no search path.
_spec = importlib.util.spec_from_file_location("abtest", Path(__file__).resolve().parent / "abtest.py")
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)

# The names of rrmsim.harness.presets.PRESET_NAMES, listed here because the
# two trees may differ in them; a test checks that none is missing.
PRESETS = (
    "fig5_beampattern",
    "fig6_b_sweep",
    "fig7_recording",
    "fig8_size_sweep",
    "fig9_cdl",
    "fig10_outage",
    "validate",
)
CONFIGS = {
    "default": None,
    "rician8": {"surface": {"M": 8, "N": 8}, "channel": {"kind": "rician_random"}},
    "cdl16": {"surface": {"M": 16, "N": 16}, "channel": {"kind": "cdl_profile"}},
}
CLI = (("record",), ("beampattern",), ("mi-sweep", "--reps", "3"), ("outage",))
BLAS = ("unset", "1")


def commands() -> list[tuple[str, list[str]]]:
    """(name, arguments after ``rrmsim``) of each command, in run order."""
    out = [(f"preset-{p}", ["preset", p]) for p in PRESETS]
    for config, data in CONFIGS.items():
        flag = [] if data is None else ["--config", f"{config}.json"]
        out += [(f"{cmd[0]}-{config}", [*cmd, *flag]) for cmd in CLI]
    return out


def run_tree(tree: Path, work: Path, blas: str) -> dict:
    """Run every command in work with tree's package: name -> (exit code, stdout)."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(tree / "src")
    if blas != "unset":
        env["OPENBLAS_NUM_THREADS"] = blas
    runs = {}
    for name, argv in commands():
        cmd = [sys.executable, "-m", "rrmsim.harness.cli", *argv, "--out", f"out/{name}"]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
        runs[name] = (proc.returncode, proc.stdout)
    return runs


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}.{key}" if prefix else key))
        return out
    return {prefix: value}


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_change(old: bytes, new: bytes) -> str:
    """How a CSV moved: its largest relative and CI-scaled changes, or its first structural change."""
    a = list(csv.reader(old.decode("utf-8").splitlines()))
    b = list(csv.reader(new.decode("utf-8").splitlines()))
    if len(a) != len(b):
        return f"{len(a)} rows -> {len(b)} rows"
    header = a[0] if a else []
    value = header.index("value") if "value" in header else None
    ci = header.index("ci_half_width") if "ci_half_width" in header else None
    rel = units = 0.0
    for r, (row_a, row_b) in enumerate(zip(a, b), start=1):
        if len(row_a) != len(row_b):
            return f"row {r}: {len(row_a)} cells -> {len(row_b)} cells"
        for c, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                return f"row {r} cell {c + 1}: {x!r} -> {y!r}"
            change = abs(fy - fx)
            if change:
                rel = max(rel, change / max(abs(fx), abs(fy)))
            half = _float(row_a[ci]) if c == value and ci is not None else None
            if half:
                units = max(units, change / half)
    return f"max relative change {rel:.3g}, max change {units:.3g} CI half-widths"


def describe(name: str, old: bytes | None, new: bytes | None) -> str:
    """``equal`` or how a file named name moved from old (REV) to new (working tree)."""
    if old == new:
        return "equal"
    if old is None:
        return "only in the working tree"
    if new is None:
        return "only in REV"
    if name.endswith(".csv"):
        return csv_change(old, new)
    if name.endswith(".json"):
        a, b = _flatten(json.loads(old)), _flatten(json.loads(new))
        keys = sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])
        return "keys differ: " + ", ".join(keys)
    lines = zip(old.splitlines() + [None], new.splitlines() + [None])
    return f"line {next(i for i, (x, y) in enumerate(lines, start=1) if x != y)} differs"


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare_dirs(old: Path, new: Path) -> list[tuple[str, str]]:
    """(relative path, ``describe`` line) of every file under old or new, sorted by path."""
    files = {
        p.relative_to(root).as_posix() for root in (old, new) for p in root.rglob("*") if p.is_file()
    }
    return [(f, describe(f, _read(old / f), _read(new / f))) for f in sorted(files)]


def compare_runs(old: dict, new: dict) -> list[tuple[str, str]]:
    """(name, line) of each command's exit code and stdout."""
    lines = []
    for name in old:
        (code_a, out_a), (code_b, out_b) = old[name], new[name]
        lines.append((f"{name} exit code", "equal" if code_a == code_b else f"{code_a} -> {code_b}"))
        lines.append((f"{name} stdout", describe("stdout", out_a, out_b)))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="revision to compare with (the parent)")
    args = p.parse_args(argv)
    # SIGTERM ends the run through SystemExit, so the export is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    tmp = Path(tempfile.mkdtemp(prefix="outputs-"))
    try:
        commit = abtest.export(args.against, tmp / "rev")
        work = tmp / "work"
        work.mkdir()
        for config, data in CONFIGS.items():
            if data is not None:
                (work / f"{config}.json").write_text(json.dumps(data), "utf-8")
        lines = []
        for blas in BLAS:
            runs = {}
            for side, tree in (("rev", tmp / "rev"), ("tree", abtest.ROOT)):
                runs[side] = run_tree(tree, work, blas)
                (work / "out").mkdir(exist_ok=True)  # when no command wrote a file
                (work / "out").rename(tmp / f"{side}-{blas}")
            compared = compare_runs(runs["rev"], runs["tree"])
            compared += compare_dirs(tmp / f"rev-{blas}", tmp / f"tree-{blas}")
            for name, line in compared:
                print(f"BLAS {blas:5s} {name}: {line}")
            lines += compared
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    differ = sum(line != "equal" for _name, line in lines)
    per = len(lines) // len(BLAS)
    verdict = "all equal" if not differ else f"{differ} differ"
    seconds = time.monotonic() - start
    print(f"outputs: {per} outputs per BLAS setting against {commit[:12]}: {verdict} ({seconds:.0f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
