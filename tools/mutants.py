"""Mutation catalogue: each entry of ``tools/mutants.json`` must make its tests fail.

    python tools/mutants.py

An entry names a file, an exact ``old`` snippet that occurs in it exactly
once, the ``new`` snippet that replaces it, the tier-1 node ids expected to
fail (``tests``) and the CHANGES.md or ROADMAP claim it backs (``claim``).

The working tree's files (tracked and untracked, not ignored) are copied
once into a temporary directory. There, the union of every entry's node ids
runs first on the unmutated copy, and must pass. Then each entry in turn is
applied, only its node ids run (``python -m pytest``, the copy's ``src``
first on the path, no bytecode written), and the file is restored. An entry
is killed when every one of its node ids fails, and survives when any
passes. One line is printed per entry and a summary line last. The exit
code is 1 when an entry survives, a snippet does not match exactly once,
the unmutated run fails or pytest cannot run a node id; else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# abtest is loaded from its file, as tools/outputs.py loads it, for the one
# copy of the working tree that both tools make (``abtest.copy_tree``).
_spec = importlib.util.spec_from_file_location("abtest", Path(__file__).resolve().parent / "abtest.py")
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)

ROOT = abtest.ROOT
CATALOGUE = ROOT / "tools" / "mutants.json"
FIELDS = ("id", "file", "old", "new", "tests", "claim")
# A mutant that hangs its tests counts as killed once this many seconds pass.
TIMEOUT_S = 600


def load(path: Path = CATALOGUE) -> list[dict]:
    return json.loads(path.read_text("utf-8"))


def problems(entries: list[dict], root: Path = ROOT) -> list[str]:
    """Why entries cannot run against root: fields, snippet matches and node ids; [] when none."""
    out = []
    seen = set()
    for n, entry in enumerate(entries):
        name = entry.get("id", f"entry {n}")
        if sorted(entry) != sorted(FIELDS):
            out.append(f"{name}: fields must be {', '.join(FIELDS)}")
            continue
        if name in seen:
            out.append(f"{name}: id is not unique")
        seen.add(name)
        path = root / entry["file"]
        count = path.read_text("utf-8").count(entry["old"]) if path.is_file() else 0
        if count != 1:
            out.append(f"{name}: old snippet matches {count} times in {entry['file']}, not once")
        if entry["old"] == entry["new"]:
            out.append(f"{name}: new snippet equals the old one")
        if not entry["tests"]:
            out.append(f"{name}: no node ids")
        for node in entry["tests"]:
            test_file, _, rest = node.partition("::")
            func = rest.split("::")[-1].split("[")[0]
            text = (root / test_file).read_text("utf-8") if (root / test_file).is_file() else ""
            if not func or not re.search(rf"^\s*def {re.escape(func)}\(", text, re.M):
                out.append(f"{name}: no test {node}")
    return out


def run_tests(tree: Path, nodes: list[str]) -> tuple[int | None, set[str]]:
    """(pytest exit code, None on timeout; the failed or erroring node ids) of nodes in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *nodes]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, set(nodes)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
    return proc.returncode, failed


def fails(node: str, failed: set[str]) -> bool:
    """Whether node, or one of its parametrized cases, is among the failed ids."""
    return any(f == node or f.startswith(node + "[") for f in failed)


def verdict(entry: dict, code: int | None, failed: set[str]) -> tuple[bool | None, str]:
    """(killed, line) of one mutant's run; killed is None when pytest could not run it."""
    if code is None:
        return True, f"killed (timeout after {TIMEOUT_S} s)"
    if code not in (0, 1):
        return None, f"error: pytest exit code {code}"
    passed = [node for node in entry["tests"] if not fails(node, failed)]
    if passed:
        return False, f"SURVIVED: {len(passed)} of {len(entry['tests'])} passed: {', '.join(passed)}"
    return True, f"killed by {len(entry['tests'])} of {len(entry['tests'])}"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    entries = load()
    bad = problems(entries)
    for line in bad:
        print(f"mutants: {line}")
    if bad:
        return 1
    # SIGTERM ends the run through SystemExit, so the copy is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    tmp = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        abtest.copy_tree(tmp)
        nodes = list(dict.fromkeys(n for e in entries for n in e["tests"]))
        code, failed = run_tests(tmp, nodes)
        if code != 0:
            shown = ", ".join(sorted(failed)) or f"pytest exit code {code}"
            print(f"mutants: the unmutated tree fails: {shown}")
            return 1
        killed = errors = 0
        for entry in entries:
            path = tmp / entry["file"]
            text = path.read_text("utf-8")
            path.write_text(text.replace(entry["old"], entry["new"]), "utf-8")
            try:
                ok, line = verdict(entry, *run_tests(tmp, entry["tests"]))
            finally:
                path.write_text(text, "utf-8")
            killed += ok is True
            errors += ok is None
            print(f"{entry['id']}: {line}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    survived = len(entries) - killed - errors
    seconds = time.monotonic() - start
    print(f"mutants: {killed} of {len(entries)} killed, {survived} survived, "
          f"{errors} errors ({seconds:.0f} s)")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
