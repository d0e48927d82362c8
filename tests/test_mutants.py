"""``tools/mutants.py``: the catalogue still applies to this tree, and how a run is judged.

Nothing is mutated or run here; ``python tools/mutants.py`` runs the catalogue.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_snippet_matches_exactly_once():
    entries = mutants.load()
    assert len(entries) >= 12
    assert mutants.problems(entries) == []


def test_a_mutant_is_killed_only_when_each_listed_test_fails():
    entry = {"tests": ["tests/a.py::test_x", "tests/a.py::test_y"]}
    both = {"tests/a.py::test_x[1-2]", "tests/a.py::test_y"}
    assert mutants.verdict(entry, 1, both) == (True, "killed by 2 of 2")
    ok, line = mutants.verdict(entry, 1, {"tests/a.py::test_x"})
    assert not ok and line.endswith("1 of 2 passed: tests/a.py::test_y")
    assert not mutants.verdict(entry, 0, set())[0]
    assert mutants.verdict(entry, 2, both)[0] is None  # pytest could not run the node ids
    assert not mutants.fails("tests/a.py::test_x", {"tests/a.py::test_xy"})
    bad = [{"id": "m", "file": "tools/mutants.py", "old": "no such text", "new": "", "tests": [],
            "claim": ""}]
    assert mutants.problems(bad) == [
        "m: old snippet matches 0 times in tools/mutants.py, not once",
        "m: no node ids",
    ]
