"""The benchmark's stored reference outputs, replayed against the package.

``perfbench/run.py`` checks every op at the default seed against
``perfbench/reference/<workload>.json`` and counts a mismatch as a failed
op. Replaying those ops here makes a change that the benchmark would report
as incorrect fail the unit tests first. ``perfbench/workloads.py`` is
loaded, never modified.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_ops_replay(tmp_path, name):
    golden = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text("utf-8"))
    assert golden["seed"] == workloads.DEFAULT_SEED
    assert golden["ops"]
    wl = workloads.WORKLOADS[name](tmp_path)
    for index, want in enumerate(golden["ops"]):
        out = wl.op(wl.inputs(workloads.DEFAULT_SEED, index))
        assert wl.problems(out) == [], (name, index)
        # the benchmark compares the JSON round trip of the canonical form
        got = json.loads(json.dumps(wl.canonical(out)))
        assert workloads.mismatches(got, want, f"{name}[{index}]") == []
