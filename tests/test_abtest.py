"""``tools/abtest.py --claim WORKLOAD/METRIC=RATIO``: parsing, and each claim judged on its workload.

No benchmark runs: the export, the git calls and each ``perfbench/run.py``
process are replaced by stubs that return fixed reports.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("abtest", ROOT / "tools" / "abtest.py")
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)

RUN = ["--against", "HEAD", "--workload", "outage_mc", "--workload", "pattern", "--pairs", "2"]


def test_a_claim_names_its_workload_and_metric():
    args = abtest.parse_args([*RUN, "--claim", "outage_mc/items_per_s=1.15",
                              "--claim", "outage_mc/op_p50_ms=0.9"])
    assert args.claim == {"outage_mc": {"items_per_s": 1.15, "op_p50_ms": 0.9}}
    assert abtest.parse_args(RUN).claim == {}


@pytest.mark.parametrize(
    "claim",
    [
        "items_per_s=1.15",  # no workload
        "outage_mc/items_per_s",  # no ratio
        "outage_mc/items_per_s=fast",
        "outage_mc/=1.1",
        "/items_per_s=1.1",
        "large_surface/items_per_s=1.1",  # a workload the run does not measure
    ],
)
def test_a_malformed_or_unmeasured_claim_is_an_argument_error(claim, capsys):
    with pytest.raises(SystemExit) as info:
        abtest.parse_args([*RUN, "--claim", claim])
    assert info.value.code == 2
    assert "--claim: " in capsys.readouterr().err


def test_a_claim_is_judged_only_on_its_own_workload(monkeypatch):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def bench(tree, workload, seed, seconds):
        value = 110.0 if tree == abtest.ROOT else 100.0  # the change runs in ROOT
        return {"correct": True, "failed": 0, "metrics": {n: {"value": value} for n in names},
                "info": {"wall_items_per_s": value}}

    monkeypatch.setattr(abtest, "bench", bench)
    monkeypatch.setattr(abtest, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(abtest, "git", lambda *argv: b"")
    args = abtest.parse_args([*RUN, "--claim", "outage_mc/items_per_s=1.05"])
    verdict = abtest.run(args)["verdict"]["workloads"]
    assert set(verdict) == {"outage_mc", "pattern"}
    assert verdict["pattern"]["claims"] == {}
    claim = verdict["outage_mc"]["claims"]["items_per_s"]
    assert list(verdict["outage_mc"]["claims"]) == ["items_per_s"]
    assert claim["ratio"] == pytest.approx(1.1) and claim["ratio_met"] and claim["wins_met"]
