"""Paired A/B runs of the benchmark: this checkout against another revision.

    python tools/abtest.py --against REV --workload W [--workload W2 ...]
                           --pairs N --seconds S [--seed K]
                           [--claim WORKLOAD/METRIC=RATIO] [--change TEXT] [--out FILE]

REV's committed files are exported with ``git archive`` into a temporary
directory (nothing is registered in ``.git``, so an interrupted run leaves
no stale checkout behind), and the working tree's tracked and untracked
files, not ignored ones, are copied beside that export, so both sides run
from a fresh tree with no bytecode cache. ``perfbench/run.py`` runs in
each, one process at a time, with the same seed and run length. Pair i
runs the parent (REV) first when i is even and the change first when it is
odd. Nothing under ``perfbench/`` or in ``BENCHMARK.json`` is written.

The record has the shape of the ``BENCH_*.json`` files: every run's raw
report, and per workload and metric the parent's and the change's medians
and quartiles, the ratio of the medians, the median of the pairwise ratios,
the pairs the change wins (ties count for neither side) and the parent's
interquartile range. The metrics are ``BENCHMARK.json``'s end-to-end ones,
scaled to the reference machine speed, plus the unscaled
``wall_items_per_s``. The verdict says whether every run was correct,
lists the metrics that regressed or are unresolved, and holds, per workload:
- ``correct``: every run reported correct with ``failed`` = 0;
- per bounded metric, ``within bound``, ``regressed`` (the change's median
  is worse than the parent's by more than the bound) or ``unresolved``
  (worse by more than the bound, but with fewer than MIN_SPREAD_PAIRS pairs,
  or the parent's own quartiles further apart than the bound, there is no
  telling it from the spread, unless every change run is better than every
  parent run);
- with ``--claim outage_mc/items_per_s=1.15``, under that workload only,
  whether the change's median is at least that ratio of the parent's, the
  change wins at least nine pairs in ten, and the medians differ by more
  than the parent's interquartile range. A claim on a workload that the run
  does not measure is an argument error.
The record is written to --out, or printed when --out is not given.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Unscaled throughput from the report's info line, beside the scaled metrics.
WALL_METRIC = {"name": "wall_items_per_s", "unit": "1/s", "better": "higher"}
# A claim needs the change to win at least this share of the pairs.
CLAIM_WINS = 0.9
# Fewer pairs than this give no quartiles to judge a regression against.
MIN_SPREAD_PAIRS = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="revision to compare with (the parent)")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC=RATIO")
    p.add_argument("--change", default="", help="one-line description for the record")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs: must be >= 1, got {args.pairs}")
    if not args.seconds > 0:
        p.error(f"--seconds: must be > 0, got {args.seconds}")
    claims = {}  # workload -> {metric: ratio}
    for text in args.claim:
        target, _, ratio = text.partition("=")
        workload, _, metric = target.partition("/")
        try:
            if not (workload and metric):
                raise ValueError(text)
            ratio = float(ratio)
        except ValueError:
            p.error(f"--claim: expected WORKLOAD/METRIC=RATIO, e.g. outage_mc/items_per_s=1.15, "
                    f"got {text!r}")
        if workload not in args.workload:
            p.error(f"--claim: workload {workload!r} is not run; the --workload list is "
                    f"{args.workload}")
        claims.setdefault(workload, {})[metric] = ratio
    args.claim = claims
    return args


def git(*argv) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *argv], stdout=subprocess.PIPE, check=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted but still tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in tree: its parsed report, or the failure."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2].removeprefix("perfbench "))
    except (IndexError, ValueError):
        return {"correct": False, "failed": None, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return {**result, "info": info}


def values(run: dict) -> dict:
    """Metric name -> value of one run, or {} when the run produced no report."""
    if "metrics" not in run:
        return {}
    out = {name: m["value"] for name, m in run["metrics"].items()}
    out[WALL_METRIC["name"]] = run["info"]["wall_items_per_s"]
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarise(metric: dict, pairs: list) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    got = [(values(p["parent"]).get(name), values(p["change"]).get(name)) for p in pairs]
    got = [(a, b) for a, b in got if a is not None and b is not None]
    if not got:
        return {"pairs": 0}
    parent, change = [a for a, _ in got], [b for _, b in got]
    wins = sum((b > a) if higher else (b < a) for a, b in got)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    return {
        "pairs": len(got),
        "parent_median": p_med, "parent_quartiles": [p_q1, p_q3],
        "change_median": c_med, "change_quartiles": list(quartiles(change)),
        "ratio": c_med / p_med if p_med else None,
        "pair_ratio_median": statistics.median(b / a for a, b in got if a),
        "change_better_pairs": f"{wins}/{len(got)}",
        "parent_iqr": p_q3 - p_q1,
        "all_change_better": all((b > a) if higher else (b < a) for a in parent for b in change),
    }


def judge(metric: dict, s: dict) -> str:
    """``within bound``, ``regressed`` or ``unresolved`` for a metric with a bound."""
    if not s.get("pairs") or not s["parent_median"]:
        return "unresolved"
    higher = metric["better"] == "higher"
    worse = 1.0 - s["ratio"] if higher else s["ratio"] - 1.0
    if worse <= metric["bound"]:
        return "within bound"
    spread = s["pairs"] < MIN_SPREAD_PAIRS or s["parent_iqr"] / s["parent_median"] > metric["bound"]
    if spread and not s["all_change_better"]:
        return "unresolved"
    return "regressed"


def claim_met(metric: dict, s: dict, ratio: float) -> dict:
    higher = metric["better"] == "higher"
    wins, n = (int(x) for x in s["change_better_pairs"].split("/"))
    gain = s["change_median"] - s["parent_median"]
    return {
        "wanted_ratio": ratio,
        "ratio": s["ratio"],
        "ratio_met": s["ratio"] >= ratio if higher else s["ratio"] <= ratio,
        "wins_met": wins >= CLAIM_WINS * n,
        "beyond_parent_iqr": (gain if higher else -gain) > s["parent_iqr"],
    }


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = spec["end_to_end"] + [WALL_METRIC]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    unknown = {name for claims in args.claim.values() for name in claims}
    unknown -= {m["name"] for m in metrics}
    if unknown:
        raise SystemExit(f"abtest: no metric {sorted(unknown)}; choose from {[m['name'] for m in metrics]}")
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    tmp = Path(tempfile.mkdtemp(prefix="abtest-"))
    try:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        parent_commit = export(args.against, trees["parent"])
        copy_tree(trees["change"])
        batches, verdict = [], {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, args.seed, args.seconds)
                pairs.append(pair)
                print(f"abtest: {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            summary = {m["name"]: summarise(m, pairs) for m in metrics}
            runs = [p[side] for p in pairs for side in ("parent", "change")]
            verdict[workload] = {
                "correct": all(r.get("correct") is True and r.get("failed") == 0 for r in runs),
                "metrics": {m["name"]: judge(m, summary[m["name"]]) for m in spec["end_to_end"]},
                "claims": {
                    name: claim_met(next(m for m in metrics if m["name"] == name), summary[name], r)
                    for name, r in args.claim.get(workload, {}).items()
                    if summary[name].get("pairs")
                },
            }
            batches.append({"workload": workload, "seed": args.seed,
                            "order": "parent first in even pairs, change first in odd",
                            "summary": summary, "pairs": pairs})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    flagged = {
        state: [f"{w}.{m}" for w, v in verdict.items() for m, st in v["metrics"].items() if st == state]
        for state in ("regressed", "unresolved")
    }
    return {
        "change": args.change or f"working tree at {head}{' (modified)' if dirty else ''}",
        "method": (
            f"tools/abtest.py: python3 perfbench/run.py --workload W --seed {args.seed} "
            f"--seconds {args.seconds:g} --trace 0, {args.pairs} pairs per workload, the "
            f"parent {parent_commit} from a git archive export and the change from a "
            "copy of the working tree beside it, one process at a time, alternating which "
            "side runs first"
        ),
        "parent": parent_commit,
        "change_head": head,
        "change_modified": dirty,
        "bounds": bounds,
        "batches": batches,
        "verdict": {
            "correct": all(v["correct"] for v in verdict.values()),
            **flagged,
            "workloads": verdict,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM ends the run through SystemExit, so the export and the copy are still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = json.dumps(run(args), indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(record)
    else:
        args.out.write_text(record, "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
