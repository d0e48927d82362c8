"""rrmsim benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-reference

Run from the root of a checkout; the package is imported from its ``src/``.
Each run sets up (import, config resolution, one untimed warm-up op on the
reference inputs), then runs timed ops on inputs derived from ``--seed``
until ``--seconds`` have passed, checking every op's outputs. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``spans.py``; the names and units are those in
``BENCHMARK.json``. The last stdout line is the JSON result; the line before
it records the machine, the library versions and the source revision.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread on a small shared box: the program is single-threaded
# Python around numpy, and extra BLAS threads only add timing noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Extra processes that repeat the set-up so that setup_s is a median of five.
SETUP_CHILDREN = 4
# The tail is the highest percentile with this many ops beyond it.
TAIL_BEYOND = 10
# Seconds that one calibration pass takes on the reference machine (2-core
# x86_64 sandbox, Python 3.11, numpy 2.4, OpenBLAS on one thread). Reported
# times are wall times scaled to that machine speed; see calibration_pass.
CALIBRATION_REF_S = 0.005
_CAL_X = np.linspace(0.0, 1.0, 4096)
_CAL_A = np.outer(np.arange(64.0), np.arange(64.0)) % 7.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the outputs at the default seed under reference/")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_rrmsim():
    """Import rrmsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "rrmsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rrmsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rrmsim

    if SRC.resolve() not in Path(rrmsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported rrmsim from {rrmsim.__file__}, not {SRC}")


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if Path(out[0]).resolve() == ROOT else None


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "rrmsim").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def canonical(wl, out):
    return json.loads(json.dumps(wl.canonical(out)))


def calibration_pass() -> float:
    """Wall seconds of a fixed mix of interpreter, elementwise numpy and BLAS work.

    The machine is shared, and its speed drifts by tens of percent within
    seconds. The pass uses no rrmsim code, so its time tracks only that
    speed. Dividing an op's time by the passes just before and after it
    removes most of the drift from the reported metrics.
    """
    t0 = time.perf_counter()
    total = 0.0
    for k in range(40):
        total += float(np.abs(np.sum(np.exp(1j * k * _CAL_X))))
        total += float(np.sum(_CAL_A @ (_CAL_A + k)))
        total += sum(i * i for i in range(300))
    return time.perf_counter() - t0


def run_op(op, inputs):
    """Call one op; return (output or None, seconds)."""
    t0 = time.perf_counter()
    try:
        out = op(inputs)
    except Exception:  # an op that raises counts as failed; the loop goes on
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - t0


def setup_samples(args) -> list:
    """Set-up times of fresh processes that run only the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return [
        float(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=150, check=True).stdout.split()[-1])
        for _ in range(SETUP_CHILDREN)
    ]


def tail(latencies):
    """(percentile, value): highest percentile with TAIL_BEYOND ops beyond it.

    With too few ops for that, the tail falls back to the median.
    """
    lat = sorted(latencies)
    n = len(lat)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else (n - 1) // 2
    return 100.0 * (n - beyond) / n, lat[n - 1 - beyond]


def selected_metrics(kind: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def write_reference(wl, name):
    from workloads import DEFAULT_SEED

    ops = []
    for index in range(wl.reference_ops):
        out = wl.op(wl.inputs(DEFAULT_SEED, index))
        errs = wl.problems(out)
        if errs:
            raise SystemExit(f"perfbench: reference op {index} fails its checks: {errs}")
        ops.append(canonical(wl, out))
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": ops}, indent=1) + "\n", "utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_rrmsim()
    from spans import OP_SPAN, Tracer, span_overhead_s
    from workloads import DEFAULT_SEED, WORKLOADS, mismatches

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch = ROOT / ".perfbench_out" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](scratch)
        if args.write_reference:
            write_reference(wl, args.workload)
            return 0
        golden = json.loads((HERE / "reference" / f"{args.workload}.json").read_text("utf-8"))
        if golden["seed"] != DEFAULT_SEED:
            raise SystemExit("perfbench: reference was stored for another default seed")
        golden = golden["ops"]

        tracer = Tracer() if args.trace else None
        op = wl.op
        if tracer is not None:
            tracer.install()
            op = tracer.wrap(OP_SPAN, wl.op)
            tracer.op = -1
        warm_out, _ = run_op(op, wl.inputs(DEFAULT_SEED, 0))
        setup_raw = time.perf_counter() - _T0
        if tracer is not None:
            tracer.op = None
        setup = setup_raw * CALIBRATION_REF_S / statistics.median(
            calibration_pass() for _ in range(3)
        )
        if args.setup_only:
            print(f"{setup!r}")
            return 0

        attempted, failed = 0, 0

        def passed(out, want) -> bool:
            nonlocal attempted, failed
            attempted += 1
            if out is None:
                errs = ["op raised"]
            else:
                errs = wl.problems(out)
                if want is not None:
                    errs += mismatches(canonical(wl, out), want, "reference")
            if errs:
                failed += 1
                print(f"perfbench: op {attempted - 1} failed: {errs[:3]}", file=sys.stderr)
            return not errs

        passed(warm_out, golden[0])  # checked, not timed
        del warm_out
        setups = [setup] if tracer is not None else [setup] + setup_samples(args)

        # Per timed op: wall seconds (None if it failed) and speed factor.
        walls, factors = [], []
        cal_before = calibration_pass()
        start = time.perf_counter()
        while True:
            index = len(walls)
            inputs = wl.inputs(args.seed, index + 1)
            want = golden[index + 1] if args.seed == DEFAULT_SEED and index + 1 < len(golden) else None
            if tracer is not None:
                tracer.op = index
            out, seconds = run_op(op, inputs)
            if tracer is not None:
                tracer.op = None
            walls.append(seconds if passed(out, want) else None)
            del out
            cal_after = calibration_pass()
            factors.append(2.0 * CALIBRATION_REF_S / (cal_before + cal_after))
            cal_before = cal_after
            if time.perf_counter() - start >= args.seconds:
                break

        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "timed_ops": len(walls), "environment": environment(),
                "median_speed_factor": statistics.median(factors)}
        if tracer is not None:
            tracer.uninstall()
            values = tracer.layer_metrics(factors, wl.count_ops)
            values["trace.overhead_ms"] = (
                1e3 * span_overhead_s() * values["trace.spans_per_op"] * statistics.median(factors)
            )
            spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}.npz"
            names, name_id, t_start, t_end, parent, op_id = tracer.arrays()
            np.savez(spans_file, names=np.array(names), name_id=name_id, start=t_start,
                     end=t_end, parent=parent, op=op_id, info=json.dumps(info))
            info["spans_file"] = str(spans_file.relative_to(ROOT))
            metrics = selected_metrics("per_layer", values)
        else:
            raw = [w for w in walls if w is not None]
            scaled = [w * f for w, f in zip(walls, factors) if w is not None]
            if not scaled:
                raise SystemExit("perfbench: every timed op failed")
            pct, tail_s = tail(scaled)
            values = {
                "setup_s": statistics.median(setups),
                "op_p50_ms": 1e3 * statistics.median(scaled),
                "op_tail_ms": 1e3 * tail_s,
                "items_per_s": wl.items_per_op * len(scaled) / sum(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            info.update({
                "ops_ok": len(scaled), "items_per_op": wl.items_per_op,
                "tail_percentile": pct, "setup_samples_s": setups,
                "setup_wall_s": setup_raw,
                "wall_op_p50_ms": 1e3 * statistics.median(raw),
                "wall_op_tail_ms": 1e3 * tail(raw)[1],
                "wall_items_per_s": wl.items_per_op * len(raw) / sum(raw),
            })
            metrics = selected_metrics("end_to_end", values)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("perfbench " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
