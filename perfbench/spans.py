"""Span recorder for the traced run.

``Tracer.install`` wraps the public functions of each rrmsim layer listed in
``LAYERS``. A name bound elsewhere by ``from .x import y`` is a separate
reference, so every rrmsim module that holds the same function object gets
the wrapper; ``numpy.linalg.eigvalsh`` is wrapped on ``numpy.linalg``, where
``np.linalg.eigvalsh`` looks it up. Each call appends one span (name, start,
end, parent span, op id) to an in-memory list, and counters are taken from
the call's arguments and result (sizes of arrays, not times), so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

OP_SPAN = "perfbench.op"


def _steering(tracer, args, result):
    geom = args[0]
    tracer.count("surface.steering_field.elements", geom.rows * geom.cols)


def _reference(tracer, args, result):
    key = (args[0], args[1])
    tracer.count("surface.reference_field.repeats", key in tracer.seen_references)
    tracer.seen_references.add(key)


def _recording(tracer, args, result):
    geom, cfg = args[0], args[3]
    if cfg.noise_power > 0.0:
        tracer.count("holography.noise_normals", 2 * geom.rows * geom.cols * cfg.num_samples)


def _weights(tracer, args, result):
    tracer.count("holography.weights_clipped", result.clipped)
    tracer.count("holography.weights_degenerate", result.degenerate)


def _paths(tracer, args, result):
    tracer.count("channel.paths", len(result))


def _raised_cosine(tracer, args, result):
    tracer.count("link.raised_cosine.points", np.size(args[0]))


def _directions(tracer, args, result):
    tracer.count("beampattern.array_factor.dirs", np.size(args[3]) * np.size(args[4]))


def _csv_bytes(tracer, args, result):
    tracer.count("beampattern.export_pattern_csv.bytes", os.path.getsize(args[1]))


# (span name, module that defines the function, attribute, counter)
LAYERS = (
    ("harness.run_preset", "rrmsim.harness.presets", "run_preset", None),
    ("harness.resolve_config", "rrmsim.harness.presets", "resolve_config", None),
    ("harness.emit_csv", "rrmsim.harness.results", "emit_csv", None),
    ("channel.sample_paths", "rrmsim.channel", "sample_paths", _paths),
    ("surface.steering_field", "rrmsim.surface", "steering_field", _steering),
    ("surface.reference_field", "rrmsim.surface", "reference_field", _reference),
    ("surface.object_field", "rrmsim.surface", "object_field", None),
    ("holography.record_hologram", "rrmsim.holography", "record_hologram", _recording),
    ("holography.make_weights", "rrmsim.holography", "make_weights", _weights),
    ("holography.rhs_weights", "rrmsim.holography", "rhs_weights", None),
    ("link.trial_mi_curves", "rrmsim.link", "trial_mi_curves", None),
    ("link.equivalent_taps", "rrmsim.link", "equivalent_taps", None),
    ("link.alpha_taps", "rrmsim.link", "alpha_taps", None),
    ("link.raised_cosine", "rrmsim.link", "raised_cosine", _raised_cosine),
    ("link.build_toeplitz", "rrmsim.link", "build_toeplitz", None),
    ("link.eigen", "numpy.linalg", "eigvalsh", None),
    ("beampattern.array_factor", "rrmsim.beampattern", "array_factor", _directions),
    ("beampattern.find_peaks", "rrmsim.beampattern", "find_peaks", None),
    ("beampattern.sidelobe_metrics", "rrmsim.beampattern", "sidelobe_metrics", None),
    ("beampattern.export_pattern_csv", "rrmsim.beampattern", "export_pattern_csv", _csv_bytes),
)


class Tracer:
    """In-memory spans and per-op counters.

    ``op`` is the id of the op in progress: -1 for the warm-up, 0, 1, ...
    for timed ops, None outside ops (such spans are kept but not reported).
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[tuple, int] = {}  # (op, counter) -> total
        self.seen_references: set = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def count(self, key: str, amount) -> None:
        k = (self.op, key)
        self.counts[k] = self.counts.get(k, 0) + int(amount)

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = name + ".calls"

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self.count(calls, 1)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever rrmsim binds it."""
        for name, module, attr, counter in LAYERS:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            traced = self.wrap(name, original, counter)
            holders = [owner] + [
                m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rrmsim"
            ]
            for holder in dict.fromkeys(holders):
                if vars(holder).get(attr) is original:
                    setattr(holder, attr, traced)
                    self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def arrays(self):
        """Spans as columns: names, name ids, start, end, parent, op (-2 = none)."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        name_id = np.array([ids[s[0]] for s in self.spans], dtype=np.int32)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        op = np.array([-2 if s[4] is None else s[4] for s in self.spans], dtype=np.int64)
        return names, name_id, start, end, parent, op

    def layer_metrics(self, factors, count_ops: int) -> dict[str, float]:
        """Self-time shares over all timed ops, per-op counts over the first ``count_ops``.

        ``factors[i]`` scales the times of timed op ``i`` to the reference
        machine speed. A span's self time is its duration minus its
        children's durations (calls are nested and sequential in one thread),
        so the self times of all layers plus the op span's own add up to the
        traced op time, and their shares of it add up to 100%. A layer that
        a workload never calls has a share of exactly 0.
        """
        n_ops = len(factors)
        names, name_id, start, end, parent, op = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        timed = (op >= 0) & (op < n_ops)
        scale = np.asarray(factors)[op[timed]]
        ids = name_id[timed]
        self_s = np.bincount(ids, weights=(dur - child)[timed] * scale, minlength=len(names))
        is_op = ids == names.index(OP_SPAN)
        op_s = float(np.sum(dur[timed][is_op] * scale[is_op]))
        out = {f"{n}.self_pct": 0.0 for n, *_ in LAYERS}
        for n, s in zip(names, self_s):
            out[f"{n}.self_pct"] = 100.0 * float(s) / op_s
        out["trace.op_ms"] = 1e3 * op_s / n_ops

        counted = min(count_ops, n_ops)
        out["trace.spans_per_op"] = float(np.sum((op >= 0) & (op < counted))) / counted
        total: dict[str, int] = {}
        for (o, key), v in self.counts.items():
            if o is not None and 0 <= o < counted:
                total[key] = total.get(key, 0) + v

        def per_op(key):
            return total.get(key, 0) / counted

        def ratio(key, base):
            return total.get(key, 0) / total[base] if total.get(base) else 0.0

        out.update(
            {
                "link.eigen.calls": per_op("link.eigen.calls"),
                "link.raised_cosine.points": per_op("link.raised_cosine.points"),
                "channel.sample_paths.calls": per_op("channel.sample_paths.calls"),
                "channel.paths_per_block": ratio("channel.paths", "channel.sample_paths.calls"),
                "holography.record_hologram.calls": per_op("holography.record_hologram.calls"),
                "holography.noise_normals": per_op("holography.noise_normals"),
                "holography.weights_clipped_ratio": ratio(
                    "holography.weights_clipped", "holography.make_weights.calls"
                ),
                "holography.weights_degenerate": per_op("holography.weights_degenerate"),
                "surface.steering_field.calls": per_op("surface.steering_field.calls"),
                "surface.steering_field.elements": per_op("surface.steering_field.elements"),
                "surface.reference_field.calls": per_op("surface.reference_field.calls"),
                "surface.reference_field.repeat_ratio": ratio(
                    "surface.reference_field.repeats", "surface.reference_field.calls"
                ),
                "beampattern.array_factor.dirs": per_op("beampattern.array_factor.dirs"),
                "beampattern.export_pattern_csv.bytes": per_op(
                    "beampattern.export_pattern_csv.bytes"
                ),
            }
        )
        return out


def span_overhead_s(n: int = 20000) -> float:
    """Wrapper cost per span, measured on a function that does nothing."""

    def nothing():
        return None

    traced = Tracer().wrap("calibration", nothing)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        nothing()
    plain = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced()
    return max(clock() - t0 - plain, 0.0) / n
