"""Outside-in span tracer for pancseg, installed from the benchmark's files.

``install(tracer)`` rebinds each traced public function in *every* pancseg
module namespace that holds it (``read_volume`` is bound separately in
``cli``, ``ensemble`` and ``selection``, so patching ``nifti`` alone would let
calls escape), wraps ``SubsetEvaluator`` methods and ``Volume`` construction
on their classes, and routes ``metrics``' calls to
``scipy.ndimage.distance_transform_edt`` through a traced proxy.

Spans live in memory.  Each thread keeps its own span stack, so concurrent
``evaluate_case`` calls under ``--jobs 2`` never nest inside each other; a
span opened on a thread with an empty stack is attributed to the innermost
open span of the thread that installed the tracer.  A span's self time is
its duration minus the union of its children's intervals.
"""
from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent
        self.children = []
        self.start = time.perf_counter_ns()
        self.end = None

    def self_ns(self) -> int:
        lo, hi = self.start, self.end
        covered, cur_lo, cur_hi = 0, None, None
        for child in sorted(self.children, key=lambda c: c.start):
            a, b = max(child.start, lo), min(child.end, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (hi - lo) - covered


class Tracer:
    """Spans plus named counters, safe to use from several threads.

    While ``enabled`` is false the wrappers call straight through and
    record nothing, so traced and untraced passes can alternate.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.input_bytes: dict[str, int] = {}  # path -> size, inputs only
        self.touched_bytes: dict[str, int] = defaultdict(int)  # path -> bytes read or hashed
        self.written: set[str] = set()
        self.member_pairs: set[tuple[str, str]] = set()  # (member_id, case_id) loaded
        self._local = threading.local()
        self._root_stack: list[Span] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        span = Span(name, parent)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def touch(self, path) -> None:
        """Record that ``path`` was read or hashed in full."""
        key = os.path.realpath(path)
        size = os.path.getsize(key)
        with self._lock:
            self.touched_bytes[key] += size
            self.input_bytes[key] = size

    def wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self, passes: int) -> dict:
        """Per-pass ``<name>.calls`` / ``<name>.self_s`` plus counters."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_ns() / 1e9
        for key, value in self.counts.items():
            out[key] += value
        out["trace.spans"] = len(self.spans)
        out = {k: v / passes for k, v in out.items()}
        inputs = {p: n for p, n in self.input_bytes.items() if p not in self.written}
        touched = sum(n for p, n in self.touched_bytes.items() if p in inputs) / passes
        unique = sum(inputs.values())
        out["nifti.bytes_read_or_hashed_mb"] = touched / 1e6
        out["nifti.unique_input_mb"] = unique / 1e6
        out["nifti.read_amplification"] = touched / unique if unique else 0.0
        return out


# ------------------------------------------------------------------ counters


def _count_read(tracer, span, args, kwargs, result):
    path = args[0]
    tracer.touch(path)
    tracer.add("nifti.read_volume.mb_in", os.path.getsize(path) / 1e6)
    tracer.add("nifti.read_volume.mvox", result.data.size / 1e6)


def _count_write(tracer, span, args, kwargs, result):
    path = args[1]
    with tracer._lock:
        tracer.written.add(os.path.realpath(path))
    tracer.add("nifti.write_volume.mb_out", os.path.getsize(path) / 1e6)


def _count_sha(tracer, span, args, kwargs, result):
    tracer.touch(args[0])
    tracer.add("cli.sha256_file.mb", os.path.getsize(args[0]) / 1e6)


def _count_edt(tracer, span, args, kwargs, result):
    tracer.add("metrics.edt.mvox", args[0].size / 1e6)


def _count_codes(tracer, span, args, kwargs, result):
    # surface_distances computes codes of the ref and pred crops, which share
    # one shape: count the crop once per surface_distances call
    parent = span.parent
    if parent is not None and parent.name == "metrics.surface_distances":
        if sum(1 for c in parent.children if c.name == span.name) == 1:
            tracer.add("metrics.surface_distances.crop_mvox", args[0].size / 1e6)


def _count_border(tracer, span, args, kwargs, result):
    parent = span.parent
    if parent is not None and parent.name == "metrics.surface_distances":
        tracer.add("metrics.surface_distances.surfels", int(np.count_nonzero(result)))


def _count_stacks(key):
    def count(tracer, span, args, kwargs, result):
        tracer.add(key, sum(v.data.size for v in args[0]) / 1e6)

    return count


def _count_points(tracer, span, args, kwargs, result):
    tracer.add("geometry.sample_points.mpts", result.size / 1e6)


def _count_member_load(tracer, span, args, kwargs, result):
    tracer.add("selection.member_loads", 1)
    with tracer._lock:
        tracer.member_pairs.add((args[0].member_id, args[2]))


def _count_evaluate(tracer, span, args, kwargs, result):
    if not any(c.name == "ensemble.combine_volumes" for c in span.children):
        tracer.add("selection.cache_hits", 1)


def _wrap_member_digest(tracer, fn):
    def digest(self, member_id):
        miss = tracer.enabled and member_id not in self._member_digests
        value = fn(self, member_id)
        if miss:
            member = self._members_by_id[member_id]
            for case_id, _ in self.pool.cases:
                tracer.touch(member.resolve_path(case_id, self.base_dir))
        return value

    return tracer.wrap("selection.member_digest", digest)


# (module, attribute, span name, counter)
FUNCTIONS = (
    ("pancseg.cli", "main", "cli.main", None),
    ("pancseg.cli", "sha256_file", "cli.sha256_file", _count_sha),
    ("pancseg.report", "dumps_json", "report.dumps_json", None),
    ("pancseg.nifti", "read_volume", "nifti.read_volume", _count_read),
    ("pancseg.nifti", "write_volume", "nifti.write_volume", _count_write),
    ("pancseg.volume", "validate_label_set", "volume.validate_label_set", None),
    ("pancseg.volume", "read_manifest", "volume.read_manifest", None),
    ("pancseg.metrics", "evaluate_case", "metrics.evaluate_case", None),
    ("pancseg.metrics", "aggregate_cohort", "metrics.aggregate_cohort", None),
    ("pancseg.metrics", "surface_distances", "metrics.surface_distances", None),
    ("pancseg.surfels", "neighbour_codes", "surfels.neighbour_codes", _count_codes),
    ("pancseg.surfels", "border_map", "surfels.border_map", _count_border),
    ("pancseg.ensemble", "load_ensemble_spec", "ensemble.load_ensemble_spec", None),
    ("pancseg.ensemble", "combine", "ensemble.combine", None),
    ("pancseg.ensemble", "combine_volumes", "ensemble.combine_volumes", None),
    ("pancseg.ensemble", "load_member_volume", "ensemble.load_member_volume", _count_member_load),
    ("pancseg.ensemble", "average_probabilities", "ensemble.average_probabilities",
     _count_stacks("ensemble.average_probabilities.mvox")),
    ("pancseg.ensemble", "argmax_labels", "ensemble.argmax_labels", None),
    ("pancseg.ensemble", "majority_vote", "ensemble.majority_vote",
     _count_stacks("ensemble.majority_vote.mvox")),
    ("pancseg.selection", "load_pool", "selection.load_pool", None),
    ("pancseg.selection", "search_subsets", "selection.search_subsets", None),
    ("pancseg.geometry", "resample_image", "geometry.resample_image", None),
    ("pancseg.geometry", "resample_labels", "geometry.resample_labels", None),
    ("pancseg.geometry", "sample_points", "geometry.sample_points", _count_points),
    ("pancseg.augment", "load_preset", "augment.load_preset", None),
    ("pancseg.augment", "apply_pipeline", "augment.apply_pipeline", None),
    ("pancseg.augment", "spatial_transform", "augment.spatial_transform", None),
    ("pancseg.augment", "intensity_transform", "augment.intensity_transform", None),
    ("pancseg.augment", "simulate_low_res", "augment.simulate_low_res", None),
)


class _EdtProxy:
    """Stands in for ``scipy.ndimage`` inside ``pancseg.metrics`` only."""

    def __init__(self, real, edt):
        self._real = real
        self.distance_transform_edt = edt

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Route every traced pancseg entry point through ``tracer``.

    Installation is permanent for the process; toggle ``tracer.enabled``.
    """
    import pancseg  # noqa: F401  (loads every submodule)
    from pancseg import metrics, selection, volume

    modules = [m for n, m in sorted(sys.modules.items()) if n == "pancseg" or n.startswith("pancseg.")]
    for module_name, attr, span_name, count in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    evaluator = selection.SubsetEvaluator
    evaluator.evaluate = tracer.wrap("selection.evaluate", evaluator.evaluate, _count_evaluate)
    evaluator.member_digest = _wrap_member_digest(tracer, evaluator.member_digest)
    volume.Volume.__post_init__ = tracer.wrap("volume.Volume", volume.Volume.__post_init__)
    real = metrics.ndimage
    metrics.ndimage = _EdtProxy(
        real, tracer.wrap("metrics.edt", real.distance_transform_edt, _count_edt)
    )


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer numbers, with every ratio next to its base counts."""
    out = tracer.summary(passes)
    pairs = len(tracer.member_pairs)
    evaluations = out.get("selection.evaluate.calls", 0.0)
    out["selection.member_case_pairs"] = float(pairs)
    out["selection.member_load_ratio"] = (
        out.get("selection.member_loads", 0.0) / pairs if pairs else 0.0
    )
    out["selection.cache_hit_ratio"] = (
        out.get("selection.cache_hits", 0.0) / evaluations if evaluations else 0.0
    )
    return out
