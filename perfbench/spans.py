"""Benchmark-side tracing of the quandles package.

Every public function of each package module is wrapped from the outside and
the wrapper is installed in every module namespace that binds the function,
so calls made through ``core.translations``, ``classify.translations`` or
``quandles.translations`` all land in the same span stream. Nothing under
``src/`` is edited.

A span is ``(name, start, end, parent)`` with ``parent`` an index into the
same list (-1 for a root). Spans are kept in memory for one op at a time;
when the op ends its self times and counts are folded into running totals
and the spans of the first op of each kind are kept for writing out.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("formats", "core", "inner", "properties", "classify", "construct", "cli")

# Private functions that carry a layer of their own: the isomorphism search.
EXTRA = {"classify": ("_search_isomorphism", "_is_homomorphism")}

# Per-cell helpers: a span around each call would cost more than the call.
SKIP = {"construct.pair_to_index", "construct.index_to_pair", "core.apply",
        "core.dual_apply", "core.right_translation"}

# Stage predicates that classify._STAGES captured at import time; calls made
# through that tuple bypass the installed wrappers.
# Spans written out per op kind (the first traced op of each kind).
SAMPLE_SPANS = 50_000

STAGE_PREDICATES = ("properties.is_involutory", "properties.is_abelian",
                    "properties.is_left_distributive", "properties.is_connected")


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        d = end - start
        out[name] += d
        if parent >= 0:
            out[spans[parent][0]] -= d
    return dict(out)


def count_within(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    n = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                n += 1
                break
            p = spans[p][3]
    return n


class Tracer:
    """Span recorder for wrapped functions; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.stack: list[int] = []
        self.iso_pairs: list = []  # (q1, q2) seen by are_isomorphic, for the stage probe
        self.counts: Counter = Counter()  # outcome counters filled by observers
        self.observers = {
            "classify.are_isomorphic": self._observe_iso,
            "classify.all_quandle_tables": lambda args, r: self.counts.update(labeled_tables=len(r)),
            "classify.classify_family": lambda args, r: self.counts.update(classes=len(r)),
            "properties.alexander_recognize":
                lambda args, r: self.counts.update(alexander_witnesses=r is not None),
            "inner.inn_group": lambda args, r: self.counts.update(inn_group_elements=r.order),
        }

    def _observe_iso(self, args, r) -> None:
        self.iso_pairs.append(args[:2])
        self.counts.update(iso_positive=r.isomorphic,
                           iso_by_invariant=not r.isomorphic and r.certificate != "exhausted search")

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Hand over the spans, outcome counts and isomorphism input pairs
        recorded since the last call, and start afresh."""
        out = (list(self.spans), dict(self.counts), list(self.iso_pairs))
        self.spans.clear()
        self.counts.clear()
        self.iso_pairs.clear()
        return out


def install(tracer: Tracer):
    """Wrap the package's public functions in every namespace binding them.

    Returns ``(wrapped, restore)``: a map from span name to wrapper, and a
    function that puts the original objects back.
    """
    pkg = importlib.import_module("quandles")
    modules = [importlib.import_module(f"quandles.{m}") for m in MODULES]
    targets = {}  # id(original) -> (span name, original)
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and callable(obj) and not isinstance(obj, type)
                 and getattr(obj, "__module__", None) == mod.__name__
                 and not inspect.isgeneratorfunction(obj)]
        names += EXTRA.get(short, ())
        for n in names:
            span_name = f"{short}.{n}"
            if span_name not in SKIP:
                obj = getattr(mod, n)
                targets[id(obj)] = (span_name, obj)
    wrappers = {key: tracer.wrap(name, obj) for key, (name, obj) in targets.items()}
    replaced = []
    for ns in [pkg] + modules:
        for attr, obj in list(vars(ns).items()):
            w = wrappers.get(id(obj))
            if w is not None:
                setattr(ns, attr, w)
                replaced.append((ns, attr, obj))

    def restore():
        for ns, attr, obj in replaced:
            setattr(ns, attr, obj)

    return {targets[k][0]: w for k, w in wrappers.items()}, restore


def probe_stages(stages, wrapped, pairs) -> None:
    """Replay are_isomorphic's invariant stages on the recorded input pairs.

    The predicates in ``stages`` were captured before the wrappers existed,
    so the real calls are invisible; calling the wrapped ones here on the
    same inputs, stopping at the first differing stage as are_isomorphic
    does, times them under their own names.
    """
    by_original = {id(w.__wrapped__): w for w in wrapped.values()}
    funcs = [by_original.get(id(f), f) for _, f, _ in stages]
    for q1, q2 in pairs:
        for f in funcs:
            if f(q1) != f(q2):
                break


class LayerTotals:
    """Running per-name self time and call counts over many traced ops."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.alexander_candidates = 0
        self.ops = 0
        self.sample: dict[str, list] = {}

    def add_op(self, kind: str, spans, counts, probe_spans=()) -> None:
        self.ops += 1
        self.self_s.update(self_times(spans))
        self.calls.update(s[0] for s in spans)
        self.counts.update(counts)
        self.alexander_candidates += count_within(
            spans, "classify.are_isomorphic", "properties.alexander_recognize")
        probe = self_times(probe_spans)
        self.self_s.update({k: v for k, v in probe.items() if k in STAGE_PREDICATES})
        if kind not in self.sample:  # a prefix keeps every parent index valid
            self.sample[kind] = spans[:SAMPLE_SPANS]

    def merge(self, other: dict) -> None:
        """Fold in totals reported by another process (the cli launcher)."""
        self.ops += other["ops"]
        self.self_s.update(other["self_s"])
        self.calls.update(other["calls"])
        self.counts.update(other["counts"])
        self.alexander_candidates += other["alexander_candidates"]

    def as_dict(self) -> dict:
        return {"ops": self.ops, "self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "alexander_candidates": self.alexander_candidates}
