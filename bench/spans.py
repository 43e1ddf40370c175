"""In-memory span recorder and the wrappers that time calls into ``cmseq``.

A span is one timed call: an integer id, the id of the span that caused it
(``parent``, or None at the root), a trace id shared by every span of one
benchmark operation, a name, start and end times from ``time.perf_counter``
and an optional dict of counts taken from the call's arguments and result.
On Linux ``perf_counter`` reads ``CLOCK_MONOTONIC``, so spans written by a
child process line up with the parent's.

Spans stay in memory while a workload runs and are written out once, when
it ends (``dump_spans``), in the ``SPAN_FORMAT`` layout documented in
``bench/README.md``.  An in-program recorder can emit the same file.

Nothing here imports numpy or cmseq at module level: the benchmark times
``import cmseq`` itself, so it must be the first heavy import of a process.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import types
from contextlib import contextmanager
from time import perf_counter

SPAN_FORMAT = "cmseq-spans/1"

# The layers the benchmark measures: the cmseq modules, in dependency order.
LAYER_MODULES = (
    "blocks",
    "patterns",
    "classify",
    "oracle",
    "models",
    "simulate",
    "serialize",
    "cli",
)
_SPAN_FIELDS = ("id", "parent", "trace", "name", "start", "end", "attrs")


class SpanRecorder:
    """Collects spans in memory; ``enabled`` turns recording on and off.

    While disabled, wrapped functions call straight through, so code the
    benchmark runs between operations (its own checks) leaves no spans.
    """

    def __init__(self):
        self.enabled = False
        self.trace = None
        self._finished = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("current_span", default=None)

    def call(self, name, fn, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = perf_counter()
            self._current.reset(token)
            self._finished.append(
                (sid, parent, self.trace, name, start, end, {"error": type(exc).__name__})
            )
            raise
        end = perf_counter()
        self._current.reset(token)
        attrs = count(args, result) if count is not None else None
        self._finished.append((sid, parent, self.trace, name, start, end, attrs))
        return result

    @contextmanager
    def span(self, name, **attrs):
        """Span around a block of the benchmark's own code; yields the span id."""
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._current.reset(token)
            self._finished.append((sid, parent, self.trace, name, start, end, attrs or None))

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap_function(self, name, fn, count=None):
        """A function that calls ``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def new_id(self):
        return next(self._ids)

    def adopt(self, spans, parent):
        """Add spans recorded by another process under the span ``parent``.

        Their ids are renumbered into this recorder's id space; their roots
        become children of ``parent`` and take the current trace id.
        """
        mapping = {}
        for s in spans:
            mapping[s["id"]] = self.new_id()
        for s in spans:
            self._finished.append(
                (
                    mapping[s["id"]],
                    mapping.get(s["parent"], parent),
                    self.trace,
                    s["name"],
                    s["start"],
                    s["end"],
                    s.get("attrs"),
                )
            )

    def take(self):
        """Return the spans finished so far and forget them."""
        out, self._finished = self._finished, []
        return out


def span_dicts(spans):
    return [dict(zip(_SPAN_FIELDS, s)) for s in spans]


def dump_spans(path, spans, meta=None):
    """Write spans (tuples or dicts) as one JSON document."""
    rows = [s if isinstance(s, dict) else dict(zip(_SPAN_FIELDS, s)) for s in spans]
    doc = {"format": SPAN_FORMAT, "clock": "time.perf_counter", "meta": meta or {}, "spans": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Instrumentation: wrap every public cmseq function where a module binds it.


def _count_cholesky(args, result):
    n = len(args[0])
    return {"n": n, "flops": n**3 / 3.0}


def _count_detect(args, result):
    matrix, spec = args[0], args[1]
    blocks = matrix.n_blocks
    return {"blocks_scanned": 2 * blocks * blocks - _support_size(spec)}


@functools.lru_cache(maxsize=None)
def _support_size(spec):
    allowed_support = inspect.unwrap(sys.modules["cmseq.patterns"].allowed_support)
    return len(allowed_support(spec))


def _count_file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_draws(args, result):
    model, replicates = args[0], int(args[1])
    return {"draws": replicates * (model.n_last + 1) * model.dim}


def _count_law_size(args, result):
    return {"size": args[0].covariance.shape[0]}


_COUNTERS = {
    "blocks.cholesky_spd": _count_cholesky,
    "patterns.detect": _count_detect,
    "serialize.save_batch_csv": _count_file_bytes,
    "serialize.save_batch_json": _count_file_bytes,
    "simulate.sample_forward": _count_draws,
    "simulate.sample_backward": _count_draws,
    "classify.full_report": _count_law_size,
}


class Instrumentation:
    """Replaces each public cmseq function, in every cmseq module namespace
    that binds it, with a wrapper that records a span.

    The span name is ``<defining module>.<function>``, whichever module the
    call goes through, so ``cmseq.oracle.cholesky_spd`` and
    ``cmseq.blocks.cholesky_spd`` both record ``blocks.cholesky_spd``.
    ``SequenceLaw.__init__`` and ``SequenceLaw.precision`` are wrapped on
    the class as ``blocks.SequenceLaw_init`` and ``blocks.SequenceLaw.precision``.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._patched = []

    def install(self):
        import cmseq

        rec = self.recorder
        namespaces = [cmseq] + [
            sys.modules[f"cmseq.{m}"] for m in LAYER_MODULES if f"cmseq.{m}" in sys.modules
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not _is_cmseq_function(obj):
                    continue
                name = f"{obj.__module__.removeprefix('cmseq.')}.{obj.__name__}"
                self._patch(ns, attr, obj, rec.wrap_function(name, obj, _COUNTERS.get(name)))
        law_cls = sys.modules["cmseq.blocks"].SequenceLaw
        methods = (("__init__", "blocks.SequenceLaw_init"), ("precision", "blocks.SequenceLaw.precision"))
        for attr, name in methods:
            orig = law_cls.__dict__[attr]
            self._patch(law_cls, attr, orig, rec.wrap_function(name, orig))

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []


def _is_cmseq_function(obj):
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("cmseq.")


# ---------------------------------------------------------------------------
# Folding spans into per-layer totals.


def is_layer(name):
    return name.split(".", 1)[0] in LAYER_MODULES


class SpanFold:
    """Running totals over the spans of many operations.

    ``by_name[name]`` holds [calls, total_s, self_s]; ``tree[path]`` the
    same keyed by the tuple of span names from the root; ``counts[name]``
    sums each count attribute.  Self time is a span's duration minus the
    durations of its children (children of one span never overlap: the
    benchmark and cmseq are single-threaded).
    """

    def __init__(self):
        self.by_name = {}
        self.tree = {}
        self.counts = {}
        self.full_size_factorizations = 0

    def add(self, spans):
        by_id = {s[0]: s for s in spans}
        child_time = {}
        for sid, parent, _trace, _name, start, end, _attrs in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        path_of = {}

        def path(sid):
            if sid in path_of:
                return path_of[sid]
            s = by_id[sid]
            parent = s[1]
            p = (path(parent) if parent in by_id else ()) + (s[3],)
            path_of[sid] = p
            return p

        for s in spans:
            sid, parent, _trace, name, start, end, attrs = s
            dur = end - start
            own = dur - child_time.get(sid, 0.0)
            row = self.by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
            trow = self.tree.setdefault(path(sid), [0, 0.0, 0.0])
            trow[0] += 1
            trow[1] += dur
            trow[2] += own
            if attrs:
                acc = self.counts.setdefault(name, {})
                for key, val in attrs.items():
                    if isinstance(val, (int, float)) and not isinstance(val, bool):
                        acc[key] = acc.get(key, 0) + val
            if name == "blocks.cholesky_spd" and attrs:
                size = _enclosing_law_size(by_id, parent)
                if size is not None and attrs.get("n") == size:
                    self.full_size_factorizations += 1

    def calls(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[2]

    def count(self, name, key):
        return self.counts.get(name, {}).get(key, 0)

    def layer_self_s(self):
        return sum(row[2] for name, row in self.by_name.items() if is_layer(name))


def _enclosing_law_size(by_id, sid):
    while sid is not None and sid in by_id:
        s = by_id[sid]
        if s[3] == "classify.full_report":
            return (s[6] or {}).get("size")
        sid = s[1]
    return None


def render_tree(tree, wall_s, min_share=0.001):
    """Text lines of the span tree, indented by depth, with counts and self
    time; subtrees under ``min_share`` of the wall time are left out."""
    lines = [f"{'span':<58} {'calls':>9} {'self_s':>10} {'self%':>6}"]
    for path in sorted(tree):
        calls, total, own = tree[path]
        if wall_s > 0 and total / wall_s < min_share:
            continue
        label = "  " * (len(path) - 1) + path[-1]
        share = 100.0 * own / wall_s if wall_s > 0 else 0.0
        lines.append(f"{label:<58} {calls:>9} {own:>10.4f} {share:>5.1f}%")
    return lines
