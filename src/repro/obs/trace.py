"""Causal span tracing across processes.

A *span* is one timed unit of work with a causal parent: a sweep, a
prefix plan, a checkpoint publish, a cell, a round, a layer step, a
kernel call.  Spans are the one timing record: every duration the
runtime measures is exactly one span, and ``repro obs report`` /
``diff`` / ``export`` compute their percentiles exactly from them.
Spans form a tree via ``(trace_id, span_id, parent_id)``,
and because the parent context propagates across every process boundary
the runtime owns — pool children in
:class:`~repro.runtime.runner.ParallelRunner` (fork *and* spawn, via
``REPRO_TRACE_CTX``), forked cells in fork-mode sweeps, and cluster
workers (via the queue manifest's ``trace`` token) — a distributed
sweep reconstructs into **one** tree:

    sweep → prefix plan → checkpoint publish/fetch → cell → round →
    layer → kernel

Everything is off by default, and the instrumented seams cost one
module-global check (``perf_smoke.py obs`` gates this fast
path).  When an obs dir is configured, finished spans are buffered per
process in a :class:`repro.obs.stream.BufferedStream` over
``obs/spans.jsonl``.  Kernels are timed by :func:`timed`: one leaf span
per call through :func:`record`, which also keeps per-name calls /
seconds totals — the per-round ``kernels`` column of
:mod:`repro.obs.series` is their delta.

Span record schema (one line)::

    {"kind": "span", "trace": tid, "span": sid, "parent": psid|null,
     "name": "cell", "start": <epoch s>, "dur": <s>, "pid": <os pid>,
     "attrs": {"task_id": ..., "worker": ..., ...}}

Wall-clock ``start`` (``time.time``) aligns spans across processes on
one host; durations are monotonic (``perf_counter``) so a span is never
negative.  The analysis half of this module — :func:`build_tree`,
:func:`format_tree`, :func:`critical_path`, :func:`chrome_trace` —
reads the records back; ``repro obs trace tree / critical-path`` and
``repro obs export --format chrome`` are its CLI surfaces (the Chrome
trace-event JSON loads in Perfetto or ``about:tracing``).
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from functools import wraps
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from . import stream

#: The one global switch every traced seam checks before any work —
#: the same one-branch disabled fast path as ``repro.obs.metrics``.
ENABLED = False

#: Environment variable carrying the parent span context
#: (``"<trace_id>:<span_id>"``) into child processes under spawn.
ENV_CTX = "REPRO_TRACE_CTX"

_perf_counter = time.perf_counter
_time = time.time

#: The buffered ``spans.jsonl`` sink (no path: spans recorded nowhere).
_STREAM = stream.BufferedStream()

#: Current span context: ``(trace_id, span_id)`` of the innermost open
#: span, inherited by children (same thread/task) and by forked
#: processes.
_CTX: contextvars.ContextVar[Optional[Tuple[str, str]]] = contextvars.ContextVar(
    "repro_obs_trace_ctx", default=None
)

#: ``{name: [calls, seconds]}`` over every leaf span :func:`record`
#: wrote since :func:`reset_totals` (per cell, by
#: :func:`repro.obs.reset_for_cell`).  Unlocked: only ``@timed``
#: kernels record leaf spans, on the thread running the simulation.
_TOTALS: Dict[str, List] = {}


def set_enabled(on: bool) -> None:
    global ENABLED
    ENABLED = bool(on)


set_spans_path = _STREAM.set_path
flush = _STREAM.flush


def new_id() -> str:
    """A fresh 64-bit hex id.  ``os.urandom`` — never the simulation's
    RNG streams, so tracing stays trajectory-neutral."""
    return os.urandom(8).hex()


# -- context -----------------------------------------------------------------


def current() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the innermost open span, or None."""
    return _CTX.get()


def context_token() -> Optional[str]:
    """The current context as a propagatable ``"trace:span"`` token
    (what goes into ``REPRO_TRACE_CTX`` and the queue manifest)."""
    ctx = _CTX.get()
    return f"{ctx[0]}:{ctx[1]}" if ctx is not None else None


class _CtxBinding:
    """Token-restoring handle returned by :func:`adopt_token` — usable
    as a context manager, or fire-and-forget for process-lifetime
    adoption (a spawned worker parenting everything to the sweep)."""

    __slots__ = ("_token",)

    def __init__(self, token) -> None:
        self._token = token

    def __enter__(self) -> "_CtxBinding":
        return self

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _CTX.reset(self._token)
        return False


def adopt_token(token: Optional[str]) -> _CtxBinding:
    """Adopt a propagated ``"trace:span"`` token as this context's
    parent span.  Malformed or empty tokens are ignored (a no-op
    binding) — a worker must never crash over trace plumbing."""
    if not token or ":" not in token:
        return _CtxBinding(None)
    trace_id, span_id = token.split(":", 1)
    if not trace_id or not span_id:
        return _CtxBinding(None)
    return _CtxBinding(_CTX.set((trace_id, span_id)))


def adopt_env(environ: Optional[Dict[str, str]] = None) -> _CtxBinding:
    """Adopt the parent context exported via :data:`ENV_CTX`, if any —
    how spawn-mode pool children and locally-spawned cluster workers
    re-join the sweep's trace."""
    env = os.environ if environ is None else environ
    return adopt_token(env.get(ENV_CTX))


# -- emission ----------------------------------------------------------------


def record(
    name: str,
    start: float,
    dur: float,
    attrs: Optional[Dict[str, Any]] = None,
) -> None:
    """Record one already-timed *leaf* span under the current context —
    the cheap path ``@timed`` kernels use (no contextvar churn) — and
    add it to the per-name totals."""
    total = _TOTALS.get(name)
    if total is None:
        _TOTALS[name] = [1, dur]
    else:
        total[0] += 1
        total[1] += dur
    ctx = _CTX.get()
    if ctx is None:
        trace_id, parent = new_id(), None
    else:
        trace_id, parent = ctx
    rec: Dict[str, Any] = {
        "kind": "span",
        "trace": trace_id,
        "span": new_id(),
        "parent": parent,
        "name": name,
        "start": round(start, 6),
        "dur": round(dur, 9),
        "pid": os.getpid(),
    }
    if attrs:
        rec["attrs"] = attrs
    _STREAM.add(rec)


def totals() -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, seconds)}`` of the leaf spans recorded so far."""
    return {name: (calls, secs) for name, (calls, secs) in _TOTALS.items()}


def reset_totals() -> None:
    _TOTALS.clear()


def timed(name: str) -> Callable:
    """Decorator recording every call of a kernel as one leaf span
    ``name`` (:func:`record`).  Disabled path: one global check per
    call; the original function stays on ``__wrapped__`` for the perf
    gate's vanilla baseline."""

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            start = _time()
            t0 = _perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, start, _perf_counter() - t0)

        wrapper.__obs_timed__ = name
        return wrapper

    return decorate


class Span:
    """One open span: a context manager that times its block, makes
    itself the current parent for anything opened inside it (same
    thread, forked children), and records itself on exit — keeping its
    duration on ``dur`` for a caller that reports it elsewhere (the
    engine's per-round series record)."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "dur",
        "_t0",
        "_start",
        "_token",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        ctx = _CTX.get()
        if ctx is None:
            self.trace_id, self.parent_id = new_id(), None
        else:
            self.trace_id, self.parent_id = ctx
        self.span_id = new_id()
        self.dur = 0.0
        self._t0 = 0.0
        self._start = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _CTX.set((self.trace_id, self.span_id))
        self._start = _time()
        self._t0 = _perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self.dur = dur = _perf_counter() - self._t0
        _CTX.reset(self._token)
        if exc_type is not None:
            self.attrs = dict(self.attrs)
            self.attrs["error"] = exc_type.__name__
        rec: Dict[str, Any] = {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self._start, 6),
            "dur": round(dur, 9),
            "pid": os.getpid(),
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        _STREAM.add(rec)
        return False


class _NullSpan:
    """The disabled-path span: does nothing, allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """A context manager tracing its block as one span — ``NULL_SPAN``
    (free) when tracing is off."""
    if not ENABLED:
        return NULL_SPAN
    return Span(name, attrs)


# -- reading -----------------------------------------------------------------


def load_spans(target: Union[str, Path]) -> List[Dict[str, Any]]:
    """All span records reachable from ``target``; raises
    ``FileNotFoundError`` when no span stream exists."""
    path = stream.resolve(target, "spans.jsonl", what="span stream")
    return [
        rec
        for rec in stream.read(path)
        if rec.get("kind") == "span" and "span" in rec and "name" in rec
    ]


class SpanNode:
    """One reconstructed span with its children (sorted by start)."""

    __slots__ = ("rec", "children", "orphan")

    def __init__(self, rec: Dict[str, Any], orphan: bool = False) -> None:
        self.rec = rec
        self.children: List["SpanNode"] = []
        self.orphan = orphan

    @property
    def name(self) -> str:
        return self.rec.get("name", "?")

    @property
    def start(self) -> float:
        return float(self.rec.get("start", 0.0))

    @property
    def dur(self) -> float:
        return float(self.rec.get("dur", 0.0))

    @property
    def end(self) -> float:
        return self.start + self.dur

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.rec.get("attrs") or {}


def build_tree(
    spans: Iterable[Dict[str, Any]],
) -> Tuple[List[SpanNode], List[SpanNode]]:
    """Reconstruct the span forest: ``(roots, orphans)``.

    Roots are spans with no parent; *orphans* are spans whose recorded
    parent id is missing from the stream (a crashed writer, a torn
    line, a broken propagation seam) — they are returned separately
    *and* rendered as annotated extra roots, never silently dropped.
    A fully-stitched single-sweep stream has one root and no orphans.
    """
    nodes: Dict[str, SpanNode] = {}
    for rec in spans:
        nodes[rec["span"]] = SpanNode(rec)
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in nodes.values():
        parent_id = node.rec.get("parent")
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            node.orphan = True
            orphans.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.name))
    roots.sort(key=lambda n: (n.start, n.name))
    orphans.sort(key=lambda n: (n.start, n.name))
    return roots, orphans


#: Sibling spans of one name beyond this many are collapsed into an
#: aggregate line by :func:`format_tree` (a 30-round cell would
#: otherwise print 30 identical "round" lines).
_COLLAPSE_AFTER = 4


def _format_node(
    node: SpanNode, depth: int, max_depth: int, out: List[str]
) -> None:
    pad = "  " * depth
    label = node.name
    attrs = node.attrs
    detail = " ".join(
        f"{key}={attrs[key]}"
        for key in ("task_id", "worker", "round", "mode", "n_tasks")
        if key in attrs
    )
    mark = "  [orphaned: parent span missing]" if node.orphan else ""
    out.append(
        f"{pad}{label}  {node.dur * 1000:.1f}ms"
        + (f"  {detail}" if detail else "")
        + mark
    )
    if depth + 1 > max_depth or not node.children:
        return
    by_name: Dict[str, List[SpanNode]] = {}
    for child in node.children:
        by_name.setdefault(child.name, []).append(child)
    for child in node.children:
        group = by_name.get(child.name)
        if group is None:
            continue  # already rendered/collapsed
        if len(group) <= _COLLAPSE_AFTER:
            by_name.pop(child.name)
            for sibling in group:
                _format_node(sibling, depth + 1, max_depth, out)
        else:
            by_name.pop(child.name)
            _format_node(group[0], depth + 1, max_depth, out)
            rest = group[1:]
            total = sum(s.dur for s in rest)
            out.append(
                f"{'  ' * (depth + 1)}… ×{len(rest)} more "
                f"{child.name}  {total * 1000:.1f}ms total"
            )


def format_tree(target: Union[str, Path], max_depth: int = 4) -> str:
    """The reconstructed span tree of a run, as indented text."""
    spans = load_spans(target)
    if not spans:
        return f"no spans recorded under {target}"
    roots, orphans = build_tree(spans)
    out = [
        f"trace tree: {target} ({len(spans)} span(s), "
        f"{len(roots)} root(s), {len(orphans)} orphan(s))"
    ]
    for root in roots + orphans:
        _format_node(root, 0, max_depth, out)
    return "\n".join(out)


# -- critical path -----------------------------------------------------------


def critical_path(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The longest blocking chain plus per-worker busy/idle attribution.

    The chain walks from the longest root: at every level the child
    that *finishes last* is what the parent was waiting on; the
    remainder of the parent's time is its self time.  Worker lanes
    (cell spans grouped by their ``worker`` attr, or pid) get a
    busy/idle split over the sweep window, with the largest gap and
    what ran right after it — "worker 2 idle 41%, longest gap 1.2s
    before cell replication=8/seed=1" is the output this feeds.
    """
    roots, orphans = build_tree(spans)
    all_roots = roots + orphans
    if not all_roots:
        return {"chain": [], "workers": [], "wall_s": 0.0}
    top = max(all_roots, key=lambda n: n.dur)
    chain: List[Dict[str, Any]] = []
    node = top
    while node is not None:
        blocking = max(node.children, key=lambda n: n.end, default=None)
        child_dur = blocking.dur if blocking is not None else 0.0
        chain.append(
            {
                "name": node.name,
                "dur_s": node.dur,
                "self_s": max(0.0, node.dur - child_dur),
                "attrs": node.attrs,
            }
        )
        node = blocking

    # Worker lanes: every "cell" span, grouped by worker attr or pid.
    window_start, window_end = top.start, top.end
    lanes: Dict[str, List[SpanNode]] = {}

    def collect_cells(node: SpanNode) -> None:
        if node.name == "cell":
            lane = str(node.attrs.get("worker") or f"pid-{node.rec.get('pid')}")
            lanes.setdefault(lane, []).append(node)
            return  # cells don't nest
        for child in node.children:
            collect_cells(child)

    for root in all_roots:
        collect_cells(root)
    workers: List[Dict[str, Any]] = []
    wall = max(1e-9, window_end - window_start)
    for lane in sorted(lanes):
        cells = sorted(lanes[lane], key=lambda n: n.start)
        busy = sum(c.dur for c in cells)
        gap_s, gap_before = 0.0, None
        prev_end = window_start
        for cell in cells:
            gap = cell.start - prev_end
            if gap > gap_s:
                gap_s = gap
                gap_before = cell.attrs.get("task_id", cell.name)
            prev_end = max(prev_end, cell.end)
        tail = window_end - prev_end
        if tail > gap_s:
            gap_s, gap_before = tail, "(end of sweep)"
        workers.append(
            {
                "worker": lane,
                "cells": len(cells),
                "busy_s": busy,
                "idle_s": max(0.0, wall - busy),
                "idle_frac": max(0.0, 1.0 - busy / wall),
                "longest_gap_s": gap_s,
                "gap_before": gap_before,
            }
        )
    return {"chain": chain, "workers": workers, "wall_s": top.dur}


def format_critical_path(target: Union[str, Path]) -> str:
    """Human rendering of :func:`critical_path` for a run."""
    spans = load_spans(target)
    if not spans:
        return f"no spans recorded under {target}"
    analysis = critical_path(spans)
    out = [f"critical path: {target} (wall {analysis['wall_s']:.3f}s)"]
    for i, step in enumerate(analysis["chain"]):
        attrs = step["attrs"]
        detail = " ".join(
            f"{key}={attrs[key]}"
            for key in ("task_id", "worker", "round")
            if key in attrs
        )
        out.append(
            f"{'  ' * i}{step['name']}  {step['dur_s'] * 1000:.1f}ms "
            f"(self {step['self_s'] * 1000:.1f}ms)"
            + (f"  {detail}" if detail else "")
        )
    if analysis["workers"]:
        out.append("")
        out.append("worker utilisation over the sweep window:")
        for lane in analysis["workers"]:
            line = (
                f"  {lane['worker']}: {lane['cells']} cell(s), "
                f"busy {lane['busy_s']:.3f}s, "
                f"idle {lane['idle_frac'] * 100:.0f}%"
            )
            if lane["gap_before"] is not None and lane["longest_gap_s"] > 0:
                line += (
                    f", longest gap {lane['longest_gap_s'] * 1000:.0f}ms "
                    f"before {lane['gap_before']}"
                )
            out.append(line)
    return "\n".join(out)


# -- Chrome trace-event export -----------------------------------------------


def chrome_trace(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (Perfetto / ``about:tracing``).

    Complete (``"ph": "X"``) events on one lane per OS process, labelled
    by the worker identity when a cell span on that pid carries one —
    thread-per-worker lanes.  Timestamps are microseconds relative to
    the earliest span, so the viewer opens at t=0.
    """
    spans = list(spans)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(float(rec.get("start", 0.0)) for rec in spans)
    lane_names: Dict[int, str] = {}
    events: List[Dict[str, Any]] = []
    for rec in spans:
        pid = int(rec.get("pid", 0))
        attrs = rec.get("attrs") or {}
        if pid not in lane_names and attrs.get("worker"):
            lane_names[pid] = f"worker {attrs['worker']}"
        args = dict(attrs)
        args["trace"] = rec.get("trace")
        args["span"] = rec.get("span")
        if rec.get("parent"):
            args["parent"] = rec["parent"]
        events.append(
            {
                "name": rec.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": round((float(rec.get("start", 0.0)) - t0) * 1e6, 3),
                "dur": round(float(rec.get("dur", 0.0)) * 1e6, 3),
                "pid": pid,
                "tid": pid,
                "args": args,
            }
        )
    for pid in sorted({e["pid"] for e in events}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": lane_names.get(pid, f"pid {pid}")},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    target: Union[str, Path], out: Union[str, Path]
) -> Path:
    """Export a run's spans as a Chrome trace file; returns the path."""
    trace = chrome_trace(load_spans(target))
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace, sort_keys=True) + "\n", encoding="utf8")
    return out


# -- aggregation for diffing -------------------------------------------------


def span_histograms(target: Union[str, Path]) -> Dict[str, List[float]]:
    """Per-name span durations of a run (``{"span.round": [...]}``) —
    the timing rows ``repro obs report`` / ``diff`` / ``export``
    summarise.  Returns ``{}`` when the run recorded no spans."""
    try:
        spans = load_spans(target)
    except FileNotFoundError:
        return {}
    out: Dict[str, List[float]] = {}
    for rec in spans:
        out.setdefault(f"span.{rec.get('name', '?')}", []).append(
            float(rec.get("dur", 0.0))
        )
    return out
