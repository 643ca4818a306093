"""The metrics registry: counters.

One process-wide :class:`MetricsRegistry` counts what the instrumented
seams emit — rounds, per-layer message units, exchanges (the migration
count is the SPLIT count: one SPLIT per exchange), checkpoint-cache
hits, checkpoint bytes, forked and cold cells, queue claims.  Durations
are not kept here: every timed thing is one span
(:mod:`repro.obs.trace`), and ``repro obs report`` / ``diff`` /
``export`` compute their timing rows exactly from the spans.

:func:`count` is the call sites' fast path: when observability is
disabled (the default) it is a single module-global check — the
``perf_smoke.py --obs-gate`` CI gate holds the disabled path within 2%
of an uninstrumented build.

The registry is thread-safe (one lock around every mutation — the
cluster worker's heartbeat thread and its drain loop share the
process registry) and *process*-oblivious: every worker process owns
its own registry, resets it per cell, and flushes the snapshot as one
JSONL line (:func:`flush`, through :mod:`repro.obs.stream`) —
concurrent flushers interleave whole lines, exactly like the result
store's appends.

Snapshot schema (one flushed line)::

    {"kind": "metrics", "ts": "...", "ctx": {"run_id": ..., "task_id":
     ..., "worker": ..., "engine": ...}, "counters": {name: value}}

The per-cell ``metrics`` section of result-store cell records and
``obs/profile.json`` carry the same ``counters`` map, so ``repro obs
report`` renders any of them.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import stream

#: The one global switch every counting seam checks before doing any
#: work.  Toggled by :func:`set_enabled` (which
#: :func:`repro.obs.configure` drives from an obs dir or the profiler).
#: Read as a module attribute so hot loops pay one global load + branch
#: when observability is off.
ENABLED = False


def set_enabled(on: bool) -> None:
    """Flip the global counting switch."""
    global ENABLED
    ENABLED = bool(on)


class MetricsRegistry:
    """Thread-safe store of counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Add a :meth:`snapshot` (or a flushed metrics line) into this
        registry — the aggregation primitive ``repro obs report`` uses."""
        with self._lock:
            for name, value in (snap.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"counters": dict(self._counters)}

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counters_prefixed(self, prefix: str) -> Dict[str, float]:
        """All counters whose name starts with ``prefix`` — the series
        emitter's per-round delta source (one locked scan per round)."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def is_empty(self) -> bool:
        with self._lock:
            return not self._counters

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()


#: The process-wide default registry :func:`count` feeds.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def count(name: str, n: Union[int, float] = 1) -> None:
    """Add ``n`` to counter ``name`` — free when observability is off."""
    if ENABLED:
        _REGISTRY.count(name, n)


# -- flushing ----------------------------------------------------------------


def metrics_record(
    ctx: Optional[Dict[str, Any]] = None,
    snapshot: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One flushable metrics line (the schema documented above)."""
    snap = snapshot if snapshot is not None else _REGISTRY.snapshot()
    return {
        "kind": "metrics",
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "ctx": dict(ctx or {}),
        "counters": snap.get("counters", {}),
    }


def flush(
    path: Union[str, Path],
    ctx: Optional[Dict[str, Any]] = None,
    snapshot: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one metrics line to ``path`` (unbuffered, never raising —
    :func:`repro.obs.stream.try_append`).  Returns the record."""
    record = metrics_record(ctx=ctx, snapshot=snapshot)
    stream.try_append(path, [stream.encode(record)])
    return record
