"""The metrics registry: counters, gauges, histograms, timers.

One process-wide :class:`MetricsRegistry` accumulates everything the
instrumented seams emit — per-round and per-kernel wall times, exchange
and message counts, checkpoint-cache hits, queue claims.  The module
functions (:func:`count`, :func:`observe`, :func:`gauge`,
:func:`timer`, :func:`timed`) are the call sites' fast path: when
observability is disabled (the default) each is a single module-global
check, so the instrumented code costs one branch per call — the
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
     ..., "worker": ..., "engine": ...}, "counters": {name: value},
     "gauges": {name: value}, "hists": {name: {"count": n, "sum": s,
     "min": lo, "max": hi, "mean": m, "p50": ..., "p95": ..., "p99":
     ..., "res": [bounded reservoir sample]}}}

Percentiles are estimated from a bounded reservoir (``res``) carried in
the snapshot so cross-process aggregation can re-estimate them;
count/sum/min/max/mean merge exactly, percentiles approximately.

The same histogram-snapshot shape is used by the per-cell ``metrics``
section in result-store cell records, by ``obs/profile.json`` and by
``BENCH_core.json`` benchmark timings, so ``repro obs report`` renders
any of them.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from . import stream
from . import trace as _trace

#: The one global switch every instrumented seam checks before doing any
#: work.  Toggled by :func:`set_enabled` (which
#: :func:`repro.obs.configure` drives from ``REPRO_LOG`` / ``REPRO_OBS``
#: / CLI flags).  Read as a module attribute so hot loops pay one global
#: load + branch when observability is off.
ENABLED = False

_perf_counter = time.perf_counter
_time = time.time


def set_enabled(on: bool) -> None:
    """Flip the global instrumentation switch (both the module fast
    path and the default registry)."""
    global ENABLED
    ENABLED = bool(on)


def enabled() -> bool:
    return ENABLED


#: Environment knob for the percentile reservoir size.
ENV_RESERVOIR = "REPRO_OBS_RESERVOIR"

#: Reservoir size for approximate percentiles.  Small by default: 64
#: floats per histogram keeps flushed lines compact while p50/p95 stay
#: useful on the hundreds-to-thousands of observations a cell produces.
#: Raise it via ``REPRO_OBS_RESERVOIR`` (or :func:`set_reservoir_cap`)
#: when per-round latency tails need finer percentile resolution.
RESERVOIR_CAP = 64


def set_reservoir_cap(cap: int) -> None:
    """Set the percentile reservoir size (>= 1).  Applies to histograms
    created *and* merged after the call; existing reservoirs keep their
    samples and converge to the new bound on the next merge/observe."""
    global RESERVOIR_CAP
    cap = int(cap)
    if cap < 1:
        raise ValueError(
            f"histogram reservoir size must be >= 1, got {cap} "
            f"(check {ENV_RESERVOIR})"
        )
    RESERVOIR_CAP = cap


def _reservoir_cap_from_env(environ: Optional[Dict[str, str]] = None) -> int:
    """``REPRO_OBS_RESERVOIR`` → reservoir size (default 64), validated
    with a clear error naming the variable."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_RESERVOIR)
    if not raw:
        return 64
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_RESERVOIR} must be an integer >= 1, got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(
            f"{ENV_RESERVOIR} must be an integer >= 1, got {raw!r}"
        )
    return cap


# Adopt the environment's reservoir size at import so worker processes
# (fork or spawn) inherit the parent's setting without replumbing.
set_reservoir_cap(_reservoir_cap_from_env())

#: Dedicated, deterministically-seeded RNG for reservoir sampling —
#: never the simulation's seeded streams and never the global
#: ``random`` state, so instrumentation stays trajectory-neutral.
_RESERVOIR_RNG = random.Random(0x0B5E7E5)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = int(math.ceil(q * len(sorted_values)))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean,
    plus approximate p50/p95/p99 from a bounded reservoir.

    ``count``/``sum``/``min``/``max`` (and therefore ``mean``) merge
    *exactly* across processes.  The percentiles come from an
    Algorithm-R reservoir of :data:`RESERVOIR_CAP` samples, so they are
    **approximate** — unbiased per process, and merged across processes
    by pooling + downsampling the reservoirs, which is approximate too.
    Good enough to see a p95 regression; not a substitute for the exact
    fields.
    """

    __slots__ = ("count", "sum", "min", "max", "res")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.res: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.res) < RESERVOIR_CAP:
            self.res.append(value)
        else:
            j = _RESERVOIR_RNG.randrange(self.count)
            if j < RESERVOIR_CAP:
                self.res[j] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        sample = sorted(self.res)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": _percentile(sample, 0.50),
            "p95": _percentile(sample, 0.95),
            "p99": _percentile(sample, 0.99),
            "res": list(self.res),
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another histogram's snapshot into this one (the obs
        report aggregating many flushed lines).  Exact for
        count/sum/min/max/mean; reservoirs pool and downsample, so the
        merged percentiles are approximate."""
        n = int(snap.get("count", 0))
        if n <= 0:
            return
        self.count += n
        self.sum += float(snap.get("sum", 0.0))
        lo = float(snap.get("min", 0.0))
        hi = float(snap.get("max", 0.0))
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        incoming = snap.get("res")
        if incoming:
            self.res.extend(float(v) for v in incoming)
            if len(self.res) > RESERVOIR_CAP:
                # Downsample with a *freshly seeded* RNG so merging is a
                # deterministic function of the pooled sample: the same
                # flushed records always aggregate to the same
                # percentile estimates, whatever else drew from the
                # module RNG first (``repro obs diff`` of a run against
                # a byte-identical copy must be all zeros).
                self.res = random.Random(0x0B5E7E5).sample(
                    self.res, RESERVOIR_CAP
                )


class _Timer:
    """Context manager feeding one histogram observation per ``with``
    block.  Each :meth:`MetricsRegistry.timer` call returns a fresh
    instance, so nested/concurrent timings of the same name are
    independent observations."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._registry.observe(self._name, _perf_counter() - self._t0)
        return False


class _NullTimer:
    """The disabled-path timer: does nothing, allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}

    # -- mutation --------------------------------------------------------

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest value seen (peak-RSS style gauges)."""
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram()
            hist.observe(value)

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (or a flushed metrics line) into this
        registry — the aggregation primitive ``repro obs report`` uses."""
        with self._lock:
            for name, value in (snap.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (snap.get("gauges") or {}).items():
                if value > self._gauges.get(name, float("-inf")):
                    self._gauges[name] = value
            for name, hsnap in (snap.get("hists") or {}).items():
                hist = self._hists.get(name)
                if hist is None:
                    hist = self._hists[name] = Histogram()
                hist.merge_snapshot(hsnap)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "hists": {
                    name: hist.snapshot() for name, hist in self._hists.items()
                },
            }

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

    def hist_totals(self, prefix: str) -> Dict[str, Tuple[int, float]]:
        """``{name: (count, sum)}`` of every histogram whose name starts
        with ``prefix`` — exact cumulative totals, cheap to delta."""
        with self._lock:
            return {
                name: (hist.count, hist.sum)
                for name, hist in self._hists.items()
                if name.startswith(prefix)
            }

    def hist(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            h = self._hists.get(name)
            return h.snapshot() if h is not None else None

    def is_empty(self) -> bool:
        with self._lock:
            return not (self._counters or self._gauges or self._hists)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


#: The process-wide default registry every module-level helper feeds.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


# -- module-level fast paths (what instrumented code calls) ------------------


def count(name: str, n: Union[int, float] = 1) -> None:
    if ENABLED:
        _REGISTRY.count(name, n)


def gauge(name: str, value: float) -> None:
    if ENABLED:
        _REGISTRY.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    if ENABLED:
        _REGISTRY.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    if ENABLED:
        _REGISTRY.observe(name, value)


def timer(name: str):
    """A context manager timing its block into histogram ``name`` —
    :data:`NULL_TIMER` (free) when observability is off."""
    if not ENABLED:
        return NULL_TIMER
    return _Timer(_REGISTRY, name)


def timed(name: str) -> Callable:
    """Decorator timing every call of a kernel into histogram ``name``
    (the histogram's ``count`` doubles as the call counter).  When
    tracing is also on, each call additionally lands as a leaf span
    under the current trace context — the kernel tier of the trace
    tree rides this one seam.  Disabled path: one global check per
    call, the original function is kept on ``__wrapped__`` for the
    perf gate's vanilla baseline."""

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            start = _time() if _trace.ENABLED else 0.0
            t0 = _perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf_counter() - t0
                _REGISTRY.observe(name, dur)
                if _trace.ENABLED:
                    _trace.record(name, start, dur)

        wrapper.__obs_timed__ = name
        return wrapper

    return decorate


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
        "gauges": snap.get("gauges", {}),
        "hists": snap.get("hists", {}),
    }


def flush(
    path: Union[str, Path],
    ctx: Optional[Dict[str, Any]] = None,
    snapshot: Optional[Dict[str, Any]] = None,
    reset: bool = False,
) -> Dict[str, Any]:
    """Append one metrics line to ``path`` (unbuffered, never raising —
    :func:`repro.obs.stream.try_append`).  Returns the record."""
    record = metrics_record(ctx=ctx, snapshot=snapshot)
    stream.try_append(path, [stream.encode(record)])
    if reset:
        _REGISTRY.reset()
    return record
