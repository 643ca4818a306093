"""``repro.obs`` — zero-dependency observability for the reproduction.

Cooperating pieces, all stdlib-only:

* :mod:`repro.obs.stream` — the one JSONL stream layer every writer and
  reader below goes through (append atomicity, fork guard, torn-tail
  rule, failure policy, the ``<run>/obs/<name>`` convention).
* :mod:`repro.obs.log` — structured JSONL event logging with bound
  run/worker/cell context (``obs.log.info("queue.claim", task=...)``).
* :mod:`repro.obs.metrics` — a process-wide registry of counters
  (rounds, messages, exchanges, cache hits, queue claims), flushed as
  one JSONL line per cell.
* :mod:`repro.obs.profiling` — ``--profile`` support: cProfile + peak
  RSS + the ledger's peak tracked bytes → ``obs/profile.json``.
* :mod:`repro.obs.trace` — the one timing record: causal spans with
  cross-process parent propagation, emitted to ``obs/spans.jsonl``
  (``@timed`` kernels included); ``repro obs trace`` / ``report`` /
  ``export`` / ``diff`` read them back and compute exact percentiles.
* :mod:`repro.obs.series` — one compact record per simulation round
  (the round's span walls, kernel seconds, message/exchange counts,
  node counts, health probes every 10 rounds) in
  ``obs/series.jsonl``; ``repro obs series`` / ``tail --follow`` read it back.
* :mod:`repro.obs.mem` — a byte ledger at the allocation chokepoints
  (table/view growth, padded kernel buffers, checkpoint blobs) feeding
  per-family bytes into the series and a peak-attribution snapshot
  into ``obs/mem.json`` (``repro obs mem``).

Configuration flows through :func:`configure` (what the CLI flags call)
and is mirrored into environment variables so ``ParallelRunner`` child
processes — under fork *or* spawn — and cluster workers inherit it:

========================  ====================================================
``REPRO_LOG``             stderr log level: ``debug``/``info``/``warning``/
                          ``error`` (unset/``off`` = silent)
``REPRO_OBS_DIR``         run directory; artifacts land in ``<dir>/obs/``
                          (``events.jsonl``, ``metrics.jsonl``,
                          ``spans.jsonl``, ``series.jsonl``, ``mem.json``,
                          ``profile.json``).  Setting it enables every
                          stream.
``REPRO_PROFILE``         ``1`` arms the profiler (cProfile + peak memory)
                          in every process of the run; counters follow it
``REPRO_TRACE_CTX``       ``<trace_id>:<span_id>`` — the parent span a
                          child process's spans attach under, so a
                          distributed sweep stitches into one trace tree
========================  ====================================================

Everything is off by default: no files are written, and the
instrumented seams cost one global check each (CI gates the disabled
path at ≤2% with ``perf_smoke.py obs``).  Instrumentation is read-only —
no RNG draws, no iteration-order changes — so trajectories and golden
digests are bit-identical with observability on or off.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import log, mem, metrics, profiling, series, stream, trace

ENV_LOG = "REPRO_LOG"
ENV_OBS_DIR = "REPRO_OBS_DIR"
ENV_PROFILE = "REPRO_PROFILE"

#: The configured run directory (``None`` = no artifacts).
_RUN_DIR: Optional[Path] = None


def run_dir() -> Optional[Path]:
    return _RUN_DIR


def metrics_path() -> Optional[Path]:
    return stream.sink(_RUN_DIR, "metrics.jsonl")


def profile_path() -> Optional[Path]:
    return stream.sink(_RUN_DIR, "profile.json")


def configure(
    log_level: Optional[str] = None,
    dir: Optional[Union[str, Path]] = None,
    profile: Optional[bool] = None,
    export_env: bool = True,
) -> None:
    """Apply observability settings for this process (and, via env vars,
    every child process it launches).

    ``None`` arguments leave the corresponding setting untouched, so
    callers can layer CLI flags over an inherited environment.
    """
    global _RUN_DIR
    if log_level is not None:
        log.set_level(log_level)
        if export_env:
            os.environ[ENV_LOG] = str(log_level)
    if dir is not None:
        _RUN_DIR = Path(dir)
        log.set_events_path(stream.sink(_RUN_DIR, "events.jsonl"))
        trace.set_spans_path(stream.sink(_RUN_DIR, "spans.jsonl"))
        trace.set_enabled(True)
        series.set_series_path(stream.sink(_RUN_DIR, "series.jsonl"))
        series.set_enabled(True)
        mem.set_enabled(True)
        if export_env:
            os.environ[ENV_OBS_DIR] = str(_RUN_DIR)
    if profile is not None:
        profiling.set_active(bool(profile))
        if export_env:
            os.environ[ENV_PROFILE] = "1" if profile else ""
    # Counting follows any sink or profiler: an obs dir or an armed
    # profiler needs numbers to report.
    if _RUN_DIR is not None or profiling.ACTIVE:
        metrics.set_enabled(True)


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> None:
    """Adopt settings from the environment — how ``ParallelRunner``
    children and cluster workers (fork or spawn) pick up the parent's
    configuration.  Called at import, and again by child entry points
    that may run under ``spawn``."""
    env = os.environ if environ is None else environ
    level = env.get(ENV_LOG)
    dir_ = env.get(ENV_OBS_DIR)
    profile = env.get(ENV_PROFILE)
    configure(
        log_level=level if level else None,
        dir=dir_ if dir_ else None,
        profile=bool(profile) if profile else None,
        export_env=False,
    )
    # Spawn-mode children re-join the parent's trace through the
    # exported span context (fork-mode children inherit the contextvar
    # directly; adopting the same token again is harmless).
    if env.get(trace.ENV_CTX):
        trace.adopt_env(env)


def reset_for_cell(**ctx: Any):
    """Start a fresh per-cell metrics scope in a worker process: clears
    the registry, the kernel-span totals, series delta baselines, and
    memory ledger, and binds the cell's identity into the log context.
    Returns the (token-restoring) log binding."""
    metrics.registry().reset()
    trace.reset_totals()
    series.reset_cell()
    mem.reset()
    return log.bind(**ctx)


def flush_cell_metrics(ctx: Optional[Dict[str, Any]] = None) -> Optional[Dict[str, Any]]:
    """Snapshot this process's registry, append it to the run's
    ``metrics.jsonl`` (when a run dir is configured), and return the
    snapshot for embedding in the cell's result record.  No-op (None)
    when metrics are disabled or nothing was recorded."""
    if not metrics.ENABLED:
        return None
    reg = metrics.registry()
    if reg.is_empty():
        return None
    snap = reg.snapshot()
    path = metrics_path()
    if path is not None:
        merged_ctx = dict(log.context())
        if ctx:
            merged_ctx.update(ctx)
        metrics.flush(path, ctx=merged_ctx, snapshot=snap)
    # Spans and series records buffer per process; draining them at the
    # same cadence keeps the streams fresh and bounds loss if a worker
    # dies mid-drain.  The memory ledger max-merges its attribution
    # snapshot into the run's mem.json at the same seam.
    trace.flush()
    series.flush()
    if _RUN_DIR is not None and mem.ENABLED:
        mem.write_snapshot(stream.sink(_RUN_DIR, "mem.json"))
    return snap


# Child processes inherit configuration through the environment; the
# parent process is configured explicitly by the CLI before any child
# exists, so this import-time adoption is a no-op there.
configure_from_env()
