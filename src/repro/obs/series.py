"""Per-round time-series telemetry: one compact record per round.

Aggregate metrics (PR 6) hide *when* inside a run the cost happened —
Polystyrene's repair waves after a catastrophic failure are bursty by
design, so a per-cell histogram averages away exactly the rounds that
matter.  ``repro.obs.series`` fixes that: both engines flush one JSONL
record per simulation round to ``obs/series.jsonl``::

    {"kind": "series", "ctx": {run/worker/cell context}, "round": n,
     "wall_s": ..., "layers": {layer: seconds},
     "kernels": {kernel: seconds}, "messages": {layer: units},
     "nodes": {"live": ..., "dead": ..., "pruned": ...},
     "exchanges": {"tman": ..., "migration": ...}, "splits": ...,
     "mem": {family: {"cur": bytes, "peak": bytes}},   # ledger on
     "probes": {"homogeneity": ..., "proximity": ...,
                "holder_multiplicity": ...}}           # every N rounds

Per-kernel seconds, exchange counts and SPLIT counts are *deltas* of
the metrics registry's cumulative histograms/counters against the
previous round — no second instrumentation seam in the kernels.  The
domain health probes (homogeneity, proximity, holder multiplicity) are
computed by an observer at a configurable cadence
(``REPRO_OBS_SERIES_EVERY``, default every 10 rounds) and staged here
via :func:`note_probes`; ``emit_round`` folds them into that round's
record.

Emission rides the engine's existing per-round seam behind the same
one-branch ``ENABLED`` fast path as metrics and spans, with records
buffered per process in a :class:`repro.obs.stream.BufferedStream`.
Everything is read-only and draws no simulation RNG: trajectories and
golden digests are bit-identical with series on or off.

Reading back: :func:`load_series`,
:func:`format_series` (the ``repro obs series`` table + unicode
sparklines), and ``repro obs watch`` follows the live stream through
:func:`repro.obs.report.follow_stream`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from . import log
from . import mem as _mem
from . import metrics as _metrics
from . import stream

#: The one global switch the engine's per-round seam checks.
ENABLED = False

#: Probe cadence environment knob (rounds between health probes).
ENV_SERIES_EVERY = "REPRO_OBS_SERIES_EVERY"

#: The buffered ``series.jsonl`` sink (no path: records go nowhere).
_STREAM = stream.BufferedStream()

#: Cumulative registry totals at the previous emit, for per-round deltas.
_LAST_HIST: Dict[str, Tuple[int, float]] = {}
_LAST_COUNTERS: Dict[str, float] = {}

#: Probe values staged by the health-probe observer for the next emit.
_PENDING_PROBES: Optional[Dict[str, float]] = None

_PROBE_EVERY = 10

#: Split-kernel histogram names whose per-round call-count delta is the
#: series SPLIT count (the histogram count doubles as the call counter).
_SPLIT_HISTS = (
    "kernel.batch_split",
    "kernel.split.basic",
    "kernel.split.advanced",
    "kernel.split.pd",
    "kernel.split.md",
)


def set_enabled(on: bool) -> None:
    global ENABLED
    ENABLED = bool(on)


def enabled() -> bool:
    return ENABLED


set_series_path = _STREAM.set_path
flush = _STREAM.flush


def set_probe_every(every: int) -> None:
    """Set the health-probe cadence (rounds between probes)."""
    global _PROBE_EVERY
    every = int(every)
    if every < 1:
        raise ValueError(
            f"series probe cadence must be >= 1 round, got {every} "
            f"(check {ENV_SERIES_EVERY})"
        )
    _PROBE_EVERY = every


def probe_every() -> int:
    return _PROBE_EVERY


def _probe_every_from_env(environ: Optional[Dict[str, str]] = None) -> int:
    """``REPRO_OBS_SERIES_EVERY`` → cadence (default 10), validated."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_SERIES_EVERY)
    if not raw:
        return 10
    try:
        every = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_SERIES_EVERY} must be an integer >= 1, got {raw!r}"
        ) from None
    if every < 1:
        raise ValueError(
            f"{ENV_SERIES_EVERY} must be an integer >= 1, got {raw!r}"
        )
    return every


def reset_cell() -> None:
    """Start a fresh per-cell series scope: clear the delta baselines
    and any staged probes (the registry itself was just reset)."""
    global _PENDING_PROBES
    _LAST_HIST.clear()
    _LAST_COUNTERS.clear()
    _PENDING_PROBES = None


def note_probes(values: Dict[str, float]) -> None:
    """Stage domain health-probe values for the next round record —
    called by the probe observer, folded in by :func:`emit_round`."""
    global _PENDING_PROBES
    _PENDING_PROBES = dict(values)


# -- emission ----------------------------------------------------------------


def emit_round(
    sim,
    completed: int,
    wall_s: float,
    layer_walls: Dict[str, float],
    layer_costs: Dict[str, int],
    pruned: int,
) -> None:
    """Build and buffer one series record for the just-completed round.

    Called from ``Simulation.step`` (both engines go through it) after
    the observers ran, so staged probe values belong to this round."""
    global _PENDING_PROBES
    reg = _metrics.registry()
    record: Dict[str, Any] = {
        "kind": "series",
        "ctx": dict(log.context()),
        "round": completed,
        "wall_s": round(wall_s, 9),
        "layers": {k: round(v, 9) for k, v in layer_walls.items()},
    }
    if layer_costs:
        record["messages"] = dict(layer_costs)
    network = getattr(sim, "network", None)
    if network is not None:
        record["nodes"] = {
            "live": network.n_alive,
            "dead": network.n_total - network.n_alive,
            "pruned": pruned,
        }
    # Per-round kernel seconds + SPLIT counts: deltas of the cumulative
    # kernel histograms (one locked prefix scan per round).
    totals = reg.hist_totals("kernel.")
    kernels: Dict[str, float] = {}
    splits = 0
    for name, (cnt, total_s) in totals.items():
        last_cnt, last_s = _LAST_HIST.get(name, (0, 0.0))
        _LAST_HIST[name] = (cnt, total_s)
        d_s = total_s - last_s
        if d_s > 0:
            kernels[name[len("kernel."):]] = round(d_s, 9)
        if name in _SPLIT_HISTS:
            splits += cnt - last_cnt
    if kernels:
        record["kernels"] = kernels
    record["splits"] = splits
    # Per-round exchange counts: counter deltas under the same prefix.
    exchanges: Dict[str, float] = {}
    for name, value in reg.counters_prefixed("exchanges.").items():
        last = _LAST_COUNTERS.get(name, 0.0)
        _LAST_COUNTERS[name] = value
        d = value - last
        if d:
            exchanges[name[len("exchanges."):]] = d
    if exchanges:
        record["exchanges"] = exchanges
    if _mem.ENABLED:
        fields = _mem.series_fields()
        if fields:
            record["mem"] = fields
    if _PENDING_PROBES is not None:
        record["probes"] = _PENDING_PROBES
        _PENDING_PROBES = None
    _STREAM.add(record)


# -- reading back ------------------------------------------------------------


def resolve_series_path(target: Union[str, Path]) -> Path:
    return stream.resolve(target, "series.jsonl", what="series stream")


def load_series(target: Union[str, Path]) -> List[Dict[str, Any]]:
    return list(stream.read(resolve_series_path(target)))


def flatten_columns(record: Dict[str, Any]) -> Dict[str, float]:
    """Numeric leaves of one record as dotted column paths
    (``wall_s``, ``layers.tman``, ``nodes.live``, ``mem.node_table.cur``,
    ``probes.homogeneity``, ...).  ``ctx``/``kind``/``round`` are keys,
    not columns."""
    out: Dict[str, float] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[prefix] = float(value)
        elif isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)

    for key, value in record.items():
        if key in ("kind", "ctx", "round"):
            continue
        walk(str(key), value)
    return out


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 40) -> str:
    """A unicode sparkline of ``values`` downsampled to ``width``."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket means: width buckets over the full range.
        buckets: List[float] = []
        n = len(values)
        for b in range(width):
            lo = b * n // width
            hi = max(lo + 1, (b + 1) * n // width)
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        values = buckets
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(top, int((v - lo) / span * (top + 1)))] for v in values
    )


def _parse_round_range(spec: Optional[str]) -> Tuple[Optional[int], Optional[int]]:
    if not spec:
        return None, None
    if ":" not in spec:
        rnd = int(spec)
        return rnd, rnd
    lo_s, hi_s = spec.split(":", 1)
    return (int(lo_s) if lo_s else None), (int(hi_s) if hi_s else None)


def select_records(
    records: List[Dict[str, Any]],
    cell: Optional[str] = None,
    round_range: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Filter series records by cell (substring match against any ctx
    value) and by an inclusive ``lo:hi`` round range."""
    lo, hi = _parse_round_range(round_range)
    out = []
    for rec in records:
        if cell is not None:
            ctx = rec.get("ctx") or {}
            if not any(cell in str(v) for v in ctx.values()):
                continue
        rnd = rec.get("round")
        if lo is not None and (rnd is None or rnd < lo):
            continue
        if hi is not None and (rnd is None or rnd > hi):
            continue
        out.append(rec)
    return out


def _cell_key(rec: Dict[str, Any]) -> str:
    ctx = rec.get("ctx") or {}
    for key in ("task_id", "cell", "config"):
        if ctx.get(key):
            return str(ctx[key])
    return "-"


def format_series(
    target: Union[str, Path],
    cell: Optional[str] = None,
    column: Optional[str] = None,
    round_range: Optional[str] = None,
) -> str:
    """The ``repro obs series`` view: one row per column with count,
    min/max/last and a sparkline over rounds (record order)."""
    records = select_records(load_series(target), cell, round_range)
    if not records:
        return "no series records match"
    cells = sorted({_cell_key(r) for r in records})
    columns: Dict[str, List[float]] = {}
    rounds = [int(r.get("round", 0)) for r in records]
    for rec in records:
        for name, value in flatten_columns(rec).items():
            columns.setdefault(name, []).append(value)
    if column is not None:
        columns = {
            name: vals for name, vals in columns.items() if column in name
        }
        if not columns:
            return f"no series column matches {column!r}"
    out = [
        f"{len(records)} round record(s), rounds {min(rounds)}..{max(rounds)}, "
        f"{len(cells)} cell(s)"
    ]
    if len(cells) > 1:
        out.append(
            "cells: " + ", ".join(cells[:6]) + (" ..." if len(cells) > 6 else "")
        )
        out.append("(multiple cells interleaved — narrow with --cell)")
    out.append("")
    out.append(
        f"{'column':<28} {'n':>5} {'min':>12} {'max':>12} {'last':>12}  trend"
    )
    for name in sorted(columns):
        vals = columns[name]
        out.append(
            f"{name:<28} {len(vals):>5} {min(vals):>12.6g} "
            f"{max(vals):>12.6g} {vals[-1]:>12.6g}  {sparkline(vals)}"
        )
    return "\n".join(out)


def round_wall_values(target: Union[str, Path]) -> List[float]:
    """Every record's ``wall_s`` — the exact per-round wall sample
    ``repro obs diff`` compares when both runs carry series."""
    return [
        float(rec["wall_s"])
        for rec in load_series(target)
        if isinstance(rec.get("wall_s"), (int, float))
    ]


# Cadence is adopted from the environment at import so child processes
# (fork or spawn) inherit the parent's setting without replumbing.
set_probe_every(_probe_every_from_env())
