"""Reading and rendering observability artifacts.

``repro obs report <run-dir>`` aggregates every metrics line a run
flushed (sequential runs flush once, parallel/distributed runs flush
one line per cell per worker) into one registry, then renders the
per-phase / per-kernel / counter breakdown as aligned text tables.
``repro obs tail`` pretty-prints the last N lines of an
``events.jsonl`` / ``metrics.jsonl`` / ``spans.jsonl`` stream, and
``--follow`` turns that into a poll-based tail -f
(:func:`follow_stream`).  ``repro obs diff A B`` compares two runs'
aggregated timing histograms — metrics and per-span-name durations —
with noise floors, and with ``--gate`` turns regressions into a
nonzero exit (:func:`diff_runs`).

Streams are found and read through :mod:`repro.obs.stream` (its
torn-tail rule: a line that does not parse is skipped, never an error).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from ..viz.tables import format_table
from . import series as _series
from . import stream as _stream
from . import trace as _trace
from .metrics import MetricsRegistry, _percentile

#: Histogram-name prefixes rendered as their own report sections, in
#: display order.  Everything instrumented in-tree uses one of these.
SECTIONS = (
    ("round.", "Per-round phases"),
    ("kernel.", "Kernels"),
    ("queue.", "Queue operations"),
    ("cell.", "Cells"),
    ("bench.", "Benchmarks"),
)


def resolve_metrics_path(target: Union[str, Path]) -> Optional[Path]:
    return _stream.resolve(target, "metrics.jsonl")


def resolve_events_path(target: Union[str, Path]) -> Optional[Path]:
    return _stream.resolve(target, "events.jsonl")


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    return list(_stream.read(path))


def load_metrics_records(target: Union[str, Path]) -> List[Dict[str, Any]]:
    """All metrics records reachable from ``target``: metrics.jsonl
    lines, a profile.json's embedded snapshot, or cell-record
    ``metrics`` sections when pointed at a results file."""
    path = _stream.resolve(target, "metrics.jsonl", what="metrics stream")
    if path.suffix == ".json":
        report = json.loads(path.read_text())
        snap = report.get("metrics", report)
        return [snap]
    out = []
    for record in _stream.read(path):
        if record.get("kind") == "metrics" or "hists" in record or "counters" in record:
            out.append(record)
        elif "metrics" in record and isinstance(record["metrics"], dict):
            # A result-store cell record carrying a metrics section.
            out.append(record["metrics"])
    return out


def aggregate(records: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Fold many metrics records into one registry (counters add,
    gauges keep the max, histograms merge)."""
    registry = MetricsRegistry()
    for record in records:
        registry.merge_snapshot(record)
    return registry


def _hist_rows(hists: Dict[str, Dict[str, float]], prefix: str) -> List[List]:
    rows = []
    for name in sorted(hists):
        if not name.startswith(prefix):
            continue
        h = hists[name]
        rows.append(
            [
                name[len(prefix):],
                int(h.get("count", 0)),
                h.get("sum", 0.0),
                h.get("mean", 0.0),
                h.get("p50", 0.0),
                h.get("p95", 0.0),
                h.get("min", 0.0),
                h.get("max", 0.0),
            ]
        )
    # Largest total first: the report answers "where does the time go".
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def build_report(target: Union[str, Path]) -> Dict[str, Any]:
    """The aggregated report as data: one merged metrics snapshot over
    every record the run flushed, plus the record count — the machine
    half of ``repro obs report`` (``--format json`` emits this)."""
    records = load_metrics_records(target)
    snap = aggregate(records).snapshot()
    return {
        "kind": "report",
        "target": str(target),
        "records": len(records),
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "hists": snap["hists"],
    }


def format_report(target: Union[str, Path]) -> str:
    """The full per-phase/per-kernel breakdown for a run directory."""
    records = load_metrics_records(target)
    if not records:
        return f"no metrics records found under {target}"
    snap = aggregate(records).snapshot()
    hists = snap["hists"]
    chunks: List[str] = [f"observability report: {target} ({len(records)} metrics record(s))"]
    claimed = set()
    for prefix, title in SECTIONS:
        rows = _hist_rows(hists, prefix)
        if not rows:
            continue
        claimed.update(n for n in hists if n.startswith(prefix))
        chunks.append(
            format_table(
                [
                    "name", "count", "total_s", "mean_s",
                    "p50_s", "p95_s", "min_s", "max_s",
                ],
                rows,
                title=title,
            )
        )
    other = {n: h for n, h in hists.items() if n not in claimed}
    if other:
        chunks.append(
            format_table(
                ["name", "count", "total", "mean", "p50", "p95", "min", "max"],
                _hist_rows(other, ""),
                title="Other distributions",
            )
        )
    if snap["counters"]:
        chunks.append(
            format_table(
                ["counter", "value"],
                [[name, snap["counters"][name]] for name in sorted(snap["counters"])],
                title="Counters",
            )
        )
    if snap["gauges"]:
        chunks.append(
            format_table(
                ["gauge", "value"],
                [[name, snap["gauges"][name]] for name in sorted(snap["gauges"])],
                title="Gauges",
            )
        )
    return "\n\n".join(chunks)


def format_record(record: Dict[str, Any]) -> str:
    """One stream record (event, metrics line, or span) as one compact
    human line — shared by ``tail`` and ``tail --follow``."""
    ts = record.get("ts", "")
    if record.get("kind") == "metrics":
        ctx = record.get("ctx") or {}
        ctx_str = " ".join(f"{k}={v}" for k, v in sorted(ctx.items()))
        return (
            f"{ts} metrics {ctx_str} "
            f"({len(record.get('counters') or {})} counters, "
            f"{len(record.get('hists') or {})} hists)"
        )
    if record.get("kind") == "series":
        nodes = record.get("nodes") or {}
        extras = []
        if "live" in nodes:
            extras.append(f"live={nodes['live']}")
        if nodes.get("pruned"):
            extras.append(f"pruned={nodes['pruned']}")
        if record.get("splits"):
            extras.append(f"splits={record['splits']}")
        for name, value in sorted((record.get("probes") or {}).items()):
            extras.append(f"{name}={value:.4g}")
        ctx = record.get("ctx") or {}
        cell = ctx.get("task_id") or ctx.get("cell") or ""
        return (
            f"series round={record.get('round', '?')} "
            f"wall={float(record.get('wall_s', 0.0)) * 1000:.1f}ms"
            + (f" cell={cell}" if cell else "")
            + ("" if not extras else " " + " ".join(extras))
        )
    if record.get("kind") == "span":
        attrs = record.get("attrs") or {}
        attrs_str = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        return (
            f"span {record.get('name', '?')} "
            f"{float(record.get('dur', 0.0)) * 1000:.1f}ms "
            f"pid={record.get('pid', '?')}"
            + (f" {attrs_str}" if attrs_str else "")
        )
    skip = {"kind", "ts", "level", "event"}
    fields = " ".join(
        f"{k}={record[k]}" for k in sorted(record) if k not in skip
    )
    return (
        f"{ts} {record.get('level', '?'):>7} "
        f"{record.get('event', '?')} {fields}"
    )


def format_tail(
    target: Union[str, Path], lines: int = 20, stream: str = "events"
) -> str:
    """The last ``lines`` records of a run's event/metrics/span stream,
    one compact line each."""
    path = _stream.resolve(target, f"{stream}.jsonl")
    if path is None:
        return f"no {stream} stream found under {target}"
    records = list(_stream.read(path))[-max(1, lines):]
    if not records:
        return f"{path}: empty"
    out = [f"{path} (last {len(records)} of stream)"]
    out.extend(format_record(record) for record in records)
    return "\n".join(out)


def follow_stream(
    target: Union[str, Path],
    stream: str = "events",
    poll_s: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
    from_start: bool = False,
) -> Iterator[str]:
    """Poll-based tail -f over a run's stream: yields one formatted
    line per complete record as writers append them.

    Tolerates everything a live run does to the file: not existing yet
    (keeps polling), torn trailing lines (bytes after the last newline
    stay buffered until the writer finishes them), truncation (restarts
    from the top).  ``stop`` is checked once per poll — the CLI passes
    None and relies on Ctrl-C; tests pass a countdown.
    """
    name = f"{stream}.jsonl"
    offset: Optional[int] = None
    pending = b""
    while True:
        path = _stream.resolve(target, name)
        if path is not None:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            if offset is None:
                offset = 0 if from_start else size
            if size < offset:
                offset, pending = 0, b""
            if size > offset:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
                    offset = handle.tell()
                pending += chunk
                *complete, pending = pending.split(b"\n")
                for raw in complete:
                    record, _ = _stream.parse(raw)
                    if record is not None:
                        yield format_record(record)
        if stop is not None and stop():
            return
        time.sleep(poll_s)


# -- cross-run diffing -------------------------------------------------------

#: Default relative regression threshold: a histogram's mean or p95
#: must grow by more than this fraction to flag.  Generous on purpose —
#: two identical-config runs on a busy CI host jitter well past 10%.
DIFF_THRESHOLD = 0.5

#: Default absolute noise floor: histograms whose *baseline* total is
#: under this many seconds never flag (a 3x regression of 200µs of
#: work is measurement noise, not a finding).
DIFF_MIN_TOTAL_S = 0.02


def _diff_hists(target: Union[str, Path]) -> Dict[str, Dict[str, float]]:
    """A run's diffable timing histograms: every aggregated metrics
    histogram, plus one ``span.<name>`` histogram per span name (exact
    percentiles — computed from the full duration list, not a
    reservoir).  Either source may be absent; both absent is an error.
    """
    hists: Dict[str, Dict[str, float]] = {}
    found = False
    try:
        records = load_metrics_records(target)
    except FileNotFoundError:
        records = []
    if records:
        found = True
        hists.update(aggregate(records).snapshot()["hists"])
    span_durs = _trace.span_histograms(target)
    if span_durs:
        found = True
    for name, durs in span_durs.items():
        hists[name] = _exact_hist(durs)
    # Series-derived per-round wall time: exact (every round sampled,
    # not a reservoir).  Only diffed when BOTH runs carry series —
    # diff_runs drops and footnotes the one-sided case.
    try:
        walls = _series.round_wall_values(target)
    except FileNotFoundError:
        walls = []
    if walls:
        found = True
        hists["series.round_wall"] = _exact_hist(walls)
    if not found:
        raise FileNotFoundError(
            f"no obs data found under {target} "
            "(expected obs/metrics.jsonl and/or obs/spans.jsonl)"
        )
    return hists


def _exact_hist(values: List[float]) -> Dict[str, float]:
    """Summary stats with exact percentiles from a full sample list."""
    sample = sorted(values)
    return {
        "count": len(values),
        "sum": sum(values),
        "mean": sum(values) / len(values),
        "min": sample[0],
        "max": sample[-1],
        "p50": _percentile(sample, 0.50),
        "p95": _percentile(sample, 0.95),
    }


def _diff_counters(target: Union[str, Path]) -> Dict[str, float]:
    try:
        records = load_metrics_records(target)
    except FileNotFoundError:
        return {}
    return aggregate(records).snapshot()["counters"]


def diff_runs(
    a: Union[str, Path],
    b: Union[str, Path],
    threshold: float = DIFF_THRESHOLD,
    min_total_s: float = DIFF_MIN_TOTAL_S,
) -> Dict[str, Any]:
    """Compare run ``b`` (candidate) against run ``a`` (baseline).

    For every timing histogram present in both runs, the relative mean
    and p95 deltas are computed; a histogram *regresses* when either
    grows by more than ``threshold`` **and** its baseline total clears
    the ``min_total_s`` noise floor.  Percentile deltas only count when
    both sides actually have a percentile estimate (older baselines
    don't).  Counter differences are reported but never gated — counts
    like ``checkpoint.hit``/``miss`` legitimately differ between cold
    and warm runs.
    """
    hists_a = _diff_hists(a)
    hists_b = _diff_hists(b)
    notes: List[str] = []
    if ("series.round_wall" in hists_a) != ("series.round_wall" in hists_b):
        side = "baseline" if "series.round_wall" in hists_a else "candidate"
        notes.append(
            f"series.jsonl present only in the {side} run — series-derived "
            "per-round wall time not diffed (informational)"
        )
        hists_a.pop("series.round_wall", None)
        hists_b.pop("series.round_wall", None)
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(hists_a) & set(hists_b)):
        ha, hb = hists_a[name], hists_b[name]
        mean_a, mean_b = float(ha.get("mean", 0.0)), float(hb.get("mean", 0.0))
        p95_a, p95_b = float(ha.get("p95", 0.0)), float(hb.get("p95", 0.0))
        d_mean = (mean_b - mean_a) / mean_a if mean_a > 0 else 0.0
        d_p95 = (p95_b - p95_a) / p95_a if p95_a > 0 else 0.0
        above_floor = float(ha.get("sum", 0.0)) >= min_total_s
        regressed = above_floor and (d_mean > threshold or d_p95 > threshold)
        rows.append(
            {
                "name": name,
                "count_a": int(ha.get("count", 0)),
                "count_b": int(hb.get("count", 0)),
                "mean_a": mean_a,
                "mean_b": mean_b,
                "d_mean": d_mean,
                "p95_a": p95_a,
                "p95_b": p95_b,
                "d_p95": d_p95,
                "regressed": regressed,
                "improved": above_floor and d_mean < -threshold,
            }
        )
    counters_a, counters_b = _diff_counters(a), _diff_counters(b)
    counter_rows = [
        {
            "name": name,
            "a": counters_a.get(name, 0),
            "b": counters_b.get(name, 0),
        }
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(name, 0) != counters_b.get(name, 0)
    ]
    return {
        "a": str(a),
        "b": str(b),
        "threshold": threshold,
        "min_total_s": min_total_s,
        "rows": rows,
        "regressions": [r for r in rows if r["regressed"]],
        "improvements": [r for r in rows if r["improved"]],
        "counters": counter_rows,
        "notes": notes,
    }


def format_diff(diff: Dict[str, Any]) -> str:
    """Human rendering of a :func:`diff_runs` result."""
    out = [
        f"obs diff: {diff['a']} (baseline) vs {diff['b']} (candidate), "
        f"threshold +{diff['threshold'] * 100:.0f}%, "
        f"noise floor {diff['min_total_s']}s"
    ]
    rows = diff["rows"]
    if not rows:
        out.extend(f"note: {n}" for n in diff.get("notes") or [])
        out.append("no timing histograms shared by both runs")
        return "\n".join(out)
    table = [
        [
            ("REGRESSED " if r["regressed"] else "") + r["name"],
            r["count_a"],
            r["count_b"],
            r["mean_a"],
            r["mean_b"],
            f"{r['d_mean'] * 100:+.0f}%",
            r["p95_a"],
            r["p95_b"],
            f"{r['d_p95'] * 100:+.0f}%" if r["p95_a"] > 0 else "-",
        ]
        for r in sorted(rows, key=lambda r: r["d_mean"], reverse=True)
    ]
    out.append(
        format_table(
            [
                "name", "n_a", "n_b", "mean_a", "mean_b", "Δmean",
                "p95_a", "p95_b", "Δp95",
            ],
            table,
            title="Timing histograms",
        )
    )
    if diff["counters"]:
        out.append(
            format_table(
                ["counter", "a", "b"],
                [[c["name"], c["a"], c["b"]] for c in diff["counters"]],
                title="Counter differences (informational, never gated)",
            )
        )
    for note in diff.get("notes") or []:
        out.append(f"note: {note}")
    n_reg = len(diff["regressions"])
    out.append(
        f"{n_reg} regression(s), {len(diff['improvements'])} improvement(s) "
        f"across {len(rows)} shared histogram(s)"
    )
    return "\n".join(out)


def write_scaled_copy(
    src: Union[str, Path], dst: Union[str, Path], factor: float
) -> Path:
    """Write a copy of a run's obs data with every timing scaled by
    ``factor`` — the synthetic-regression fixture the CI diff leg (and
    the tests) check the ``--gate`` path against.  Returns the new run
    directory."""
    dst = Path(dst)
    obs_dst = dst / "obs"
    obs_dst.mkdir(parents=True, exist_ok=True)

    def scale_metrics(record: Dict[str, Any]) -> None:
        for hist in (record.get("hists") or {}).values():
            for key in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
                if key in hist:
                    hist[key] = float(hist[key]) * factor
            if hist.get("res"):
                hist["res"] = [float(v) * factor for v in hist["res"]]

    def scale_span(record: Dict[str, Any]) -> None:
        if "dur" in record:
            record["dur"] = float(record["dur"]) * factor

    def scale_series(record: Dict[str, Any]) -> None:
        if "wall_s" in record:
            record["wall_s"] = float(record["wall_s"]) * factor
        for section in ("layers", "kernels"):
            if isinstance(record.get(section), dict):
                record[section] = {
                    k: float(v) * factor for k, v in record[section].items()
                }

    for name, scale in (
        ("metrics.jsonl", scale_metrics),
        ("spans.jsonl", scale_span),
        ("series.jsonl", scale_series),
    ):
        path = _stream.resolve(src, name)
        if path is None or path.suffix == ".json":
            continue
        lines = []
        for record in _stream.read(path):
            scale(record)
            lines.append(_stream.encode(record))
        (obs_dst / name).write_text(
            "\n".join(lines) + "\n" if lines else "", encoding="utf8"
        )
    return dst


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """Metric-name sanitisation: anything outside [a-zA-Z0-9_] → _."""
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"_{out}" if out and out[0].isdigit() else out


#: Histogram percentile field → Prometheus quantile label value.
_PROM_QUANTILES = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))


def format_prometheus(target: Union[str, Path]) -> str:
    """The run's aggregated metrics in Prometheus text exposition
    format (0.0.4): counters as ``repro_<name>_total``, gauges as
    ``repro_<name>``, histograms as summaries (quantile series plus
    ``_count``/``_sum``).  ``repro obs export --format prometheus``
    writes this — drop it in a node_exporter textfile-collector
    directory and it scrapes as-is."""
    records = load_metrics_records(target)
    snap = aggregate(records).snapshot()
    lines: List[str] = []
    for name in sorted(snap["counters"]):
        metric = f"repro_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {float(snap['counters'][name]):g}")
    for name in sorted(snap["gauges"]):
        metric = f"repro_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(snap['gauges'][name]):g}")
    for name in sorted(snap["hists"]):
        hist = snap["hists"][name]
        metric = f"repro_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for field, quantile in _PROM_QUANTILES:
            if field in hist:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} {float(hist[field]):g}'
                )
        lines.append(f"{metric}_count {int(hist.get('count', 0))}")
        lines.append(f"{metric}_sum {float(hist.get('sum', 0.0)):g}")
    return "\n".join(lines) + "\n" if lines else ""
