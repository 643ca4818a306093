"""Reading and rendering observability artifacts.

``repro obs report <run-dir>`` adds up every metrics line a run
flushed (sequential runs flush once, parallel/distributed runs flush
one line per cell per worker) and renders the counters next to one
timing row per span name — count, total, mean, p50/p95, min, max,
computed exactly from every duration in ``spans.jsonl``
(:func:`timing_rows`).
``repro obs export --format prometheus`` exposes the same rows, and
``repro obs diff A B`` compares
them across two runs with noise floors, turning regressions into a
nonzero exit with ``--gate`` (:func:`diff_runs`).  ``repro obs tail``
pretty-prints the last N records of a stream, and ``--follow`` turns
that into a poll-based tail -f (:func:`follow_stream`).

Streams are found and read through :mod:`repro.obs.stream` (its
torn-tail rule: a line that does not parse is skipped, never an error).
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
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
from . import stream as _stream
from . import trace as _trace
from .metrics import MetricsRegistry

#: Timing-row name prefixes rendered as their own report sections, in
#: display order (every timing row is a ``span.*`` row).
SECTIONS = (
    ("span.kernel.", "Kernels"),
    ("span.", "Spans"),
)


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
        if record.get("kind") == "metrics" or "counters" in record:
            out.append(record)
        elif "metrics" in record and isinstance(record["metrics"], dict):
            # A result-store cell record carrying a metrics section.
            out.append(record["metrics"])
    return out


def aggregate(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """The counters of many metrics records, added up."""
    registry = MetricsRegistry()
    for record in records:
        registry.merge_snapshot(record)
    return registry.snapshot()["counters"]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    rank = int(math.ceil(q * len(sorted_values)))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


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
        "p99": _percentile(sample, 0.99),
    }


def timing_rows(target: Union[str, Path]) -> Dict[str, Dict[str, float]]:
    """A run's timing rows: :func:`_exact_hist` of every duration of
    each span name (``span.<name>``)."""
    return {
        name: _exact_hist(durs)
        for name, durs in _trace.span_histograms(target).items()
    }


def _hist_rows(hists: Dict[str, Dict[str, float]], prefix: str) -> List[List]:
    rows = [
        [name[len(prefix):]]
        + [h[col] for col in ("count", "sum", "mean", "p50", "p95", "min", "max")]
        for name, h in sorted(hists.items())
    ]
    # Largest total first: the report answers "where does the time go".
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def build_report(target: Union[str, Path]) -> Dict[str, Any]:
    """The report as data: the counters of every metrics record the run
    flushed, added up, the record count, and the run's timing rows
    (:func:`timing_rows`) — the machine half of ``repro obs report``
    (``--format json`` emits this)."""
    records = load_metrics_records(target)
    return {
        "kind": "report",
        "target": str(target),
        "records": len(records),
        "counters": aggregate(records),
        "hists": timing_rows(target),
    }


def format_report(target: Union[str, Path]) -> str:
    """The report as aligned text tables: the timing rows by section
    (largest total first), then the counters."""
    report = build_report(target)
    if not report["records"]:
        return f"no metrics records found under {target}"
    chunks: List[str] = [
        f"observability report: {target} ({report['records']} metrics record(s))"
    ]
    rest = report["hists"]
    for prefix, title in SECTIONS:
        section = {n: h for n, h in rest.items() if n.startswith(prefix)}
        if not section:
            continue
        rest = {n: h for n, h in rest.items() if n not in section}
        chunks.append(
            format_table(
                ["name", "count"]
                + [f"{col}_s" for col in ("total", "mean", "p50", "p95", "min", "max")],
                _hist_rows(section, prefix),
                title=title,
            )
        )
    counters = report["counters"]
    if counters:
        chunks.append(
            format_table(
                ["counter", "value"],
                [[name, counters[name]] for name in sorted(counters)],
                title="Counters",
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
            f"({len(record.get('counters') or {})} counters)"
        )
    if record.get("kind") == "series":
        nodes = record.get("nodes") or {}
        extras = []
        if "live" in nodes:
            extras.append(f"live={nodes['live']}")
        migration = (record.get("exchanges") or {}).get("migration")
        if migration:
            extras.append(f"migration={migration:g}")
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
    one compact line each (only those records are ever held)."""
    path = _stream.resolve(target, f"{stream}.jsonl")
    if path is None:
        return f"no {stream} stream found under {target}"
    records = deque(_stream.read(path), maxlen=max(1, lines))
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
    """A run's diffable timing rows (:func:`timing_rows`); raises when
    the run has neither metrics nor spans."""
    try:
        records = load_metrics_records(target)
    except FileNotFoundError:
        records = []
    hists = timing_rows(target)
    if not records and not hists:
        raise FileNotFoundError(
            f"no obs data found under {target} "
            "(expected obs/metrics.jsonl and/or obs/spans.jsonl)"
        )
    return hists


def _diff_counters(target: Union[str, Path]) -> Dict[str, float]:
    try:
        records = load_metrics_records(target)
    except FileNotFoundError:
        return {}
    return aggregate(records)


def diff_runs(
    a: Union[str, Path],
    b: Union[str, Path],
    threshold: float = DIFF_THRESHOLD,
    min_total_s: float = DIFF_MIN_TOTAL_S,
) -> Dict[str, Any]:
    """Compare run ``b`` (candidate) against run ``a`` (baseline).

    For every timing row present in both runs (one per span name), the
    relative mean and p95 deltas are computed; a row *regresses* when
    either grows by more than ``threshold`` **and** its baseline total
    clears the ``min_total_s`` noise floor.  Counter differences are
    reported but never gated — counts like ``checkpoint.hit``/``miss``
    legitimately differ between cold and warm runs.
    """
    hists_a = _diff_hists(a)
    hists_b = _diff_hists(b)
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(hists_a) & set(hists_b)):
        ha, hb = hists_a[name], hists_b[name]
        mean_a, mean_b = ha["mean"], hb["mean"]
        p95_a, p95_b = ha["p95"], hb["p95"]
        d_mean = (mean_b - mean_a) / mean_a if mean_a > 0 else 0.0
        d_p95 = (p95_b - p95_a) / p95_a if p95_a > 0 else 0.0
        above_floor = ha["sum"] >= min_total_s
        regressed = above_floor and (d_mean > threshold or d_p95 > threshold)
        rows.append(
            {
                "name": name,
                "count_a": ha["count"],
                "count_b": hb["count"],
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
    n_reg = len(diff["regressions"])
    out.append(
        f"{n_reg} regression(s), {len(diff['improvements'])} improvement(s) "
        f"across {len(rows)} shared histogram(s)"
    )
    return "\n".join(out)


def write_scaled_copy(
    src: Union[str, Path], dst: Union[str, Path], factor: float
) -> Path:
    """Write a copy of the two streams ``repro obs diff`` reads — the
    metrics lines as they are, every span duration scaled by ``factor``
    — the synthetic-regression fixture the CI diff leg (and the tests)
    check the ``--gate`` path against.  Returns the new run directory."""
    dst = Path(dst)
    obs_dst = dst / "obs"
    obs_dst.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.jsonl", "spans.jsonl"):
        path = _stream.resolve(src, name)
        if path is None or path.suffix == ".json":
            continue
        lines = []
        for record in _stream.read(path):
            if "dur" in record:
                record["dur"] = float(record["dur"]) * factor
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


#: Timing-row percentile field → Prometheus quantile label value.
_PROM_QUANTILES = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))


def _prom_value(value: float) -> str:
    """A sample value, exactly: integral values without a fraction,
    others as their round-tripping repr."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def format_prometheus(target: Union[str, Path]) -> str:
    """The run's counters and timing rows in Prometheus text exposition
    format (0.0.4): counters as ``repro_<name>_total``, timing rows
    (:func:`timing_rows`) as summaries (quantile series plus
    ``_count``/``_sum``).  ``repro obs export --format prometheus``
    writes this — drop it in a node_exporter textfile-collector
    directory and it scrapes as-is."""
    report = build_report(target)
    lines: List[str] = []
    for name, value in sorted(report["counters"].items()):
        metric = f"repro_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist in sorted(report["hists"].items()):
        metric = f"repro_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for field, quantile in _PROM_QUANTILES:
            lines.append(
                f'{metric}{{quantile="{quantile}"}} {_prom_value(hist[field])}'
            )
        lines.append(f"{metric}_count {hist['count']}")
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
    return "\n".join(lines) + "\n" if lines else ""
