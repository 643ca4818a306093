"""Append-only JSONL result store for experiment sweeps.

Every sweep writes two kinds of records to one ``.jsonl`` file:

* a ``run`` header — run id, creation time, git revision, scale preset,
  and free-form metadata — written once when the sweep starts;
* one ``cell`` record per finished grid cell — the full scenario
  configuration (plus its stable hash), the summary scalars the paper
  reports (reliability, reshaping time, final metric values), status,
  and wall-clock duration.  Errored cells are recorded too, with the
  worker traceback, so a crashed cell never silently disappears from a
  sweep.

The file is append-only: resuming an interrupted sweep appends the
missing cells under the same run id, and :meth:`ResultStore.completed`
tells the runner which cells to skip.  The analysis and viz layers read
sweeps back through :meth:`ResultStore.cells` /
:func:`repro.analysis.stats.mean_ci_over_cells` /
:func:`repro.viz.tables.format_store_cells`.

Writes and reads go through :mod:`repro.obs.stream` — the one JSONL
stream layer — in its durable/strict mode: every record is one atomic
append that raises on failure (concurrent writers — several cluster
workers sharing one shard file, a reader racing an appender —
interleave whole lines, never bytes), a torn trailing line — a writer
killed mid-``write`` — is skipped with a warning on read instead of
poisoning the whole store, and corruption *before* the tail (which a
torn append cannot produce) raises :class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..errors import StoreError
from ..experiments.scenario import ScenarioConfig, ScenarioResult
from ..obs import stream

STORE_FORMAT = 1


def config_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """A JSON-safe dict of a scenario configuration."""
    out = dataclasses.asdict(config)
    # Inert field kept for the frozen bench (see ScenarioConfig): a
    # run's identity (hashes, checkpoints, dedup) never depended on it.
    out.pop("kernel_backend", None)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    return out


def config_hash(config: ScenarioConfig) -> str:
    """Stable short hash identifying a configuration (seed included)."""
    canon = json.dumps(config_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf8")).hexdigest()[:16]


def git_revision(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def config_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_dict` output.

    The JSON round trip turns tuples into lists; no configuration field
    is genuinely a list, so every list value converts back.  This is
    what lets a cluster worker reconstruct a task published by a
    coordinator on another machine:
    ``config_from_dict(config_dict(c)) == c`` for every valid config
    (modulo the inert ``kernel_backend``, which :func:`config_dict`
    strips).
    """
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    return ScenarioConfig(**kwargs)


def _probe_rounds(config: ScenarioConfig) -> Dict[str, int]:
    """The claim-relevant rounds of a scenario, derived from its phase
    structure (so the same labels mean the same thing at every scale):
    the last pre-failure round, the early/late repair snapshots Fig. 8
    compares (failure + 2 / failure + 8), the mid-recovery round the
    Fig. 6 curves are read at, and the last pre-reinjection round."""
    rounds: Dict[str, int] = {}
    failure = config.failure_round
    reinjection = config.reinjection_round
    if failure is not None:
        rounds["pre_failure"] = failure - 1
        rounds["early_repair"] = failure + 2
        rounds["late_repair"] = failure + 8
        if reinjection is not None:
            rounds["mid_recovery"] = (failure + reinjection) // 2
    if reinjection is not None:
        rounds["pre_reinjection"] = reinjection - 1
    return rounds


def series_probes(result: ScenarioResult) -> Dict[str, Dict[str, float]]:
    """Per-metric samples of the recorded series at the claim-relevant
    rounds of this scenario (:func:`_probe_rounds`), dropping any probe
    the run is too short to have reached."""
    probes: Dict[str, Dict[str, float]] = {}
    for label, rnd in _probe_rounds(result.config).items():
        sample = {
            metric: float(series[rnd])
            for metric, series in result.series.items()
            if 0 <= rnd < len(series)
        }
        if sample:
            probes[label] = sample
    return probes


def summarize_result(result: ScenarioResult) -> Dict[str, Any]:
    """The scalar summary persisted per cell: what Table II, the
    Fig. 10 sweeps, and the :mod:`repro.eval` claim scorers read,
    without the O(rounds × metrics) series.

    Beyond the final values, every cell records the series sampled at
    the scenario's claim-relevant rounds (``probes``), the peak of the
    storage series (Fig. 7a), and the steady-state mean message cost
    (Fig. 7b, skipping the bootstrap transient) — so a stored sweep is
    enough to re-check every paper claim without re-simulating.
    """
    storage = result.series.get("storage") or []
    messages = result.series.get("message_cost") or []
    return {
        "reliability": result.reliability,
        "reshaping_time": result.reshaping_time,
        "h_ref_initial": result.h_ref_initial,
        "h_ref_after_failure": result.h_ref_after_failure,
        "rounds": len(result.n_alive),
        "n_alive_final": result.n_alive[-1] if result.n_alive else 0,
        "rps_fallbacks": result.rps_fallbacks,
        "final": {metric: series[-1] for metric, series in result.series.items() if series},
        "probes": series_probes(result),
        "storage_peak": max(storage) if storage else None,
        "message_mean": (
            float(sum(messages[3:]) / len(messages[3:]))
            if len(messages) > 3
            else None
        ),
    }


def cell_record(
    run_id: str,
    task_id: str,
    config: ScenarioConfig,
    *,
    status: str,
    result: Optional[ScenarioResult] = None,
    error: Optional[str] = None,
    duration_s: float = 0.0,
    forked_from: Optional[str] = None,
    worker: Optional[str] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one cell record dict (the single definition of the on-disk
    cell shape, shared by :meth:`ResultStore.append_cell` and the
    cluster workers that write shard files).

    ``worker`` names the cluster worker that produced the cell (absent
    for local runs).  ``metrics`` is the cell's observability snapshot
    (absent when observability is off) — like ``worker`` it is excluded
    from :func:`summary_digest`, so instrumented and plain runs digest
    identically.
    """
    if status not in ("ok", "error"):
        raise StoreError(f"cell status must be 'ok' or 'error', got {status!r}")
    record = {
        "kind": "cell",
        "run_id": run_id,
        "task_id": task_id,
        "status": status,
        "seed": config.seed,
        "config": config_dict(config),
        "config_hash": config_hash(config),
        "summary": summarize_result(result) if result is not None else None,
        "error": error,
        "duration_s": round(float(duration_s), 6),
        "forked_from": forked_from,
    }
    if worker is not None:
        record["worker"] = worker
    if metrics is not None:
        record["metrics"] = metrics
    return record


def summary_digest(record: Dict[str, Any]) -> str:
    """A stable digest of *what a cell computed* — configuration hash,
    status, and the summary scalars — deliberately excluding wall-clock
    duration, worker identity, and run id, so a cell run serially and
    the same cell run on a cluster worker digest identically.  The
    cluster's serial-equivalence checks compare these."""
    canon = json.dumps(
        {
            "config_hash": record.get("config_hash"),
            "status": record.get("status"),
            "summary": record.get("summary"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf8")).hexdigest()[:16]


class ResultStore:
    """One JSONL file of run headers and cell records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- writing ---------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        stream.append(self.path, [stream.encode(record)])

    def append_record(self, record: Dict[str, Any]) -> None:
        """Append one pre-built record (merge path: fold a shard cell
        into this store under a new run)."""
        if record.get("kind") not in ("run", "cell"):
            raise StoreError(
                f"record kind must be 'run' or 'cell', got {record.get('kind')!r}"
            )
        self._append(record)

    def open_run(
        self,
        run_id: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write a run header; returns the (possibly generated) run id."""
        if run_id is None:
            run_id = time.strftime("run-%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        self._append(
            {
                "kind": "run",
                "format": STORE_FORMAT,
                "run_id": run_id,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "git_rev": git_revision(),
                "metadata": metadata or {},
            }
        )
        return run_id

    def append_cell(
        self,
        run_id: str,
        task_id: str,
        config: ScenarioConfig,
        *,
        status: str,
        result: Optional[ScenarioResult] = None,
        error: Optional[str] = None,
        duration_s: float = 0.0,
        forked_from: Optional[str] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one finished (or failed) grid cell.

        ``forked_from`` is the state digest of the prefix checkpoint a
        fork-mode cell continued from (``None`` for cold runs), so a
        stored sweep is auditable: which cells shared which Phase 1.
        """
        self._append(
            cell_record(
                run_id,
                task_id,
                config,
                status=status,
                result=result,
                error=error,
                duration_s=duration_s,
                forked_from=forked_from,
                metrics=metrics,
            )
        )

    # -- reading ---------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Stream every record, optionally filtered by kind.

        A trailing line that does not parse is a *torn append* — a
        writer crashed (or is still) mid-``write`` — and is skipped with
        a warning; every record before it is intact.  An unparseable
        line with valid records after it cannot come from a torn append
        and still raises :class:`~repro.errors.StoreError`.
        """
        if not self.path.exists():
            return
        for record in stream.read(self.path, strict=True):
            if kind is None or record.get("kind") == kind:
                yield record

    def runs(self) -> List[Dict[str, Any]]:
        """All run headers, oldest first."""
        return list(self.records(kind="run"))

    def latest_run_id(self) -> Optional[str]:
        run_id = None
        for record in self.records(kind="run"):
            run_id = record["run_id"]
        return run_id

    def cells(
        self,
        run_id: Optional[str] = None,
        status: Optional[str] = None,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
        **config_filters: Any,
    ) -> List[Dict[str, Any]]:
        """Cell records matching the filters.

        ``config_filters`` match against the stored configuration
        (``store.cells(replication=4, split="advanced")``); ``where``
        is an arbitrary record predicate for anything richer.
        """
        out: List[Dict[str, Any]] = []
        for record in self.records(kind="cell"):
            if run_id is not None and record["run_id"] != run_id:
                continue
            if status is not None and record["status"] != status:
                continue
            config = record.get("config") or {}
            if any(config.get(k) != v for k, v in config_filters.items()):
                continue
            if where is not None and not where(record):
                continue
            out.append(record)
        return out

    def completed(self, run_id: Optional[str] = None) -> set:
        """Task ids already recorded ``ok`` — the resume skip-set."""
        return {
            record["task_id"]
            for record in self.cells(run_id=run_id, status="ok")
        }

    def completed_hashes(self, run_id: Optional[str] = None) -> Dict[str, str]:
        """``{task_id: config_hash}`` of the ``ok`` cells.  The runner
        resumes against this instead of bare task ids so a cell is only
        skipped when its *configuration* (not just its name) already
        ran — resubmitting the same grid at a different scale or split
        re-runs every cell."""
        return {
            record["task_id"]: record.get("config_hash", "")
            for record in self.cells(run_id=run_id, status="ok")
        }

    def has_run(self, run_id: str) -> bool:
        """Whether a run header with this id exists."""
        return any(record["run_id"] == run_id for record in self.runs())

    def pending_tasks(self, run_id: str, tasks: list) -> list:
        """The subset of ``tasks`` not yet recorded ``ok`` under
        ``run_id`` — the single definition of the resume skip rule
        (match on configuration hash, not bare task id) shared by the
        cold runner and the fork-sweep planner."""
        done = self.completed_hashes(run_id)
        return [
            task
            for task in tasks
            if done.get(task.task_id) != config_hash(task.config)
        ]

    # -- integrity -------------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Offline integrity check over the whole store (what
        ``repro results --verify`` runs).

        Reads every line once and reports, without raising:

        * parse state — intact records, a torn trailing line (tolerable:
          a writer crashed or is still mid-append), or mid-file
          corruption (``ok: False`` — a torn append cannot produce it);
        * shape problems — unknown record kinds, cell records missing
          required fields, cells whose stored ``config_hash`` no longer
          matches their stored configuration, cells referencing a run id
          with no run header;
        * counts per kind and per cell status, plus duplicate
          ``(run_id, task_id, config_hash)`` cells (benign — the merge
          path dedupes — but worth surfacing).
        """
        report: Dict[str, Any] = {
            "path": str(self.path),
            "ok": True,
            "runs": 0,
            "cells": 0,
            "cells_ok": 0,
            "cells_error": 0,
            "torn_tail": False,
            "duplicates": 0,
            "problems": [],
        }

        def problem(message: str, fatal: bool = True) -> None:
            report["problems"].append(message)
            if fatal:
                report["ok"] = False

        if not self.path.exists():
            problem(f"store file does not exist: {self.path}")
            return report
        run_ids = set()
        seen_cells: set = set()
        # A bad line is a torn tail only if nothing follows it: hold it
        # back until the next line (or EOF) decides, as records() does.
        bad: Optional[tuple] = None
        for lineno, record, exc in stream.scan(self.path):
            if bad is not None:
                problem("line %d: corrupt record mid-file (%s)" % bad)
                bad = None
            if record is None:
                bad = (lineno, exc)
                continue
            kind = record.get("kind")
            if kind == "run":
                report["runs"] += 1
                if not record.get("run_id"):
                    problem(f"line {lineno}: run header without run_id")
                else:
                    run_ids.add(record["run_id"])
            elif kind == "cell":
                report["cells"] += 1
                missing = [
                    key
                    for key in ("run_id", "task_id", "status", "config")
                    if key not in record
                ]
                if missing:
                    problem(f"line {lineno}: cell missing fields {missing}")
                    continue
                status = record["status"]
                if status == "ok":
                    report["cells_ok"] += 1
                elif status == "error":
                    report["cells_error"] += 1
                else:
                    problem(f"line {lineno}: unknown cell status {status!r}")
                stored_hash = record.get("config_hash")
                try:
                    recomputed = config_hash(config_from_dict(record["config"]))
                except (TypeError, ValueError) as exc:
                    problem(
                        f"line {lineno}: cell config does not rebuild ({exc})"
                    )
                    continue
                if stored_hash != recomputed:
                    problem(
                        f"line {lineno}: config_hash mismatch "
                        f"(stored {stored_hash}, recomputed {recomputed})"
                    )
                if record["run_id"] not in run_ids:
                    problem(
                        f"line {lineno}: cell references unknown run "
                        f"{record['run_id']!r}",
                        fatal=False,
                    )
                key = (record["run_id"], record["task_id"], stored_hash)
                if key in seen_cells:
                    report["duplicates"] += 1
                seen_cells.add(key)
            else:
                problem(f"line {lineno}: unknown record kind {kind!r}")
        if bad is not None:
            report["torn_tail"] = True
            problem("line %d: torn trailing record (%s)" % bad, fatal=False)
        return report

    def series_of(self, field: str, run_id: Optional[str] = None, **config_filters: Any) -> List[float]:
        """One summary scalar across matching ok-cells (query helper for
        the analysis layer), ``None`` entries dropped."""
        values: List[float] = []
        for record in self.cells(run_id=run_id, status="ok", **config_filters):
            summary = record.get("summary") or {}
            value = summary.get(field)
            if value is None:
                value = (summary.get("final") or {}).get(field)
            if value is not None:
                values.append(float(value))
        return values
