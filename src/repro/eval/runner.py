"""Execute claim cases and persist their cells — cached by content hash.

The runner is deliberately thin: it expands the requested cases into
scenario configurations, drops every configuration whose exact content
hash already has an ``ok`` cell in the result store (*unchanged cases
are free on re-run*), executes the rest through
:func:`repro.runtime.dispatch.execute_scenarios` — so either plan (cold,
fork) runs on either executor (local, queue) unchanged — and
appends the fresh cells to the store.  Scoring never touches this
module's simulations: it reads the store
(:func:`repro.eval.scorers.group_cells`), which is what makes a gate
failure attributable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..experiments.scenario import ScenarioConfig
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..runtime.dispatch import ExecOptions, execute_scenarios
from ..runtime.store import ResultStore, cell_record, config_hash
from .dataset import ClaimCase
from .scorers import CaseCells, group_cells

LogFn = Callable[[str], None]


@dataclass
class EvalRunData:
    """Everything one eval execution produced, ready for scoring."""

    run_id: Optional[str]
    #: (case_id, engine) -> the case's cells under that engine.
    cells: Dict[Tuple[str, str], CaseCells] = field(default_factory=dict)
    executed: int = 0
    cached: int = 0
    errored: int = 0
    duration_s: float = 0.0
    #: Execution-level failures (a backend raising), per engine.
    run_errors: List[str] = field(default_factory=list)


def case_plan(
    cases: Sequence[ClaimCase], engine: Optional[str] = None
) -> List[Tuple[ClaimCase, str]]:
    """Expand cases into (case, engine) scoring units for a gate
    invocation (``engine``: ``"event"``/``"batch"``/None = both)."""
    plan: List[Tuple[ClaimCase, str]] = []
    for case in cases:
        for eng in case.engines(engine):
            plan.append((case, eng))
    return plan


def _store_index(store: ResultStore) -> Dict[str, Dict[str, Any]]:
    """config_hash -> ok cell record, across every run in the store.
    Later records win (a re-run after a code change supersedes)."""
    index: Dict[str, Dict[str, Any]] = {}
    for record in store.records(kind="cell"):
        if record.get("status") == "ok" and record.get("config_hash"):
            index[record["config_hash"]] = record
    return index


def run_cases(
    cases: Sequence[ClaimCase],
    store: ResultStore,
    engine: Optional[str] = None,
    workers: int = 1,
    fork: bool = False,
    queue: Optional[str] = None,
    metadata: Optional[Dict[str, Any]] = None,
    log: Optional[LogFn] = None,
) -> EvalRunData:
    """Run every configuration the cases need (skipping content-hash
    cache hits) and return the per-case stored cells.

    All execution flows through one :func:`execute_scenarios` call per
    engine, so ``workers``/``fork``/``queue`` mean what they mean for a
    sweep — spelled out here, and only here, because the frozen
    benchmark calls ``run_cases(cases, store, engine=, fork=)``; they
    become one :class:`~repro.runtime.dispatch.ExecOptions` at once
    (``engine`` picks which engines' cases run; each case's
    configurations already name theirs).  A backend failure is recorded on
    :attr:`EvalRunData.run_errors` and scoring proceeds on whatever
    cells exist — the affected claims fail with a *missing cells*
    diagnosis instead of the gate crashing.
    """
    started = time.perf_counter()
    with obs_trace.span("eval.run"):
        options = ExecOptions(workers=workers, fork=fork, queue=queue)
        say = log or (lambda message: None)
        plan = case_plan(cases, engine)
        index = _store_index(store)

        # One deduped work list per engine: cases share configurations
        # (Table II's K=4 column *is* the Fig. 6 scenario), and a config
        # already in the store is a cache hit.
        todo: Dict[str, Dict[str, ScenarioConfig]] = {}
        cached = 0
        for case, eng in plan:
            for _, config in case.configs(eng):
                chash = config_hash(config)
                if chash in index:
                    cached += 1
                else:
                    todo.setdefault(eng, {})[chash] = config
        data = EvalRunData(run_id=None, cached=cached)

        run_id: Optional[str] = None
        for eng in sorted(todo):
            configs = list(todo[eng].values())
            say(
                f"engine {eng}: executing {len(configs)} uncached "
                f"configuration(s)"
            )
            obs_log.info("eval.execute", engine=eng, n_configs=len(configs))
            try:
                with obs_trace.span("eval.execute", engine=eng):
                    results = execute_scenarios(configs, options)
            except ReproError as exc:
                data.run_errors.append(f"engine {eng}: {exc}")
                obs_log.error("eval.execute_failed", engine=eng, error=str(exc))
                say(f"engine {eng}: execution failed: {exc}")
                continue
            if run_id is None and results:
                run_id = store.open_run(
                    metadata=dict(metadata or {}, kind="eval")
                )
            for config, result in zip(configs, results):
                chash = config_hash(config)
                record = cell_record(
                    run_id,
                    f"eval/{chash[:12]}",
                    config,
                    status="ok",
                    result=result,
                )
                store.append_record(record)
                index[chash] = record
                data.executed += 1
            obs_metrics.count("eval.cells_executed", len(results))

        data.run_id = run_id
        # Hand each (case, engine) its stored cells, content-addressed.
        for case, eng in plan:
            records = [
                index[config_hash(config)]
                for _, config in case.configs(eng)
                if config_hash(config) in index
            ]
            data.cells[(case.case_id, eng)] = group_cells(case, eng, records)
    data.duration_s = time.perf_counter() - started
    return data


def ensembles_for_update(
    data: EvalRunData, case: ClaimCase, stat: str, label: str
) -> List[List[float]]:
    """The generating ensembles (one per engine that ran) used to
    derive a recorded expectation for ``stat`` in variant ``label``."""
    out: List[List[float]] = []
    for (case_id, _eng), cells in sorted(data.cells.items()):
        if case_id != case.case_id:
            continue
        values = cells.values(stat, label)
        if values:
            out.append(values)
    return out
