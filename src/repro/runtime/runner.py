"""Parallel execution of experiment grids over worker processes.

Every figure and table of the paper is a grid of *independent*
simulations (seeds × shapes × failure fractions × split functions), so
the sweep is embarrassingly parallel.  :class:`ParallelRunner` fans a
list of :class:`SweepTask` across a ``multiprocessing`` pool with:

* **determinism** — each cell's result depends only on its
  configuration (every task carries its own seed), so ``workers=8``
  produces results identical per-cell to the serial path;
* **crash isolation** — an exception inside a worker records an
  ``error`` cell (with traceback) instead of killing the sweep;
* **progress reporting** — an optional callback fires in the parent as
  cells complete;
* **persistence & resume** — given a :class:`~repro.runtime.store.ResultStore`,
  finished cells are appended as they arrive and cells already recorded
  ``ok`` under the resumed run id are skipped, so an interrupted sweep
  continues where it left off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .. import obs
from ..errors import RunnerError
from ..experiments.scenario import ScenarioConfig, ScenarioResult, run_scenario
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .store import ResultStore

ProgressFn = Callable[[int, int, "CellResult"], None]


@dataclass(frozen=True)
class SweepTask:
    """One grid cell: a unique id plus the scenario configuration."""

    task_id: str
    config: ScenarioConfig

    def run(self) -> ScenarioResult:
        return run_scenario(self.config)


@dataclass
class CellResult:
    """Outcome of one task, successful or not."""

    task_id: str
    status: str  # "ok" | "error"
    result: Optional[ScenarioResult]
    error: Optional[str]
    seed: int
    duration_s: float
    config: ScenarioConfig = field(repr=False, default=None)
    #: State digest of the prefix checkpoint this cell continued from
    #: (fork-mode sweeps), ``None`` for a cold run.
    forked_from: Optional[str] = None
    #: Per-cell metrics snapshot (counters/gauges/histograms recorded
    #: while this cell executed), ``None`` when observability is off.
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _execute_task(task: SweepTask) -> CellResult:
    """Run one task, converting any exception into an errored cell.

    Module-level (not a method) so it pickles cleanly into workers.
    This is also the per-cell observability scope: it runs *in the
    executing process* (pool child, cluster worker, or the parent when
    serial), so the metrics registry is reset here, everything the cell
    records is snapshotted here, and the snapshot both rides back on
    the :class:`CellResult` and is flushed to the run's
    ``obs/metrics.jsonl``.
    """
    start = time.perf_counter()
    if obs_trace.ENABLED:
        # The cell span carries the identity the analysis surfaces key
        # on; the worker id (bound by the cluster drain loop) makes it
        # a lane in the critical-path / Perfetto views.
        attrs: Dict[str, Any] = {"task_id": task.task_id, "seed": task.config.seed}
        worker = obs_log.context().get("worker")
        if worker is not None:
            attrs["worker"] = worker
        cell_span = obs_trace.span("cell", **attrs)
    else:
        cell_span = obs_trace.NULL_SPAN
    with obs.reset_for_cell(task_id=task.task_id, seed=task.config.seed), cell_span:
        try:
            result = task.run()
        except Exception:
            duration = time.perf_counter() - start
            obs_metrics.observe("cell.wall", duration)
            obs_log.error("cell.error", duration_s=round(duration, 3))
            cell = CellResult(
                task_id=task.task_id,
                status="error",
                result=None,
                error=traceback.format_exc(),
                seed=task.config.seed,
                duration_s=duration,
                config=task.config,
                metrics=obs.flush_cell_metrics({"status": "error"}),
            )
        else:
            duration = time.perf_counter() - start
            obs_metrics.observe("cell.wall", duration)
            obs_log.debug("cell.done", duration_s=round(duration, 3))
            cell = CellResult(
                task_id=task.task_id,
                status="ok",
                result=result,
                error=None,
                seed=task.config.seed,
                duration_s=duration,
                config=task.config,
                # Fork-mode tasks record which checkpoint they actually
                # used (None after a cold fallback); set during run() in
                # this same worker process, so it survives the trip back
                # to the parent.
                forked_from=getattr(task, "forked_from", None),
                metrics=obs.flush_cell_metrics({"status": "ok"}),
            )
    # The cell span itself closes above, after the in-cell flush; drain
    # it here so pool children (which exit without atexit handlers)
    # never lose their last spans.
    obs_trace.flush()
    return cell


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


class ParallelRunner:
    """Executes sweep tasks across processes (or serially in-process).

    ``workers <= 1`` runs every task in the calling process through the
    *same* code path, which is what the parallel/serial equivalence
    guarantee rests on.

    One of the two executors :func:`repro.runtime.dispatch.run_sweep`
    hands a grid to (the other is the cluster's
    :class:`~repro.runtime.cluster.Coordinator`); both answer ``run``,
    ``local`` and ``cache_root``.
    """

    #: Where fork points live unless the caller names a cache: ``None``
    #: is ``$REPRO_CHECKPOINT_DIR`` / ``.repro-checkpoints``.
    cache_root: Optional[str] = None

    def __init__(
        self,
        workers: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.progress = progress

    @property
    def local(self) -> "ParallelRunner":
        """The runner that simulates missing fork prefixes on this
        machine — this one."""
        return self

    # -- execution -------------------------------------------------------

    def run(
        self,
        tasks: Sequence[SweepTask],
        store: Optional[ResultStore] = None,
        run_id: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[CellResult]:
        """Run all tasks; returns cells in the order tasks were given.

        With a store, a run header is appended (unless ``run_id`` names
        an existing run to resume) and each finished cell is persisted
        as it completes.  Cells already stored ``ok`` under ``run_id``
        are skipped and *not* re-returned.
        """
        tasks = list(tasks)
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({tid for tid in ids if ids.count(tid) > 1})
            raise RunnerError(f"duplicate task ids in sweep: {dupes}")

        if store is not None:
            if run_id is not None and store.has_run(run_id):
                # Skip only cells whose exact configuration already ran:
                # a task id alone ("replication=2/seed=0") recurs across
                # scales/splits, so matching on it would silently drop
                # cells when the grid parameters changed.
                tasks = store.pending_tasks(run_id, tasks)
            else:
                run_id = store.open_run(run_id=run_id, metadata=metadata)

        total = len(tasks)
        by_id: Dict[str, CellResult] = {}
        done_count = 0

        def record(cell: CellResult) -> None:
            nonlocal done_count
            done_count += 1
            by_id[cell.task_id] = cell
            if store is not None:
                store.append_cell(
                    run_id,
                    cell.task_id,
                    cell.config,
                    status=cell.status,
                    result=cell.result,
                    error=cell.error,
                    duration_s=cell.duration_s,
                    forked_from=cell.forked_from,
                    metrics=cell.metrics,
                )
            if self.progress is not None:
                self.progress(done_count, total, cell)

        sweep_attrs: Dict[str, Any] = {"n_tasks": total, "workers": self.workers}
        if run_id is not None:
            sweep_attrs["run_id"] = run_id
        with obs_trace.span("sweep", **sweep_attrs):
            if self.workers <= 1 or len(tasks) <= 1:
                for task in tasks:
                    record(_execute_task(task))
            else:
                # Children must parent their spans under this sweep:
                # fork-mode pool workers inherit the context variable,
                # spawn-mode workers adopt the token exported here
                # (obs.configure_from_env at import).  Flush first so a
                # forked child never inherits unwritten parent spans.
                obs_trace.flush()
                prev_token = os.environ.get(obs_trace.ENV_CTX)
                token = obs_trace.context_token()
                if token is not None:
                    os.environ[obs_trace.ENV_CTX] = token
                try:
                    with multiprocessing.Pool(min(self.workers, len(tasks))) as pool:
                        for cell in pool.imap_unordered(_execute_task, tasks):
                            record(cell)
                finally:
                    if token is not None:
                        if prev_token is None:
                            os.environ.pop(obs_trace.ENV_CTX, None)
                        else:
                            os.environ[obs_trace.ENV_CTX] = prev_token
        obs_trace.flush()
        return [by_id[task.task_id] for task in tasks]


def scenario_tasks(configs: Sequence[ScenarioConfig]) -> List[SweepTask]:
    """One positionally-named task per plain scenario config."""
    return [
        SweepTask(task_id=f"cell-{i:04d}", config=config)
        for i, config in enumerate(configs)
    ]


def collect_scenario_results(
    cells: Sequence[CellResult],
) -> List[ScenarioResult]:
    """Results in cell order, any errored cell re-raised as
    :class:`~repro.errors.RunnerError` — the strict end of
    :func:`repro.runtime.dispatch.execute_scenarios`."""
    failed = [cell for cell in cells if not cell.ok]
    if failed:
        first = failed[0]
        raise RunnerError(
            f"{len(failed)}/{len(cells)} sweep cells failed; first error "
            f"({first.task_id}, seed={first.seed}):\n{first.error}"
        )
    return [cell.result for cell in cells]


def seed_sweep_tasks(
    config: ScenarioConfig, seeds: Iterable[int], prefix: str = "seed"
) -> List[SweepTask]:
    """One task per seed for a fixed configuration."""
    return [
        SweepTask(task_id=f"{prefix}-{seed}", config=replace(config, seed=seed))
        for seed in seeds
    ]


def grid_tasks(
    base: ScenarioConfig, axes: Dict[str, Sequence[Any]]
) -> List[SweepTask]:
    """The cartesian product of configuration axes as tasks.

    ``grid_tasks(base, {"replication": (2, 4, 8), "seed": range(5)})``
    yields 15 tasks with ids like ``replication=2/seed=3``.
    """
    if not axes:
        return [SweepTask(task_id="base", config=base)]
    names = list(axes)
    tasks: List[SweepTask] = []
    for values in product(*(axes[name] for name in names)):
        overrides = dict(zip(names, values))
        task_id = "/".join(f"{name}={value}" for name, value in overrides.items())
        tasks.append(SweepTask(task_id=task_id, config=replace(base, **overrides)))
    return tasks
