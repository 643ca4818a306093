"""One sweep: a plan, bound once, handed to one of two executors.

Running a grid of scenario cells is two orthogonal choices, and the
choice lives here once:

* **plan** — ``fork=False`` runs every cell cold; ``fork=True`` binds
  the grid to shared Phase-1 checkpoints first
  (:func:`repro.runtime.forksweep.bind_fork_plan`: each prefix missing
  from the cache is simulated once, *locally*, and every cell that has
  one becomes a continuation task pinned to its digest);
* **executor** — where the bound tasks run: the local
  :class:`~repro.runtime.runner.ParallelRunner` (inline at
  ``workers <= 1``, a process pool above) or the cluster's
  :class:`~repro.runtime.cluster.Coordinator` (publish to a shared work
  queue, help drain it alongside any other machine's workers, collect).
  Both answer ``run(tasks, store=, run_id=, metadata=)`` with the cells
  in task order, plus ``local`` (the runner that simulates prefixes on
  this machine) and ``cache_root`` (where fork points live by default).

:func:`run_sweep` is resume filter → bind if ``fork`` → ``executor.run``;
``fork`` means the same thing on both executors.  :class:`ExecOptions`
carries the four user-facing settings (``workers``, ``fork``, ``queue``,
``engine``) as one value, and :func:`execute_scenarios` is the strict
fan-out the figure / table modules and the claims gate call.  Every
combination produces identical per-config results; only wall-clock and
where the work happens differ.  Errors surface as
:class:`~repro.errors.RunnerError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..experiments.scenario import ScenarioConfig, ScenarioResult
from ..obs import log as obs_log
from ..obs import trace as obs_trace
from .forksweep import CheckpointCache, bind_fork_plan
from .runner import (
    CellResult,
    ParallelRunner,
    ProgressFn,
    SweepTask,
    collect_scenario_results,
    scenario_tasks,
)
from .store import ResultStore

if TYPE_CHECKING:
    from .cluster import Coordinator

Executor = Union[ParallelRunner, "Coordinator"]


@dataclass(frozen=True)
class ExecOptions:
    """How to run a grid — never what it computes, except ``engine``.

    ``workers`` local processes; ``fork`` reuses (and populates) the
    persistent Phase-1 checkpoint cache; ``queue`` names a shared work
    queue any ``repro worker`` pointed at it helps drain.  None of the
    three changes a result.  ``engine`` overrides every configuration's
    execution engine (``"event"`` | ``"batch"``) — the one knob that
    *does*: the batch engine is statistically, not bit-for-bit,
    equivalent to the event engine (``repro.sim.batch`` and
    ``repro.sim.engine`` each keep their own ``SEMANTICS_VERSION``; see
    README "Execution engines").  Stored cells and checkpoint-cache
    keys carry the engine in the configuration, so the two backends
    never cross-contaminate.
    """

    workers: int = 1
    fork: bool = False
    queue: Optional[str] = None
    engine: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "ExecOptions":
        """The value of a parsed ``repro run | sweep`` command line
        (``--workers / --fork / --queue / --engine``)."""
        return cls(args.workers, args.fork, args.queue, args.engine)

    def executor(
        self, progress: Optional[ProgressFn] = None, **queue_options: Any
    ) -> Executor:
        """The executor these options select: the queue's coordinator
        (``queue_options`` are its constructor's — lease, attempts,
        join, payloads, … — and mean nothing without a queue) or the
        local runner."""
        if self.queue is not None:
            from .cluster import Coordinator

            return Coordinator(
                self.queue, workers=self.workers, progress=progress, **queue_options
            )
        return ParallelRunner(workers=self.workers, progress=progress)


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    fork: bool,
    executor: Executor,
    cache: Optional[CheckpointCache] = None,
    store: Optional[ResultStore] = None,
    run_id: Optional[str] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> List[CellResult]:
    """Run a grid; the executed cells in task order.

    With a store, finished cells are persisted under ``run_id`` and —
    when ``run_id`` names a run already in the store — cells recorded
    ``ok`` for the exact same configuration are skipped and *not*
    re-returned.  That filter runs before planning, so a finished sweep
    whose cache was gc'ed never re-simulates prefixes nobody needs.
    ``cache`` defaults to the executor's (``$REPRO_CHECKPOINT_DIR``
    locally, the queue's shared directory on a queue).
    """
    tasks = list(tasks)
    if store is not None and run_id is not None and store.has_run(run_id):
        tasks = store.pending_tasks(run_id, tasks)
        if not tasks:
            return []  # finished: nothing to plan, publish or run
    # One trace tree for a fork sweep: planning, the prefix cells and
    # the executor's own sweep span all parent under it.
    scope = (
        obs_trace.span("sweep.fork", n_tasks=len(tasks))
        if fork
        else obs_trace.NULL_SPAN
    )
    with scope:
        if fork:
            tasks = bind_fork_plan(
                tasks, cache or CheckpointCache(executor.cache_root), executor.local
            )
        return executor.run(tasks, store=store, run_id=run_id, metadata=metadata)


def execute_scenarios(
    configs: Sequence[ScenarioConfig],
    options: ExecOptions = ExecOptions(),
    cache: Optional[CheckpointCache] = None,
) -> List[ScenarioResult]:
    """Run every configuration and return full results in input order,
    any errored cell re-raised as :class:`~repro.errors.RunnerError`."""
    if options.engine is not None:
        configs = [
            config
            if config.engine == options.engine
            else replace(config, engine=options.engine)
            for config in configs
        ]
    obs_log.info(
        "dispatch.execute",
        n_configs=len(configs),
        workers=options.workers,
        fork=options.fork,
        queue=options.queue,
        engine=options.engine,
    )
    with obs_trace.span(
        "dispatch",
        fork=options.fork,
        queue=options.queue is not None,
        n_tasks=len(configs),
    ):
        cells = run_sweep(
            scenario_tasks(configs),
            fork=options.fork,
            executor=options.executor(payloads=True),
            cache=cache,
        )
    return collect_scenario_results(cells)
