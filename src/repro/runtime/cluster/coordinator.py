"""The queue executor: publish a bound grid, drain it, collect cells.

:class:`Coordinator` is one of the two executors
:func:`repro.runtime.dispatch.run_sweep` hands a grid to (the other is
the local :class:`~repro.runtime.runner.ParallelRunner`).  It does not
plan: fork binding — which cells share a Phase 1, which prefixes still
have to be simulated, which digest each cell must fork from — happened
before it is called (:func:`repro.runtime.forksweep.bind_fork_plan`,
with this executor's ``local`` runner and shared ``cache_root``), so
what arrives is a list of cold tasks and
:class:`~repro.runtime.forksweep.ForkContinuationTask` objects.  Its
``run``:

1. turns each task into a :class:`TaskSpec` — the inverse of
   :func:`repro.runtime.cluster.worker.task_from_spec` — and publishes
   the grid (or joins an identical one already published: publishing is
   idempotent, any participant may do it);
2. with ``join`` (the default) drains the queue with local workers,
   while remote ``repro worker`` processes are free to take part, and
   waits for *every* cell, wherever it ran;
3. merges the shards into ``store`` when one is given and returns the
   cells in task order (:func:`collect_cells`).

Workers fetch fork points by digest from the shared cache and fall back
to a cold run on any cache problem, so a lost or corrupted checkpoint
costs time, never correctness.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ...errors import ClusterError
from ...experiments.scenario import ScenarioResult
from ...obs import log as obs_log
from ...obs import trace as obs_trace
from ..forksweep import ForkContinuationTask
from ..runner import CellResult, ParallelRunner, ProgressFn, SweepTask
from ..store import ResultStore, config_from_dict, config_hash
from .merge import merge_queue, merged_records
from .queue import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    TaskSpec,
    WorkQueue,
    open_queue,
)
from .worker import Worker, run_worker

QueueLike = Union[str, WorkQueue]
StatusFn = Callable[[Dict[str, Any]], None]


def spec_from_task(task: SweepTask, payload: bool = False) -> TaskSpec:
    """The published form of an executable task — the inverse of
    :func:`repro.runtime.cluster.worker.task_from_spec`."""
    if isinstance(task, ForkContinuationTask):
        return TaskSpec(
            task_id=task.task_id,
            config=task.config,
            kind="fork",
            prefix_hash=task.prefix_hash,
            forked_digest=task.expect_digest,
            payload=payload,
        )
    return TaskSpec(task_id=task.task_id, config=task.config, payload=payload)


class Coordinator:
    """Runs a sweep grid through a shared work queue.

    ``workers`` local processes help drain (``<= 1``: one worker inline
    in this process) and simulate missing fork prefixes (``local``);
    ``progress`` reports those prefix cells, ``on_status`` the queue's
    progress while waiting.  ``join=False`` only publishes: ``run``
    returns no cells and ``repro worker`` processes do the work.
    ``payloads`` asks workers to park full pickled results in the queue
    so ``run`` can hand them back (summaries always are).
    """

    def __init__(
        self,
        queue: QueueLike,
        workers: int = 1,
        progress: Optional[ProgressFn] = None,
        *,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        join: bool = True,
        payloads: bool = False,
        poll_s: float = 0.2,
        log=None,
        on_status: Optional[StatusFn] = None,
    ) -> None:
        self.queue = open_queue(queue)
        self.workers = workers
        self.local = ParallelRunner(workers=workers, progress=progress)
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.join = join
        self.payloads = payloads
        self.poll_s = poll_s
        self.log = log
        self.on_status = on_status
        #: The manifest of the last ``publish`` (ours, or the joined one).
        self.manifest: Optional[Dict[str, Any]] = None

    @property
    def cache_root(self) -> str:
        """Where this queue's fork points live: the directory every
        participant derives from the queue (or its manifest's pin)."""
        return str(self.queue.cache_root())

    def publish(
        self,
        tasks: Sequence[SweepTask],
        run_id: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Publish the grid, or join an identical already-published one
        (validated by task id and configuration hash; the first
        publisher's specs stand)."""
        specs = [spec_from_task(task, self.payloads) for task in tasks]
        # Only a non-default cache needs pinning in the manifest; the
        # default lives at a queue-relative location every participant
        # derives identically.
        pinned = {
            task.cache_root
            for task in tasks
            if isinstance(task, ForkContinuationTask)
        } - {self.cache_root}
        if len(pinned) > 1:
            raise ClusterError(
                f"fork cells of one grid name several caches: {sorted(pinned)}"
            )
        # The ambient span context (the ``sweep.distributed`` span when
        # driven by ``run``) is what every worker's cell spans should
        # parent under; it rides in the manifest because ``repro
        # worker`` daemons share no environment with us.
        self.manifest = self.queue.publish(
            specs,
            run_id=run_id,
            metadata=metadata,
            lease_s=self.lease_s,
            max_attempts=self.max_attempts,
            cache_root=pinned.pop() if pinned else None,
            trace=obs_trace.context_token(),
        )
        obs_log.info(
            "coordinator.publish",
            queue=str(self.queue.path),
            run_id=self.manifest.get("run_id"),
            n_tasks=len(specs),
            n_fork=sum(1 for spec in specs if spec.kind == "fork"),
        )
        return self.manifest

    def run(
        self,
        tasks: Sequence[SweepTask],
        store: Optional[ResultStore] = None,
        run_id: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[CellResult]:
        """Publish ``tasks`` and (with ``join``) help drain the queue,
        merge it into ``store`` and return the cells in task order."""
        tasks = list(tasks)
        with obs_trace.span(
            "sweep.distributed", n_tasks=len(tasks), workers=self.workers
        ):
            self.publish(tasks, run_id=run_id, metadata=metadata)
            cells: List[CellResult] = []
            if self.join:
                drain_queue(
                    self.queue,
                    workers=self.workers,
                    poll_s=self.poll_s,
                    log=self.log,
                    progress=self.on_status,
                )
                if store is not None:
                    merge = merge_queue(
                        self.queue, store, run_id=run_id, metadata=metadata
                    )
                    obs_log.info(
                        "coordinator.merge",
                        queue=str(self.queue.path),
                        run_id=merge.run_id,
                        unique_cells=merge.unique_cells,
                        duplicates=merge.duplicates,
                        errors=merge.errors,
                    )
                cells = collect_cells(
                    self.queue, tasks, require_results=self.payloads
                )
        obs_trace.flush()
        return cells


# -- lifecycle helpers -------------------------------------------------------


def wait_complete(
    queue: QueueLike,
    poll_s: float = 0.5,
    timeout_s: Optional[float] = None,
    progress=None,
    dead_workers: Sequence[int] = (),
) -> None:
    """Block until every cell of the queue is done (other machines'
    workers may be finishing cells this process never touched).

    ``dead_workers`` are the non-zero exit codes of local workers that
    were supposed to drain it: with those, an incomplete queue on which
    nobody holds a live lease has no one left to finish it, and waiting
    raises :class:`~repro.errors.ClusterError` instead of polling for
    ever.  The queue itself is untouched — any ``repro worker`` can
    still drain it.
    """
    queue = open_queue(queue)
    started = time.time()
    last_done = -1
    while not queue.is_complete():
        if timeout_s is not None and time.time() - started > timeout_s:
            status = queue.status()
            raise ClusterError(
                f"queue {queue.path} did not complete within {timeout_s:.0f}s "
                f"({status.get('done', 0)}/{status.get('total', '?')} cells)"
            )
        if progress is not None or dead_workers:
            status = queue.status()
            if dead_workers and not status.get("leased") and not status.get("complete"):
                raise ClusterError(
                    f"local workers exited with codes {list(dead_workers)} and "
                    f"nobody holds a lease on queue {queue.path} "
                    f"({status.get('done', 0)}/{status.get('total', '?')} cells "
                    f"done); drain it with: repro worker --queue {queue.path}"
                )
            if progress is not None and status.get("done") != last_done:
                last_done = status.get("done")
                progress(status)
        time.sleep(poll_s)


def drain_queue(
    queue: QueueLike,
    workers: int = 1,
    poll_s: float = 0.2,
    log=None,
    progress=None,
) -> None:
    """Participate in draining the queue with local workers, then wait
    for full completion (leases held elsewhere included).

    ``workers <= 1`` runs one worker inline in this process — the
    serial-equivalent path; more spawn that many worker *processes*.
    Workers that died (non-zero exit code) are reported by
    :func:`wait_complete` once nobody else holds a lease.
    """
    queue = open_queue(queue)
    n = max(1, int(workers))
    dead: List[int] = []
    if n <= 1:
        Worker(queue, poll_s=poll_s, log=log).run()
    else:
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(
                target=run_worker,
                args=(str(queue.path),),
                kwargs={"poll_s": poll_s},
            )
            for _ in range(n)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        dead = [proc.exitcode for proc in procs if proc.exitcode]
    wait_complete(
        queue, poll_s=max(poll_s, 0.2), progress=progress, dead_workers=dead
    )


def collect_cells(
    queue: QueueLike, tasks: Sequence[SweepTask], require_results: bool = False
) -> List[CellResult]:
    """Reassemble :class:`CellResult` objects (full results included,
    for payload-carrying grids) from a drained queue, in task order.

    ``require_results`` refuses a grid whose ok cells carry no payload
    (someone else published it without them): the summaries are in the
    queue, the full series are not.
    """
    queue = open_queue(queue)
    records = merged_records(queue)
    by_id = {record["task_id"]: record for record in records}
    by_hash = {record.get("config_hash"): record for record in records}
    cells: List[CellResult] = []
    for task in tasks:
        record = by_id.get(task.task_id)
        if record is None:
            # Two tasks with identical configs dedupe to one record at
            # merge; the twin's result is the same by determinism.
            record = by_hash.get(config_hash(task.config))
        if record is None:
            raise ClusterError(
                f"queue {queue.path} holds no record for cell "
                f"{task.task_id!r}; was the queue fully drained?"
            )
        result: Optional[ScenarioResult] = None
        if record.get("status") == "ok":
            # Keyed by the id of the cell that actually executed (which
            # differs from task.task_id for a deduped identical twin).
            blob = queue.load_payload(record["task_id"])
            if blob is not None:
                result = pickle.loads(blob)
        config = config_from_dict(record["config"])
        cells.append(
            CellResult(
                task_id=record["task_id"],
                status=record.get("status", "error"),
                result=result,
                error=record.get("error"),
                seed=config.seed,
                duration_s=record.get("duration_s", 0.0),
                config=config,
                forked_from=record.get("forked_from"),
                metrics=record.get("metrics"),
            )
        )
    payload_less = [cell.task_id for cell in cells if cell.ok and cell.result is None]
    if require_results and payload_less:
        raise ClusterError(
            f"queue {queue.path} was published without result payloads "
            f"({len(payload_less)} ok cells have summaries only, e.g. "
            f"{payload_less[0]!r}); use a fresh queue, or read the merged "
            "summaries with merge_queue()/merged_records() instead"
        )
    return cells
