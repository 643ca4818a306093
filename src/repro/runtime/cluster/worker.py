"""The cluster worker: claim a cell, simulate it, record it, repeat.

A :class:`Worker` is one drain loop over a shared
:class:`~repro.runtime.cluster.queue.WorkQueue`.  Any number of workers
— processes on one machine, daemons on many — run the same loop:

1. :meth:`~repro.runtime.cluster.queue.WorkQueue.claim` a cell (which
   also reaps expired leases and retires exhausted cells);
2. execute it exactly as the local :class:`ParallelRunner` would
   (``_execute_task``: crash isolation, duration, fork provenance) —
   fork cells fetch their coordinator-published checkpoint from the
   shared cache *by digest* and fall back to a cold run on any miss;
3. append the cell record to this worker's shard and mark the cell
   done; a background thread heartbeats the lease the whole time, so a
   *live* slow worker keeps its cell while a *dead* one loses it.

The loop ends when the queue completes, when ``--max-cells`` is
reached, on ``--drain`` when nothing is claimable right now, or
gracefully on SIGTERM/SIGINT (finish the current cell, then exit) via
the ``stop`` event.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ... import obs
from ...obs import log as obs_log
from ...obs import trace as obs_trace
from ..forksweep import ForkContinuationTask
from ..runner import SweepTask, _execute_task
from ..store import cell_record
from .queue import DEFAULT_LEASE_S, Lease, TaskSpec, WorkQueue, open_queue

LogFn = Callable[[str], None]


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per process, readable in status output."""
    return f"{socket.gethostname()}-{os.getpid()}"


def task_from_spec(spec: TaskSpec, cache_root: str):
    """The executable task of a published spec.  Fork cells carry the
    coordinator's expected checkpoint digest, so a worker never forks
    from anything but the published fork point."""
    if spec.kind == "fork":
        return ForkContinuationTask(
            task_id=spec.task_id,
            config=spec.config,
            cache_root=cache_root,
            prefix_hash=spec.prefix_hash,
            expect_digest=spec.forked_digest,
        )
    return SweepTask(task_id=spec.task_id, config=spec.config)


@dataclass
class WorkerStats:
    """What one worker loop did."""

    worker_id: str = ""
    cells_ok: int = 0  # recorded by this worker
    cells_error: int = 0  # recorded by this worker, status error
    cells_lost: int = 0  # executed, but another attempt won the marker
    started: float = field(default_factory=time.time)

    @property
    def cells(self) -> int:
        """Cells this worker *executed* (recorded or lost-race) — what
        ``--max-cells`` bounds."""
        return self.cells_ok + self.cells_error + self.cells_lost


class Worker:
    """One drain loop over a shared work queue."""

    def __init__(
        self,
        queue: Union[str, "os.PathLike[str]", WorkQueue],
        worker_id: Optional[str] = None,
        poll_s: float = 0.5,
        log: Optional[LogFn] = None,
    ) -> None:
        self.queue = open_queue(queue)
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.log = log or (lambda message: None)

    # -- the loop --------------------------------------------------------

    def run(
        self,
        max_cells: Optional[int] = None,
        drain: bool = False,
        stop: Optional[threading.Event] = None,
    ) -> WorkerStats:
        """Drain the queue; returns what this worker did.

        ``drain`` exits as soon as nothing is claimable *right now*
        (leave straggler cells to their current owners); the default
        keeps polling until the whole queue is complete, picking up any
        lease that expires along the way.
        """
        stats = WorkerStats(worker_id=self.worker_id)
        # Drain-lifetime context: every event this worker emits (and
        # every cell-metrics line it flushes) carries its identity.
        # Restored on return so in-process callers (tests, coordinator
        # helping drain its own queue) don't keep the binding.
        # The manifest's trace token parents every cell span this worker
        # produces under the publisher's sweep span — the manifest, not
        # the environment, because ``repro worker`` daemons may start on
        # machines that never saw the coordinator's env.
        manifest = self.queue.manifest() or {}
        with obs_log.bind(worker=self.worker_id), obs_trace.adopt_token(
            manifest.get("trace")
        ):
            obs_log.info("worker.start", queue=str(self.queue.path))
            self._register(stats)
            while True:
                if stop is not None and stop.is_set():
                    self.log(f"{self.worker_id}: stop requested, draining out")
                    break
                lease = self.queue.claim(self.worker_id)
                if lease is None:
                    if self.queue.is_complete():
                        self.log(f"{self.worker_id}: queue complete")
                        break
                    if drain and not self.queue.has_claimable():
                        self.log(
                            f"{self.worker_id}: nothing claimable, draining"
                        )
                        break
                    time.sleep(self.poll_s)
                    continue
                self._execute(lease, stats)
                self._register(stats)
                if max_cells is not None and stats.cells >= max_cells:
                    self.log(
                        f"{self.worker_id}: reached max-cells={max_cells}"
                    )
                    break
            self._register(stats)
            obs_log.info(
                "worker.done",
                cells_ok=stats.cells_ok,
                cells_error=stats.cells_error,
                cells_lost=stats.cells_lost,
            )
        obs_trace.flush()
        return stats

    # -- one cell --------------------------------------------------------

    def _execute(self, lease: Lease, stats: WorkerStats) -> None:
        spec = lease.task
        task = task_from_spec(spec, str(self.queue.cache_root()))
        manifest = self.queue.manifest() or {}
        lease_s = float(manifest.get("lease_s", DEFAULT_LEASE_S))
        interval = max(0.05, lease_s / 4.0)
        hb_stop = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, interval, hb_stop, manifest.get("trace")),
            daemon=True,
        )
        hb.start()
        try:
            cell = _execute_task(task)
        finally:
            hb_stop.set()
            hb.join()
        record = cell_record(
            manifest.get("run_id", ""),
            cell.task_id,
            cell.config,
            status=cell.status,
            result=cell.result,
            error=cell.error,
            duration_s=cell.duration_s,
            forked_from=cell.forked_from,
            worker=self.worker_id,
            metrics=cell.metrics,
        )
        payload = None
        if spec.payload and cell.ok:
            payload = pickle.dumps(cell.result, protocol=pickle.HIGHEST_PROTOCOL)
        won = self.queue.complete(lease, record, payload)
        obs_log.info(
            "worker.cell",
            task=cell.task_id,
            status=cell.status,
            attempt=lease.attempt,
            duration_s=round(cell.duration_s, 3),
            won=won,
        )
        if not won:
            # A presumed-dead twin finished first; the records are
            # deterministic duplicates, merge keeps exactly one.
            stats.cells_lost += 1
        elif cell.ok:
            stats.cells_ok += 1
        else:
            stats.cells_error += 1
        mark = "ok " if cell.ok else "ERR"
        self.log(
            f"{self.worker_id}: {mark} {cell.task_id} "
            f"(attempt {lease.attempt}, {cell.duration_s:.2f}s)"
        )

    def _heartbeat_loop(
        self,
        lease: Lease,
        interval: float,
        hb_stop: threading.Event,
        trace_token: Optional[str],
    ) -> None:
        # A new thread starts with an empty context: adopt the manifest's
        # token so heartbeat spans join the sweep's trace, not new roots.
        with obs_trace.adopt_token(trace_token):
            while not hb_stop.wait(interval):
                with obs_trace.span("queue.heartbeat"):
                    alive = self.queue.heartbeat(lease)
                if not alive:
                    obs_log.warning("worker.lease_lost", task=lease.task.task_id)
                    return  # lease lost; nothing further to extend

    def _register(self, stats: WorkerStats) -> None:
        self.queue.register_worker(
            self.worker_id,
            {
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "started": stats.started,
                "last_seen": time.time(),
                "cells_ok": stats.cells_ok,
                "cells_error": stats.cells_error,
                "cells_lost": stats.cells_lost,
            },
        )


def run_worker(
    queue_path: str,
    worker_id: Optional[str] = None,
    max_cells: Optional[int] = None,
    drain: bool = False,
    poll_s: float = 0.5,
) -> WorkerStats:
    """Module-level worker entry point (picklable: the coordinator
    spawns local worker *processes* through this)."""
    # Re-adopt observability settings: under ``spawn`` this process may
    # have imported repro.obs before the parent's env vars were visible.
    obs.configure_from_env()
    return Worker(queue_path, worker_id=worker_id, poll_s=poll_s).run(
        max_cells=max_cells, drain=drain
    )
