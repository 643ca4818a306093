"""repro.runtime.cluster — distributed sweep execution.

A sweep grid drained by many worker processes/machines that share
nothing but a queue directory (an NFS-style share):

* :mod:`~repro.runtime.cluster.queue` — :class:`WorkQueue` with atomic
  lease-based claims, heartbeats, lease expiry, and bounded retries
  (dead workers lose their cells, not the run);
* :mod:`~repro.runtime.cluster.coordinator` — plans the grid with the
  fork-sweep prefix planner, publishes each shared Phase-1 checkpoint
  once into the shared :class:`~repro.runtime.forksweep.CheckpointCache`
  (workers fetch by digest), and enqueues every cell;
* :mod:`~repro.runtime.cluster.worker` — the claim/execute/record drain
  loop (``repro worker``), with graceful drain and heartbeating;
* :mod:`~repro.runtime.cluster.merge` — folds per-worker shards into
  one :class:`~repro.runtime.store.ResultStore` run, deduplicated by
  configuration hash and byte-identical to a serial run of the grid.
"""

from .coordinator import (
    Coordinator,
    DistributedRun,
    collect_cells,
    distributed_scenarios,
    drain_queue,
    run_distributed_sweep,
    wait_complete,
)
from .merge import MergeReport, diff_stores, merge_queue, merged_records
from .queue import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    Lease,
    TaskSpec,
    WorkQueue,
    open_queue,
)
from .worker import Worker, WorkerStats, default_worker_id, run_worker

__all__ = [
    # queue
    "WorkQueue",
    "TaskSpec",
    "Lease",
    "open_queue",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    # coordinator
    "Coordinator",
    "DistributedRun",
    "run_distributed_sweep",
    "distributed_scenarios",
    "drain_queue",
    "wait_complete",
    "collect_cells",
    # worker
    "Worker",
    "WorkerStats",
    "run_worker",
    "default_worker_id",
    # merge
    "MergeReport",
    "merge_queue",
    "merged_records",
    "diff_stores",
]
