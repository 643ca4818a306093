"""repro.runtime.cluster — distributed sweep execution.

A sweep grid drained by many worker processes/machines that share
nothing but a queue directory (an NFS-style share):

* :mod:`~repro.runtime.cluster.queue` — :class:`WorkQueue` with atomic
  lease-based claims, heartbeats, lease expiry, and bounded retries
  (dead workers lose their cells, not the run);
* :mod:`~repro.runtime.cluster.coordinator` — the queue executor of
  :func:`repro.runtime.dispatch.run_sweep`: publishes an already-bound
  grid (fork cells carry the digest of the checkpoint parked in the
  shared :class:`~repro.runtime.forksweep.CheckpointCache`; workers
  fetch by digest), helps drain it, merges and collects the cells;
* :mod:`~repro.runtime.cluster.worker` — the claim/execute/record drain
  loop (``repro worker``), with graceful drain and heartbeating;
* :mod:`~repro.runtime.cluster.merge` — folds per-worker shards into
  one :class:`~repro.runtime.store.ResultStore` run, deduplicated by
  configuration hash and byte-identical to a serial run of the grid.
"""

from .coordinator import (
    Coordinator,
    collect_cells,
    drain_queue,
    spec_from_task,
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
    "spec_from_task",
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
