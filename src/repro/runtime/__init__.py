"""repro.runtime — parallel experiment execution, checkpoint/restore,
and persistent results.

The paper's evaluation is a grid of independent simulations; this
subsystem is the machinery that runs such grids at production scale:

* :mod:`repro.runtime.checkpoint` — bit-identical snapshot/restore of a
  full :class:`~repro.sim.engine.Simulation` (pause, fork, resume);
* :mod:`repro.runtime.runner` — :class:`ParallelRunner` fans sweeps
  across worker processes with crash isolation and progress reporting;
* :mod:`repro.runtime.store` — an append-only JSONL result store with
  run metadata (git revision, seeds, config hashes) and query helpers;
* :mod:`repro.runtime.scenarios` — composable churn schedules
  (catastrophic, correlated-region, trickle, flash crowds) opening
  workloads beyond the paper's fixed failure script;
* :mod:`repro.runtime.forksweep` — phase-fork sweeps: one Phase-1
  simulation per shared pre-failure prefix, cached on disk
  (:class:`CheckpointCache`) and forked into every ablation variant,
  with byte-identical results to cold-start sweeps;
* :mod:`repro.runtime.cluster` — distributed sweeps: a lease-based
  :class:`~repro.runtime.cluster.WorkQueue` over a shared directory,
  a coordinator that publishes prefix checkpoints for workers to fetch
  by digest, worker daemons with heartbeats and bounded retries, and
  shard merging that is byte-identical to a serial run;
* :mod:`repro.runtime.dispatch` — :func:`execute_scenarios`, the one
  front door choosing serial / process-pool / fork / distributed
  execution.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    SimulationCheckpoint,
    checkpoint_size,
    load,
    restore,
    save,
    snapshot,
    state_digest,
)
from .runner import (
    CellResult,
    ParallelRunner,
    SweepTask,
    default_workers,
    grid_tasks,
    run_scenarios,
    seed_sweep_tasks,
)
from .scenarios import (
    ChurnSchedule,
    catastrophic,
    compose,
    correlated_region,
    flash_crowd,
    mass_failure,
    trickle,
)
from .forksweep import (
    CheckpointCache,
    ForkGroup,
    ForkPlan,
    default_cache_dir,
    fork_scenarios,
    plan_fork_sweep,
    run_fork_sweep,
)
from .store import (
    ResultStore,
    config_dict,
    config_from_dict,
    config_hash,
    git_revision,
    summary_digest,
)
from .cluster import (
    Coordinator,
    TaskSpec,
    Worker,
    WorkQueue,
    diff_stores,
    distributed_scenarios,
    merge_queue,
    open_queue,
    run_distributed_sweep,
)
from .dispatch import execute_scenarios

__all__ = [
    # checkpoint
    "CHECKPOINT_FORMAT",
    "SimulationCheckpoint",
    "snapshot",
    "restore",
    "save",
    "load",
    "state_digest",
    "checkpoint_size",
    # runner
    "ParallelRunner",
    "SweepTask",
    "CellResult",
    "run_scenarios",
    "seed_sweep_tasks",
    "grid_tasks",
    "default_workers",
    # forksweep
    "CheckpointCache",
    "ForkGroup",
    "ForkPlan",
    "default_cache_dir",
    "fork_scenarios",
    "plan_fork_sweep",
    "run_fork_sweep",
    # store
    "ResultStore",
    "config_dict",
    "config_from_dict",
    "config_hash",
    "git_revision",
    "summary_digest",
    # cluster
    "WorkQueue",
    "TaskSpec",
    "Worker",
    "Coordinator",
    "open_queue",
    "run_distributed_sweep",
    "distributed_scenarios",
    "merge_queue",
    "diff_stores",
    # dispatch
    "execute_scenarios",
    # scenarios
    "ChurnSchedule",
    "catastrophic",
    "correlated_region",
    "trickle",
    "flash_crowd",
    "mass_failure",
    "compose",
]
