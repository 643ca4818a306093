"""repro.runtime — parallel experiment execution, checkpoint/restore,
and persistent results.

The paper's evaluation is a grid of independent simulations; this
subsystem is the machinery that runs such grids at production scale:

* :mod:`repro.runtime.checkpoint` — bit-identical snapshot/restore of a
  full :class:`~repro.sim.engine.Simulation` (pause, fork, resume);
* :mod:`repro.runtime.runner` — :class:`ParallelRunner`, the local
  executor: fans sweeps across worker processes with crash isolation
  and progress reporting;
* :mod:`repro.runtime.store` — an append-only JSONL result store with
  run metadata (git revision, seeds, config hashes) and query helpers;
* :mod:`repro.runtime.scenarios` — composable churn schedules
  (catastrophic, correlated-region, trickle, flash crowds) opening
  workloads beyond the paper's fixed failure script;
* :mod:`repro.runtime.forksweep` — the fork plan: one Phase-1
  simulation per shared pre-failure prefix, cached on disk
  (:class:`CheckpointCache`), and :func:`bind_fork_plan` turning a grid
  into continuation tasks pinned to those checkpoints, with
  byte-identical results to cold-start sweeps;
* :mod:`repro.runtime.cluster` — the queue executor: a lease-based
  :class:`~repro.runtime.cluster.WorkQueue` over a shared directory,
  a :class:`Coordinator` that publishes a bound grid and collects it,
  worker daemons with heartbeats and bounded retries fetching fork
  points by digest, and shard merging that is byte-identical to a
  serial run;
* :mod:`repro.runtime.dispatch` — :func:`run_sweep` (plan × executor,
  the one way to run a grid), :class:`ExecOptions` and the strict
  :func:`execute_scenarios` fan-out on top of it.
"""

# ``repro.experiments`` first, and whole: its figure modules import
# ``repro.runtime.dispatch`` at module top while the modules below import
# ``repro.experiments.scenario``.  Entered from this side, the cycle only
# resolves if the experiments package (scenario first, then the figures,
# which pull dispatch and everything under it in through the partially
# initialised package) is complete before ``.runner`` asks for it.
from .. import experiments as _experiments  # noqa: F401  isort: skip

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
    grid_tasks,
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
    bind_fork_plan,
    default_cache_dir,
    plan_fork_sweep,
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
    merge_queue,
    open_queue,
)
from .dispatch import ExecOptions, execute_scenarios, run_sweep

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
    "seed_sweep_tasks",
    "grid_tasks",
    # forksweep
    "CheckpointCache",
    "ForkGroup",
    "ForkPlan",
    "default_cache_dir",
    "plan_fork_sweep",
    "bind_fork_plan",
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
    "merge_queue",
    "diff_stores",
    # dispatch
    "ExecOptions",
    "run_sweep",
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
