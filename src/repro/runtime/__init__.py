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

Every name below resolves on first access, so a process imports only
the executor it runs: the inline sweep never loads the process pool or
the cluster package.  The runtime depends on
:mod:`repro.experiments.scenario`, never on the experiments package
whole.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".checkpoint": (
            "CHECKPOINT_FORMAT",
            "SimulationCheckpoint",
            "snapshot",
            "restore",
            "save",
            "load",
            "state_digest",
            "checkpoint_size",
        ),
        ".runner": ("ParallelRunner", "SweepTask", "CellResult", "seed_sweep_tasks", "grid_tasks"),
        ".forksweep": (
            "CheckpointCache",
            "ForkGroup",
            "ForkPlan",
            "default_cache_dir",
            "plan_fork_sweep",
            "bind_fork_plan",
        ),
        ".store": (
            "ResultStore",
            "config_dict",
            "config_from_dict",
            "config_hash",
            "git_revision",
            "summary_digest",
        ),
        ".cluster": (
            "WorkQueue",
            "TaskSpec",
            "Worker",
            "Coordinator",
            "open_queue",
            "merge_queue",
            "diff_stores",
        ),
        ".dispatch": ("ExecOptions", "run_sweep", "execute_scenarios"),
        ".scenarios": (
            "ChurnSchedule",
            "catastrophic",
            "correlated_region",
            "trickle",
            "flash_crowd",
            "mass_failure",
            "compose",
        ),
    },
)
