"""Phase-fork sweeps — fork-vs-cold wall-clock on a split ablation.

A Fig. 10b-style ablation (K = 4, SPLIT ∈ {basic, advanced}) crossed
with post-failure axes (failure fraction × observation window): every
cell of one split shares its Phase-1 convergence, so fork mode
simulates each prefix once, checkpoints it, and runs only the
continuations.  The benchmark asserts the two guarantees the
optimisation rests on:

* per-cell results are **byte-identical** between fork and cold mode;
* the fork sweep is >= 1.5x faster wall-clock at the reduced scale and
  above, and >= 1.25x at ``smoke`` scale.  A fork cycle (one pickle of
  the prefix, a checksummed read, one unpickle per cell) is ~50 ms of a
  ~5 s sweep there, so the smoke floor is not about checkpoint
  overhead: the 10-round prefix is simply a smaller share of each
  21-31-round cell, and two single-shot ~5 s walls on a shared box
  read 1.37-1.83x over six runs (median 1.63x).

Both modes run serially (``workers=1``): the speedup measured here is
algorithmic — Phase-1 rounds not simulated — not pool scheduling.
"""

import time

from repro.experiments.scenario import ScenarioConfig, fork_round
from repro.runtime.dispatch import run_sweep
from repro.runtime.forksweep import CheckpointCache, plan_fork_sweep
from repro.runtime.runner import ParallelRunner, grid_tasks
from repro.runtime.store import summarize_result
from repro.viz.tables import format_table

SPLITS = ("basic", "advanced")
FRACTIONS = (0.25, 0.5, 0.75)


def _ablation_tasks(preset):
    fr = preset.failure_round
    tasks = []
    for split in SPLITS:
        base = ScenarioConfig(
            width=preset.width,
            height=preset.height,
            replication=4,
            split=split,
            failure_round=fr,
            reinjection_round=None,
            total_rounds=fr + 11,
            metrics=("homogeneity",),
            seed=0,
        )
        tasks.extend(
            grid_tasks(
                base,
                {
                    "failure_fraction": FRACTIONS,
                    "total_rounds": (fr + 11, fr + 21),
                },
            )
        )
    # grid_tasks ids do not mention the split; qualify them.
    return [
        type(task)(task_id=f"split={task.config.split}/{task.task_id}", config=task.config)
        for task in tasks
    ]


def test_fork_vs_cold_split_ablation(benchmark, preset, emit, tmp_path):
    tasks = _ablation_tasks(preset)
    plan = plan_fork_sweep(tasks)
    assert len(tasks) >= 8
    assert len(plan.groups) == len(SPLITS)  # one shared prefix per split

    t0 = time.perf_counter()
    cold = ParallelRunner(workers=1).run(tasks)
    cold_s = time.perf_counter() - t0

    cache = CheckpointCache(tmp_path / "checkpoints")
    forked = benchmark.pedantic(
        run_sweep,
        args=(tasks,),
        kwargs={"fork": True, "executor": ParallelRunner(workers=1), "cache": cache},
        rounds=1,
        iterations=1,
    )
    fork_s = benchmark.stats.stats.total

    for cold_cell, fork_cell in zip(cold, forked):
        assert cold_cell.ok and fork_cell.ok, (cold_cell.error, fork_cell.error)
        assert fork_cell.forked_from is not None, fork_cell.task_id
        # Byte-identical: every series value, not just the summary.
        assert cold_cell.result.series == fork_cell.result.series
        assert cold_cell.result.n_alive == fork_cell.result.n_alive
        assert summarize_result(cold_cell.result) == summarize_result(
            fork_cell.result
        )

    rounds_saved = sum(
        fork_round(group.tasks[0].config) * (len(group.tasks) - 1)
        for group in plan.groups
    )
    speedup = cold_s / fork_s if fork_s else float("inf")
    floor = 1.5 if preset.n_nodes >= 512 else 1.25
    rows = [
        ["cold", f"{cold_s:.2f}", len(tasks), "-"],
        [
            "fork",
            f"{fork_s:.2f}",
            len(tasks),
            f"{len(plan.groups)} prefixes, {rounds_saved} rounds saved",
        ],
    ]
    emit(
        "forksweep",
        format_table(
            ["mode", "wall-clock (s)", "cells", "sharing"],
            rows,
            title=(
                f"Fork-vs-cold split ablation ({preset.name} scale, "
                f"K=4, splits={'/'.join(SPLITS)}): {speedup:.2f}x"
            ),
        ),
        data={"rows": rows, "speedup": speedup},
    )
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= floor, (
        f"fork mode only {speedup:.2f}x faster than cold (floor {floor}x); "
        f"cold={cold_s:.2f}s fork={fork_s:.2f}s"
    )
