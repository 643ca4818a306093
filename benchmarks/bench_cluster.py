"""Distributed sweeps — wall-clock scaling over cluster workers.

A reduced Fig. 10b-style ablation grid (K = 4, SPLIT ∈ {basic,
advanced} × failure fractions × seeds) is drained through a shared
work queue by 1, 2, and 4 local worker processes.  The benchmark
asserts the two claims the cluster subsystem makes:

* the merged run is **identical per cell** (config hash + summary
  digest) to the same grid run serially;
* the queue actually scales: > 1.5x wall-clock at 4 workers vs 1 at
  the reduced scale and above on a machine with >= 4 CPUs (at smoke
  scale, or on fewer cores, process startup dominates the 128-node
  cells and only a sanity floor of 1.0x is required).

Fork-mode prefix sharing is deliberately *off* here so the measured
speedup is pure queue/worker scaling, not checkpoint reuse
(``bench_forksweep`` measures that separately).
"""

import os
import time

from repro.experiments.scenario import ScenarioConfig
from repro.runtime.cluster import Coordinator, diff_stores
from repro.runtime.dispatch import run_sweep
from repro.runtime.runner import ParallelRunner, grid_tasks
from repro.runtime.store import ResultStore
from repro.viz.tables import format_table

SPLITS = ("basic", "advanced")
FRACTIONS = (0.25, 0.5)
SEEDS = (0, 1)
WORKER_COUNTS = (1, 2, 4)


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
            total_rounds=fr + 21,
            metrics=("homogeneity",),
        )
        tasks.extend(
            grid_tasks(base, {"failure_fraction": FRACTIONS, "seed": SEEDS})
        )
    return [
        type(task)(
            task_id=f"split={task.config.split}/{task.task_id}",
            config=task.config,
        )
        for task in tasks
    ]


def _timed_distributed(tasks, queue_path, store, workers):
    t0 = time.perf_counter()
    run_sweep(
        tasks,
        fork=False,
        executor=Coordinator(queue_path, workers=workers, lease_s=600.0, poll_s=0.05),
        store=store,
    )
    return time.perf_counter() - t0


def test_cluster_worker_scaling(benchmark, preset, emit, tmp_path):
    tasks = _ablation_tasks(preset)
    assert len(tasks) == len(SPLITS) * len(FRACTIONS) * len(SEEDS)

    serial = ResultStore(tmp_path / "serial.jsonl")
    t0 = time.perf_counter()
    cells = ParallelRunner(workers=1).run(tasks, store=serial, run_id="serial")
    serial_s = time.perf_counter() - t0
    assert all(cell.ok for cell in cells)

    wall = {}
    stores = {}
    for workers in WORKER_COUNTS:
        stores[workers] = ResultStore(tmp_path / f"dist-{workers}.jsonl")
        if workers == max(WORKER_COUNTS):
            benchmark.pedantic(
                _timed_distributed,
                args=(
                    tasks,
                    tmp_path / f"queue-{workers}",
                    stores[workers],
                    workers,
                ),
                rounds=1,
                iterations=1,
            )
            wall[workers] = benchmark.stats.stats.total
        else:
            wall[workers] = _timed_distributed(
                tasks, tmp_path / f"queue-{workers}", stores[workers], workers
            )

    # Correctness first: every worker count merges to the serial run.
    for workers in WORKER_COUNTS:
        diffs = diff_stores(serial, stores[workers], run_a="serial")
        assert diffs == [], (workers, diffs)

    speedup = wall[1] / wall[4] if wall[4] else float("inf")
    cpus = os.cpu_count() or 1
    # >1.5x is only physically possible with >=4 cores and cells heavy
    # enough to dwarf process startup (reduced scale and up); below
    # that the assertion degrades to "queue overhead does not blow up
    # wall-clock" (4 contending workers on 1 core measure ~0.9x).
    floor = 1.5 if (preset.n_nodes >= 512 and cpus >= 4) else 0.75
    rows = [["serial (in-process)", f"{serial_s:.2f}", "-"]]
    rows += [
        [f"{workers} worker(s)", f"{wall[workers]:.2f}",
         f"{wall[1] / wall[workers]:.2f}x"]
        for workers in WORKER_COUNTS
    ]
    emit(
        "cluster",
        format_table(
            ["mode", "wall-clock (s)", "vs 1 worker"],
            rows,
            title=(
                f"Distributed sweep scaling ({preset.name} scale, "
                f"{len(tasks)} cells, {cpus} CPUs): "
                f"{speedup:.2f}x at 4 workers"
            ),
        ),
        data={"rows": rows, "wall_s": wall, "serial_s": serial_s},
    )
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["speedup_4w"] = round(speedup, 3)
    assert speedup >= floor, (
        f"4 workers only {speedup:.2f}x faster than 1 (floor {floor}x); "
        f"walls={ {w: round(s, 2) for w, s in wall.items()} }"
    )
