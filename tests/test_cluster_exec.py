"""End-to-end cluster execution: coordinator, workers, merge, and the
load-bearing guarantee — a distributed sweep's merged store is
identical, cell for cell, to the same grid run serially."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError, RunnerError
from repro.experiments.scenario import ScenarioConfig
from repro.runtime.cluster import (
    Coordinator,
    Worker,
    collect_cells,
    diff_stores,
    merge_queue,
    merged_records,
    open_queue,
)
from repro.runtime.dispatch import ExecOptions, execute_scenarios, run_sweep
from repro.runtime.forksweep import CheckpointCache
from repro.runtime.runner import (
    ParallelRunner,
    collect_scenario_results,
    grid_tasks,
    scenario_tasks,
)
from repro.runtime.store import ResultStore


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=5,
        reinjection_round=12,
        total_rounds=16,
        metrics=("homogeneity",),
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def ablation_grid():
    """Four cells sharing one pre-failure prefix (post-failure axes
    only) — the shape distributed fork-shipping is built for."""
    return grid_tasks(
        small_config(),
        {"failure_fraction": (0.25, 0.5), "reinjection_round": (12, None)},
    )


def serial_store(tmp_path, tasks, name="serial.jsonl"):
    store = ResultStore(tmp_path / name)
    ParallelRunner(workers=1).run(tasks, store=store, run_id="serial")
    return store


def publish_forked(queue, tasks, run_id=None, **queue_options):
    """Bind ``tasks`` to their fork points and publish them, without
    draining; returns the coordinator (its ``manifest`` is the queue's)."""
    coordinator = Coordinator(queue, workers=1, join=False, **queue_options)
    run_sweep(tasks, fork=True, executor=coordinator, run_id=run_id)
    return coordinator


def drain_with(queue, *worker_ids, max_cells=None):
    stats = []
    for i, worker_id in enumerate(worker_ids):
        last = i == len(worker_ids) - 1
        worker = Worker(queue, worker_id=worker_id, poll_s=0.02)
        stats.append(
            worker.run(max_cells=None if last else max_cells, drain=last)
        )
    return stats


class TestCoordinator:
    def test_publish_plans_forks_and_ships_one_prefix(self, tmp_path):
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, ablation_grid())
        specs = queue.tasks()
        assert {spec.kind for spec in specs} == {"fork"}
        assert len({spec.prefix_hash for spec in specs}) == 1
        assert all(spec.forked_digest for spec in specs)
        # Exactly one checkpoint was published into the shared cache.
        cache = CheckpointCache(queue.cache_root())
        [entry] = cache.entries()
        assert entry["state_digest"] == specs[0].forked_digest

    def test_unforkable_cells_published_cold(self, tmp_path):
        queue = open_queue(tmp_path / "q")
        tasks = grid_tasks(
            small_config(failure_round=None, reinjection_round=None),
            {"seed": (0, 1)},
        )
        publish_forked(queue, tasks)
        assert {spec.kind for spec in queue.tasks()} == {"cold"}

    def test_join_skips_prefix_recompute(self, tmp_path):
        """The coordinator itself never plans: publishing into a queue
        that already holds the grid is a pure join, whatever became of
        the cache."""
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, ablation_grid(), run_id="r1")
        cache = CheckpointCache(queue.cache_root())
        cache.gc()  # joiner must not need (or rebuild) the cache
        manifest = Coordinator(queue, workers=1).publish(ablation_grid())
        assert manifest["run_id"] == "r1"
        assert cache.entries() == []  # publish was a pure join
        assert {spec.kind for spec in queue.tasks()} == {"fork"}

    def test_non_default_cache_is_pinned_in_the_manifest(self, tmp_path):
        queue = open_queue(tmp_path / "q")
        cache = CheckpointCache(tmp_path / "elsewhere")
        run_sweep(
            ablation_grid(),
            fork=True,
            executor=Coordinator(queue, workers=1, join=False),
            cache=cache,
        )
        assert queue.manifest()["cache_root"] == str(cache.root)
        assert queue.cache_root() == cache.root
        assert len(cache.entries()) == 1


class TestDistributedEqualsSerial:
    def test_two_workers_merge_identical_to_serial(self, tmp_path):
        """The acceptance bar: 2+ workers, one queue, merged run equals
        the serial run per cell (config hash + summary digest)."""
        tasks = ablation_grid()
        serial = serial_store(tmp_path, tasks)

        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks, lease_s=60)
        stats = drain_with(queue, "w1", "w2", max_cells=2)
        assert sum(s.cells_ok for s in stats) == 4
        assert all(s.cells_ok > 0 for s in stats)  # both actually worked

        merged = ResultStore(tmp_path / "merged.jsonl")
        report = merge_queue(queue, merged)
        assert report.unique_cells == 4 and not report.missing
        assert diff_stores(serial, merged, run_a="serial") == []
        # Every distributed cell forked from the shipped checkpoint.
        assert all(
            record["forked_from"]
            for record in merged.cells(run_id=report.run_id)
        )

    def test_merge_is_idempotent(self, tmp_path):
        tasks = ablation_grid()
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks)
        drain_with(queue, "w1")
        merged = ResultStore(tmp_path / "merged.jsonl")
        first = merge_queue(queue, merged)
        again = merge_queue(queue, merged)
        assert first.appended == 4
        assert again.appended == 0
        assert len(merged.cells(run_id=first.run_id)) == 4

    def test_duplicate_records_deduped_deterministically(self, tmp_path):
        """An expired-but-alive worker double-executes a cell: both
        records land in shards, the merge keeps exactly one, and the
        kept summary matches the serial run (determinism means the
        twins agree anyway)."""
        tasks = ablation_grid()
        serial = serial_store(tmp_path, tasks)
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks, lease_s=0.01)
        # Worker A claims and executes a cell whose lease has long
        # expired by the time it finishes; worker B re-executes it.
        drain_with(queue, "wa", "wb")
        raw = list(queue.cell_records())
        records = merged_records(queue)
        assert len(records) == 4
        assert len(raw) >= 4  # duplicates allowed, dedupe mandatory
        merged = ResultStore(tmp_path / "merged.jsonl")
        report = merge_queue(queue, merged)
        assert report.unique_cells == 4
        assert diff_stores(serial, merged, run_a="serial") == []


class TestRunDistributedSweep:
    def test_publish_only_then_external_drain(self, tmp_path):
        tasks = ablation_grid()
        queue = open_queue(tmp_path / "q")
        coordinator = Coordinator(queue, workers=1, join=False)
        assert coordinator.run(tasks) == []
        assert coordinator.manifest["n_tasks"] == 4
        assert not queue.is_complete()
        drain_with(queue, "external")
        assert queue.is_complete()

    def test_join_drains_and_merges(self, tmp_path):
        tasks = ablation_grid()
        store = ResultStore(tmp_path / "merged.jsonl")
        cells = run_sweep(
            tasks,
            fork=True,
            executor=Coordinator(tmp_path / "q", workers=1),
            store=store,
            run_id="dist-run",
        )
        assert [cell.task_id for cell in cells] == [t.task_id for t in tasks]
        assert all(cell.ok and cell.forked_from for cell in cells)
        assert store.completed("dist-run") == {t.task_id for t in tasks}

    def test_collect_cells_requires_drained_queue(self, tmp_path):
        tasks = ablation_grid()
        queue = open_queue(tmp_path / "q")
        Coordinator(queue, workers=1, join=False).run(tasks)
        with pytest.raises(ClusterError, match="no record"):
            collect_cells(queue, tasks)


def queue_scenarios(configs, queue):
    return execute_scenarios(configs, ExecOptions(queue=str(queue)))


class TestDistributedScenarios:
    def test_full_results_identical_to_serial(self, tmp_path):
        configs = [
            small_config(seed=seed, failure_fraction=fraction)
            for seed in (0, 1)
            for fraction in (0.25, 0.5)
        ]
        results = queue_scenarios(configs, tmp_path / "q")
        serial = execute_scenarios(configs)
        for dist, cold in zip(results, serial):
            assert dist.series == cold.series
            assert dist.reliability == cold.reliability
            assert dist.reshaping_time == cold.reshaping_time

    def test_errored_cell_surfaces_as_runner_error(self, tmp_path):
        # An un-runnable cell: publish a grid, then fail it via
        # exhaustion (a tiny lease, one attempt, and a dead claim).
        import time

        tasks = scenario_tasks([small_config(seed=0)])
        queue = open_queue(tmp_path / "q")
        Coordinator(
            queue, workers=1, lease_s=0.01, max_attempts=1, payloads=True
        ).publish(tasks)
        queue.claim("zombie")
        time.sleep(0.05)
        drain_with(queue, "reaper")  # retires the cell as an error
        with pytest.raises(RunnerError, match="sweep cells failed"):
            collect_scenario_results(collect_cells(queue, tasks))


class TestDistributedScenariosGuards:
    def test_identical_twin_configs_both_get_results(self, tmp_path):
        """Two tasks with byte-identical configs dedupe to one merged
        record; both callers still get (the same) result back."""
        config = small_config(seed=0)
        results = queue_scenarios([config, config], tmp_path / "q")
        assert len(results) == 2
        assert results[0].series == results[1].series

    def test_joining_payload_less_queue_refused(self, tmp_path):
        """A run that needs full results, joining a grid someone
        published without payloads, must refuse, not hand back None
        results."""
        configs = [small_config(seed=0)]
        queue = open_queue(tmp_path / "q")
        Coordinator(queue, workers=1, payloads=False).run(scenario_tasks(configs))
        with pytest.raises(ClusterError, match="without result payloads"):
            queue_scenarios(configs, queue.path)


class TestDispatch:
    def test_execute_scenarios_modes_agree(self, tmp_path):
        configs = [small_config(seed=0), small_config(seed=1)]
        serial = execute_scenarios(configs)
        queued = execute_scenarios(
            configs, ExecOptions(workers=1, queue=str(tmp_path / "q"))
        )
        assert [r.reliability for r in serial] == [
            r.reliability for r in queued
        ]
        assert [r.series for r in serial] == [r.series for r in queued]
