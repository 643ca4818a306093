"""Parallel runner: serial equivalence, crash isolation, grids."""

from __future__ import annotations

import pytest

from repro.errors import RunnerError
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweep import run_seed_sweep
from repro.runtime.dispatch import ExecOptions, execute_scenarios
from repro.runtime.runner import (
    CellResult,
    ParallelRunner,
    SweepTask,
    grid_tasks,
    seed_sweep_tasks,
)

WORKERS = 2


def run_scenarios(configs, workers=1):
    """The strict fan-out on the local executor."""
    return execute_scenarios(configs, ExecOptions(workers=workers))


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=6,
        height=3,
        failure_round=4,
        reinjection_round=None,
        total_rounds=14,
        metrics=("homogeneity",),
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class ExplodingTask(SweepTask):
    """A task whose worker body always raises (crash-isolation probe)."""

    def run(self):
        raise RuntimeError("worker exploded on purpose")


class TestEquivalence:
    def test_parallel_matches_serial_per_cell(self):
        """--workers N must produce results identical (per-cell, same
        seeds) to the serial path — the PR's acceptance criterion."""
        configs = [tiny_config(seed=seed) for seed in range(4)]
        serial = run_scenarios(configs, workers=1)
        parallel = run_scenarios(configs, workers=4)
        for ours, theirs in zip(serial, parallel):
            assert ours.series == theirs.series
            assert ours.reliability == theirs.reliability
            assert ours.reshaping_time == theirs.reshaping_time
            assert ours.n_alive == theirs.n_alive

    def test_seed_sweep_parallel_matches_serial(self):
        config = tiny_config()
        seeds = [0, 1, 2]
        serial = run_seed_sweep(config, seeds)
        parallel = run_seed_sweep(config, seeds, ExecOptions(workers=WORKERS))
        assert serial.mean_series == parallel.mean_series
        assert serial.reshaping == parallel.reshaping
        assert serial.reliability == parallel.reliability

    def test_results_keep_input_order(self):
        configs = [tiny_config(seed=seed) for seed in (5, 1, 3)]
        results = run_scenarios(configs, workers=WORKERS)
        assert [r.config.seed for r in results] == [5, 1, 3]


class TestCrashIsolation:
    def test_worker_failure_records_errored_cell(self):
        """One exploding cell must not kill the sweep: the others
        complete and the failure is recorded with its traceback."""
        tasks = [
            SweepTask("good-0", tiny_config(seed=0)),
            ExplodingTask("bad", tiny_config(seed=1)),
            SweepTask("good-1", tiny_config(seed=2)),
        ]
        cells = ParallelRunner(workers=WORKERS).run(tasks)
        by_id = {cell.task_id: cell for cell in cells}
        assert by_id["good-0"].ok and by_id["good-1"].ok
        assert not by_id["bad"].ok
        assert "worker exploded on purpose" in by_id["bad"].error
        assert by_id["bad"].result is None

    def test_serial_path_isolates_crashes_too(self):
        tasks = [
            ExplodingTask("bad", tiny_config(seed=1)),
            SweepTask("good", tiny_config(seed=0)),
        ]
        cells = ParallelRunner(workers=1).run(tasks)
        assert [cell.ok for cell in cells] == [False, True]

    def test_run_scenarios_raises_on_failure(self, monkeypatch):
        import repro.runtime.runner as runner_mod

        def explode(config):
            raise RuntimeError("cell blew up")

        monkeypatch.setattr(runner_mod, "run_scenario", explode)
        with pytest.raises(RunnerError, match="cell blew up"):
            run_scenarios([tiny_config()], workers=1)


class TestProgressAndTasks:
    def test_progress_callback_sees_every_cell(self):
        seen = []

        def progress(done: int, total: int, cell: CellResult) -> None:
            seen.append((done, total, cell.task_id, cell.ok))

        configs = [tiny_config(seed=seed) for seed in range(3)]
        tasks = seed_sweep_tasks(tiny_config(), [0, 1, 2])
        ParallelRunner(workers=1, progress=progress).run(tasks)
        assert [done for done, *_ in seen] == [1, 2, 3]
        assert all(total == 3 for _, total, *_ in seen)
        assert len(configs) == 3

    def test_duplicate_task_ids_rejected(self):
        tasks = [
            SweepTask("same", tiny_config(seed=0)),
            SweepTask("same", tiny_config(seed=1)),
        ]
        with pytest.raises(RunnerError, match="duplicate"):
            ParallelRunner(workers=1).run(tasks)

    def test_grid_tasks_cartesian_product(self):
        tasks = grid_tasks(
            tiny_config(), {"replication": (2, 4), "seed": (0, 1, 2)}
        )
        assert len(tasks) == 6
        ids = {task.task_id for task in tasks}
        assert "replication=2/seed=0" in ids
        assert "replication=4/seed=2" in ids
        configs = {(task.config.replication, task.config.seed) for task in tasks}
        assert configs == {(k, s) for k in (2, 4) for s in (0, 1, 2)}

    def test_grid_tasks_empty_axes(self):
        tasks = grid_tasks(tiny_config(), {})
        assert len(tasks) == 1 and tasks[0].task_id == "base"

    def test_seed_sweep_tasks_replace_seed(self):
        tasks = seed_sweep_tasks(tiny_config(seed=99), [7, 8])
        assert [task.config.seed for task in tasks] == [7, 8]
        assert [task.task_id for task in tasks] == ["seed-7", "seed-8"]
