"""Observability through the runtime: cell metrics propagation, digest
invariance with instrumentation on, store verification, and the obs /
queue-status / results CLI surfaces."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.obs import log as obs_log
from repro.obs import mem as obs_mem
from repro.obs import metrics as obs_metrics
from repro.obs import series as obs_series
from repro.obs import trace as obs_trace
from repro.runtime import checkpoint as ckpt
from repro.runtime.runner import ParallelRunner, SweepTask
from repro.runtime.store import ResultStore, summary_digest

WORKERS = 2


@pytest.fixture(autouse=True)
def obs_clean():
    yield
    obs_metrics.set_enabled(False)
    obs_metrics.registry().reset()
    obs_log.set_level("off")
    obs_log.set_events_path(None)
    obs.profiling.set_active(False)
    obs._RUN_DIR = None
    obs_trace.set_enabled(False)
    obs_trace.set_spans_path(None)
    obs_trace._STREAM.clear()
    obs_trace._CTX.set(None)
    obs_series.set_enabled(False)
    obs_series.set_series_path(None)
    obs_series._STREAM.clear()
    obs_series.reset_cell()
    obs_mem.set_enabled(False)
    obs_mem.reset()
    for var in (
        obs.ENV_LOG,
        obs.ENV_OBS_DIR,
        obs.ENV_PROFILE,
        obs_trace.ENV_CTX,
    ):
        os.environ.pop(var, None)


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=6,
        height=3,
        failure_round=3,
        reinjection_round=None,
        total_rounds=8,
        metrics=("homogeneity",),
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_digest(config: ScenarioConfig) -> str:
    sim, *_ = prepare_scenario(config)
    sim.run(config.total_rounds)
    return ckpt.state_digest(sim)


class TestTrajectoryInvariance:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_state_digest_identical_with_obs_enabled(self, tmp_path, engine):
        """Instrumentation is read-only: enabling metrics + debug
        logging + profiling must leave the trajectory bit-identical in
        both engines."""
        config = tiny_config(engine=engine)
        plain = run_digest(config)
        obs.configure(
            log_level="debug", dir=tmp_path, profile=True, export_env=False
        )
        instrumented = run_digest(config)
        assert instrumented == plain

    def test_summary_digest_identical_with_obs_enabled(self, tmp_path):
        store_a = ResultStore(tmp_path / "plain.jsonl")
        ParallelRunner(workers=1).run(
            [SweepTask(task_id="c", config=tiny_config())], store=store_a
        )
        obs.configure(dir=tmp_path / "run", export_env=False)
        store_b = ResultStore(tmp_path / "instrumented.jsonl")
        ParallelRunner(workers=1).run(
            [SweepTask(task_id="c", config=tiny_config())], store=store_b
        )
        digest_a = [summary_digest(c) for c in store_a.cells()]
        digest_b = [summary_digest(c) for c in store_b.cells()]
        assert digest_a == digest_b
        # The instrumented record carries the metrics section, the
        # plain one does not — and the digest ignores it by design.
        assert "metrics" in store_b.cells()[0]
        assert "metrics" not in store_a.cells()[0]


class TestCellMetricsPropagation:
    def test_parallel_children_flush_per_cell_metrics(self, tmp_path):
        """Metrics context propagates into ParallelRunner pool children:
        every cell comes back with its own snapshot and its own
        metrics.jsonl line tagged with the cell's task_id."""
        obs.configure(dir=tmp_path, log_level="debug")
        tasks = [
            SweepTask(task_id=f"cell-{seed}", config=tiny_config(seed=seed))
            for seed in range(3)
        ]
        cells = ParallelRunner(workers=WORKERS).run(tasks)
        assert len(cells) == 3
        for cell in cells:
            assert cell.metrics is not None
            assert cell.metrics == {"counters": cell.metrics["counters"]}
            assert cell.metrics["counters"]["rounds"] == 8
        lines = [
            json.loads(l)
            for l in (tmp_path / "obs" / "metrics.jsonl")
            .read_text()
            .splitlines()
        ]
        tagged = {l["ctx"]["task_id"] for l in lines}
        assert tagged == {"cell-0", "cell-1", "cell-2"}
        seeds = {l["ctx"]["seed"] for l in lines}
        assert seeds == {0, 1, 2}

    def test_cell_metrics_none_when_disabled(self):
        cells = ParallelRunner(workers=1).run(
            [SweepTask(task_id="c", config=tiny_config())]
        )
        assert cells[0].metrics is None

    def test_errored_cell_still_flushes_metrics(self, tmp_path):
        class Exploding(SweepTask):
            def run(self):
                obs_metrics.count("made.it", 1)
                raise RuntimeError("boom")

        obs.configure(dir=tmp_path, export_env=False)
        cells = ParallelRunner(workers=1).run(
            [Exploding(task_id="x", config=tiny_config())]
        )
        assert cells[0].status == "error"
        assert cells[0].metrics["counters"]["made.it"] == 1
        line = json.loads(
            (tmp_path / "obs" / "metrics.jsonl").read_text().splitlines()[0]
        )
        assert line["ctx"]["status"] == "error"


class TestStoreVerify:
    def _store_with_cells(self, tmp_path, n=2):
        store = ResultStore(tmp_path / "results.jsonl")
        tasks = [
            SweepTask(task_id=f"cell-{s}", config=tiny_config(seed=s))
            for s in range(n)
        ]
        ParallelRunner(workers=1).run(tasks, store=store)
        return store

    def test_clean_store_verifies_ok(self, tmp_path):
        store = self._store_with_cells(tmp_path)
        report = store.verify()
        assert report["ok"]
        assert report["runs"] == 1
        assert report["cells"] == 2
        assert report["cells_ok"] == 2
        assert not report["torn_tail"]
        assert report["problems"] == []

    def test_torn_tail_is_nonfatal(self, tmp_path):
        store = self._store_with_cells(tmp_path)
        with store.path.open("a") as fh:
            fh.write('{"kind": "cell", "half writ')
        report = store.verify()
        assert report["ok"]
        assert report["torn_tail"]
        assert any("torn" in p for p in report["problems"])

    def test_midfile_corruption_is_fatal(self, tmp_path):
        store = self._store_with_cells(tmp_path)
        lines = store.path.read_text().splitlines()
        lines.insert(1, '{"kind": "cell", "half writ')
        store.path.write_text("\n".join(lines) + "\n")
        report = store.verify()
        assert not report["ok"]
        assert any("mid-file" in p for p in report["problems"])

    def test_config_hash_mismatch_is_fatal(self, tmp_path):
        store = self._store_with_cells(tmp_path, n=1)
        lines = store.path.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["kind"] == "cell"
        record["config_hash"] = "0" * 16
        lines[1] = json.dumps(record, sort_keys=True)
        store.path.write_text("\n".join(lines) + "\n")
        report = store.verify()
        assert not report["ok"]
        assert any("config_hash" in p for p in report["problems"])

    def test_duplicates_counted_but_ok(self, tmp_path):
        store = self._store_with_cells(tmp_path, n=1)
        lines = store.path.read_text().splitlines()
        store.path.write_text("\n".join(lines + [lines[1]]) + "\n")
        report = store.verify()
        assert report["ok"]
        assert report["duplicates"] == 1

    def test_missing_file(self, tmp_path):
        report = ResultStore(tmp_path / "void.jsonl").verify()
        assert not report["ok"]


class TestResultsVerifyCLI:
    def test_verify_ok_exit_zero(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "results.jsonl")
        ParallelRunner(workers=1).run(
            [SweepTask(task_id="c", config=tiny_config())], store=store
        )
        code = cli_main(["results", str(store.path), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out

    def test_verify_corrupt_exit_one(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        path.write_text('{"broken\n{"kind": "run", "run_id": "r"}\n')
        code = cli_main(["results", str(path), "--verify"])
        assert code == 1
        assert "verify: FAILED" in capsys.readouterr().out


class TestObsCLI:
    def _instrumented_run(self, tmp_path):
        obs.configure(dir=tmp_path / "run", log_level="debug", export_env=False)
        ParallelRunner(workers=1).run(
            [SweepTask(task_id="c", config=tiny_config())]
        )
        return tmp_path / "run"

    def test_obs_report_renders(self, tmp_path, capsys):
        run_dir = self._instrumented_run(tmp_path)
        assert cli_main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Spans" in out and "Kernels" in out
        assert "Counters" in out

    def test_obs_tail_renders_both_streams(self, tmp_path, capsys):
        run_dir = self._instrumented_run(tmp_path)
        assert cli_main(["obs", "tail", str(run_dir), "--lines", "5"]) == 0
        assert "cell.done" in capsys.readouterr().out
        assert (
            cli_main(
                ["obs", "tail", str(run_dir), "--stream", "metrics"]
            )
            == 0
        )
        assert "metrics" in capsys.readouterr().out


class TestQueueStatusCLI:
    def test_status_shows_heartbeat_age_and_attempts(self, tmp_path, capsys):
        from repro.runtime.cluster.queue import TaskSpec, open_queue

        queue = open_queue(tmp_path / "q")
        queue.publish(
            [
                TaskSpec(task_id="cell-0", config=tiny_config(seed=0)),
                TaskSpec(task_id="cell-1", config=tiny_config(seed=1)),
            ]
        )
        lease = queue.claim("w1")
        assert lease is not None
        queue.register_worker(
            "w1",
            {
                "host": "h",
                "pid": 1,
                "started": time.time() - 30,
                "last_seen": time.time() - 5,
                "cells_ok": 1,
                "cells_error": 0,
                "cells_lost": 0,
            },
        )
        assert cli_main(["queue", "status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "worker w1: heartbeat" in out
        assert "ago" in out
        assert "1 ok" in out
        assert f"working on {lease.task.task_id} (attempt 1)" in out

    def test_status_flags_unregistered_lease_holder(self, tmp_path, capsys):
        from repro.runtime.cluster.queue import TaskSpec, open_queue

        queue = open_queue(tmp_path / "q")
        queue.publish([TaskSpec(task_id="cell-0", config=tiny_config())])
        assert queue.claim("ghost") is not None
        cli_main(["queue", "status", str(tmp_path / "q")])
        out = capsys.readouterr().out
        assert "worker ghost: unregistered" in out
