"""CLI surface of the cluster subsystem: ``repro sweep --queue``,
``repro worker``, ``repro queue status/requeue/merge``,
``repro results --diff``, ``repro checkpoints gc --queue``."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.runtime.cluster import open_queue
from repro.runtime.store import ResultStore

SWEEP_ARGS = ["--scale", "smoke", "--ks", "2", "--seeds", "2"]


class TestParser:
    def test_sweep_distributed_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--queue",
                "q",
                "--no-join",
                "--lease",
                "45",
                "--max-attempts",
                "5",
            ]
        )
        assert args.queue == "q" and args.no_join and not args.fork
        assert args.lease == 45.0 and args.max_attempts == 5

    def test_worker_flags(self):
        args = build_parser().parse_args(
            ["worker", "--queue", "q", "--max-cells", "3", "--drain"]
        )
        assert args.queue == "q" and args.max_cells == 3 and args.drain

    def test_queue_actions(self):
        args = build_parser().parse_args(
            ["queue", "merge", "q", "--store", "out.jsonl"]
        )
        assert args.action == "merge" and args.queue == "q"
        args = build_parser().parse_args(
            ["queue", "requeue", "q", "--task", "a", "--task", "b", "--failed"]
        )
        assert args.task == ["a", "b"] and args.failed

    def test_checkpoints_gc_queue_flag(self):
        args = build_parser().parse_args(
            ["checkpoints", "gc", "--queue", "q1", "--queue", "q2"]
        )
        assert args.queue == ["q1", "q2"]

    def test_results_diff_flag(self):
        args = build_parser().parse_args(["results", "a.jsonl", "--diff", "b"])
        assert args.diff == "b"

    def test_run_queue_flag(self):
        assert build_parser().parse_args(
            ["run", "fig1", "--queue", "q"]
        ).queue == "q"


class TestDistributedSweepFlow:
    def test_publish_workers_merge_diff(self, tmp_path, monkeypatch, capsys):
        """The whole CLI lifecycle, as the CI smoke job runs it:
        publish --no-join, drain with two worker invocations, merge,
        and diff against a serial sweep of the same grid."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        queue_path = str(tmp_path / "q")

        rc = main(
            ["sweep", *SWEEP_ARGS, "--queue", queue_path, "--no-join"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "published 2 cells" in out
        assert not open_queue(queue_path).is_complete()

        assert main(["queue", "status", queue_path]) == 0
        assert "2 pending" in capsys.readouterr().out

        # Two workers drain the queue (sequential here; the recovery
        # and exec tests cover true concurrency).
        for worker_id in ("w1", "w2"):
            rc = main(
                ["worker", "--queue", queue_path, "--worker-id", worker_id,
                 "--max-cells", "1", "--poll", "0.02"]
            )
            assert rc == 0
        assert open_queue(queue_path).is_complete()

        merged_path = str(tmp_path / "merged.jsonl")
        assert main(
            ["queue", "merge", queue_path, "--store", merged_path]
        ) == 0
        assert "merged 2 cells" in capsys.readouterr().out

        serial_path = str(tmp_path / "serial.jsonl")
        assert main(["sweep", *SWEEP_ARGS, "--store", serial_path]) == 0
        capsys.readouterr()
        assert main(["results", merged_path, "--diff", serial_path]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_distributed_join_inline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        store_path = str(tmp_path / "dist.jsonl")
        rc = main(
            ["sweep", *SWEEP_ARGS, "--queue", str(tmp_path / "q"),
             "--workers", "1", "--store", store_path]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep over 2 cells" in out
        assert "0.8" in out  # the table carries the cells' summaries
        store = ResultStore(store_path)
        cells = store.cells(status="ok")
        assert len(cells) == 2
        # No --fork: cold cells, and the run header says so.
        assert all(cell["forked_from"] is None for cell in cells)
        [run] = store.runs()
        assert run["metadata"]["fork"] is False

    def test_distributed_flag_is_gone(self, capsys):
        """``--queue`` alone selects the queue, as on ``run`` and
        ``eval``; the redundant switch was removed, not kept."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *SWEEP_ARGS, "--distributed", "--queue", "q"])
        assert exc.value.code == 2
        assert "--distributed" in capsys.readouterr().err

    def test_worker_drain_on_empty_queue_exits(self, tmp_path, capsys):
        rc = main(
            ["worker", "--queue", str(tmp_path / "q"), "--drain",
             "--poll", "0.01"]
        )
        assert rc == 0
        assert "0 ok" in capsys.readouterr().out

    def test_worker_restores_signal_handlers(self, tmp_path):
        """The graceful-drain handlers must not outlive the worker: a
        leaked SIGTERM handler is inherited by every process forked
        afterwards, which breaks multiprocessing.Pool.terminate() (the
        idle workers ignore the TERM and pool shutdown hangs)."""
        import signal

        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        main(["worker", "--queue", str(tmp_path / "q"), "--drain",
              "--poll", "0.01"])
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int


class TestCheckpointGcProtection:
    def test_gc_queue_flag_spares_referenced_prefixes(self, tmp_path, capsys):
        from repro.experiments.scenario import ScenarioConfig
        from repro.runtime.cluster import Coordinator
        from repro.runtime.dispatch import run_sweep
        from repro.runtime.forksweep import CheckpointCache
        from repro.runtime.runner import grid_tasks

        config = ScenarioConfig(
            width=6, height=3, failure_round=4, reinjection_round=None,
            total_rounds=14, metrics=("homogeneity",),
        )
        queue_path = tmp_path / "q"
        queue = open_queue(queue_path)
        run_sweep(
            grid_tasks(config, {"failure_fraction": (0.25, 0.5)}),
            fork=True,
            executor=Coordinator(queue, workers=1, join=False),
        )
        cache_dir = str(queue.cache_root())
        assert len(CheckpointCache(cache_dir).entries()) == 1
        rc = main(
            ["checkpoints", "gc", "--dir", cache_dir, "--queue",
             str(queue_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "removed 0 checkpoint(s)" in out
        assert "protected 1 prefix" in out
        assert len(CheckpointCache(cache_dir).entries()) == 1


class TestQueueDiagnostics:
    def test_status_on_a_regular_file_is_a_clean_error(self, tmp_path, capsys):
        stale = tmp_path / "grid.sqlite"
        stale.write_bytes(b"SQLite format 3\0")
        assert main(["queue", "status", str(stale)]) == 1
        err = capsys.readouterr().err
        assert str(stale) in err and "directories" in err

    def test_status_unpublished_queue(self, tmp_path, capsys):
        assert main(["queue", "status", str(tmp_path / "q")]) == 1
        assert "no published grid" in capsys.readouterr().out

    def test_merge_needs_store(self, tmp_path, capsys):
        assert main(["queue", "merge", str(tmp_path / "q")]) == 2
        assert "--store" in capsys.readouterr().err

    def test_merge_unpublished_queue_errors(self, tmp_path, capsys):
        rc = main(
            ["queue", "merge", str(tmp_path / "q"), "--store",
             str(tmp_path / "out.jsonl")]
        )
        assert rc == 1
        assert "no published grid" in capsys.readouterr().err

    def test_results_diff_detects_divergence(self, tmp_path, capsys):
        from repro.experiments.scenario import ScenarioConfig

        config = ScenarioConfig(
            width=6, height=3, failure_round=4, reinjection_round=None,
            total_rounds=14, metrics=("homogeneity",),
        )
        a = ResultStore(tmp_path / "a.jsonl")
        a.open_run(run_id="r")
        a.append_cell("r", "cell", config, status="ok")
        b = ResultStore(tmp_path / "b.jsonl")
        b.open_run(run_id="r")
        b.append_cell("r", "cell", config, status="error", error="boom")
        rc = main(
            ["results", str(a.path), "--diff", str(b.path)]
        )
        assert rc == 1
        assert "differ" in capsys.readouterr().out
