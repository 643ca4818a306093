"""Failure recovery: dead workers lose their cells, not the run.

Covers the satellite checklist explicitly: a worker killed mid-cell
has its lease expire and the cell requeued; the retry budget is
honored; and the merged run after the crash equals the serial run's
digests.  Also: checkpoint gc must not delete prefixes referenced by a
live queue.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.runtime.cluster import (
    Coordinator,
    Worker,
    diff_stores,
    merge_queue,
    open_queue,
)
from repro.runtime.dispatch import run_sweep
from repro.runtime.forksweep import CheckpointCache
from repro.runtime.runner import ParallelRunner, grid_tasks
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
    return grid_tasks(
        small_config(),
        {"failure_fraction": (0.25, 0.5), "reinjection_round": (12, None)},
    )


def publish_forked(queue, tasks, **queue_options):
    """Publish ``tasks`` bound to their fork points (prefixes simulated
    and parked in the queue's cache), without draining."""
    run_sweep(
        tasks,
        fork=True,
        executor=Coordinator(queue, workers=1, join=False, **queue_options),
    )


def worker_process(queue_path, worker_id, *extra):
    """A real ``repro worker`` process against ``queue_path``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(
        env.get("PYTHONPATH")
    ) + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            str(queue_path),
            "--worker-id",
            worker_id,
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestLeaseRecovery:
    def test_dead_worker_cell_requeued_and_run_equals_serial(self, tmp_path):
        """A worker claims a cell and dies silently (no heartbeat, no
        completion).  After lease expiry a live worker re-claims it at
        attempt 2, the queue completes, and the merged store is
        digest-identical to the serial run."""
        tasks = ablation_grid()
        serial = ResultStore(tmp_path / "serial.jsonl")
        ParallelRunner(workers=1).run(tasks, store=serial, run_id="serial")

        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks, lease_s=0.2)
        doomed = queue.claim("dead-worker")
        assert doomed is not None and doomed.attempt == 1
        time.sleep(0.3)  # lease expires, nobody heartbeats

        Worker(queue, worker_id="survivor", poll_s=0.02).run()
        assert queue.is_complete()
        reclaimed = [
            record
            for record in queue.cell_records()
            if record["task_id"] == doomed.task.task_id
        ]
        assert reclaimed and all(
            record["worker"] == "survivor" for record in reclaimed
        )

        merged = ResultStore(tmp_path / "merged.jsonl")
        report = merge_queue(queue, merged)
        assert not report.missing and report.errors == 0
        assert diff_stores(serial, merged, run_a="serial") == []

    def test_retry_budget_honored(self, tmp_path):
        """max_attempts claims, all abandoned -> the cell is retired as
        an error with the attempt history, and the queue completes."""
        tasks = ablation_grid()[:1]
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks, lease_s=0.05, max_attempts=3)
        for attempt in range(1, 4):
            lease = queue.claim(f"zombie-{attempt}")
            assert lease is not None and lease.attempt == attempt
            time.sleep(0.1)
        # Budget spent: nothing claimable, the cell retires as error.
        assert queue.claim("late") is None
        assert queue.is_complete()
        [record] = list(queue.cell_records())
        assert record["status"] == "error"
        assert "3 attempts" in record["error"]

    def test_sigkilled_worker_process_mid_cell(self, tmp_path):
        """A real worker *process* is SIGKILLed while it owns a lease;
        the cell is re-offered after expiry and the merged result still
        equals serial."""
        tasks = ablation_grid()
        serial = ResultStore(tmp_path / "serial.jsonl")
        ParallelRunner(workers=1).run(tasks, store=serial, run_id="serial")

        queue_path = tmp_path / "q"
        queue = open_queue(queue_path)
        publish_forked(queue, tasks, lease_s=0.5)

        proc = worker_process(queue_path, "victim")
        try:
            # Wait until the victim holds at least one lease...
            deadline = time.time() + 30
            claims_dir = queue_path / "claims"
            while time.time() < deadline:
                if any(claims_dir.glob("*@*")):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("worker never claimed a cell")
        finally:
            # ... and kill it dead, mid-cell.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        assert not queue.is_complete()
        Worker(queue, worker_id="survivor", poll_s=0.05).run()
        assert queue.is_complete()

        merged = ResultStore(tmp_path / "merged.jsonl")
        report = merge_queue(queue, merged)
        assert not report.missing and report.errors == 0
        assert diff_stores(serial, merged, run_a="serial") == []

    def test_two_workers_sharing_one_worker_id(self, tmp_path):
        """ROADMAP 6(b), duplicate worker ids: two concurrent worker
        processes started with the same ``--worker-id`` append to one
        shard and rewrite one registration file, and still every cell
        is claimed once and the merged store equals the serial run."""
        tasks = ablation_grid()
        serial = ResultStore(tmp_path / "serial.jsonl")
        ParallelRunner(workers=1).run(tasks, store=serial, run_id="serial")

        queue_path = tmp_path / "q"
        queue = open_queue(queue_path)
        publish_forked(queue, tasks, lease_s=60)
        twins = [
            worker_process(queue_path, "twin", "--poll", "0.02")
            for _ in range(2)
        ]
        assert [proc.wait(timeout=120) for proc in twins] == [0, 0]

        assert queue.is_complete()
        assert list(queue.workers_seen()) == ["twin"]
        records = list(queue.cell_records())
        assert sorted(r["task_id"] for r in records) == sorted(
            t.task_id for t in tasks
        )
        merged = ResultStore(tmp_path / "merged.jsonl")
        report = merge_queue(queue, merged)
        assert not report.missing and report.errors == 0
        assert diff_stores(serial, merged, run_a="serial") == []

    def test_graceful_stop_finishes_current_cell(self, tmp_path):
        import threading

        tasks = ablation_grid()
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks)
        stop = threading.Event()
        stop.set()  # requested before the loop even starts
        stats = Worker(queue, worker_id="w", poll_s=0.02).run(stop=stop)
        assert stats.cells == 0
        assert not queue.is_complete()  # nothing lost, nothing leaked
        assert queue.status()["leased"] == 0


class TestGcProtection:
    def test_gc_spares_prefixes_referenced_by_live_queue(self, tmp_path):
        """`repro checkpoints gc` on a shared cache must not delete the
        fork points a live queue's unfinished cells still need."""
        tasks = ablation_grid()
        queue = open_queue(tmp_path / "q")
        publish_forked(queue, tasks, lease_s=60)
        queue.claim("busy-worker")  # live lease on a fork cell
        cache = CheckpointCache(queue.cache_root())
        assert len(cache.entries()) == 1

        protected = queue.referenced_prefixes()
        assert protected
        removed = cache.gc(protect=protected)
        assert removed == []
        assert len(cache.entries()) == 1

        # Drain the queue (releasing the busy lease first so the drain
        # does not wait out the full lease): nothing referenced
        # afterwards, gc may collect.
        queue.release_leases()
        Worker(queue, worker_id="w", poll_s=0.02).run()
        assert queue.referenced_prefixes() == set()
        assert len(cache.gc(protect=queue.referenced_prefixes())) == 1

    def test_gc_older_than_still_applies_outside_protection(self, tmp_path):
        cache = CheckpointCache(tmp_path / "cache")
        from repro.experiments.scenario import prefix_scenario, run_prefix
        from repro.runtime import checkpoint as ckpt

        config = small_config()
        sim = run_prefix(config)
        cache.publish(prefix_scenario(config), ckpt.snapshot(sim))
        [entry] = cache.entries()
        # Fresh entry, old-age filter: survives without any protection.
        assert cache.gc(older_than_s=3600.0) == []
        assert cache.gc(older_than_s=0.0) != []


class TestCliRequeueFlow:
    def test_requeue_releases_a_hung_lease(self, tmp_path):
        from repro.cli import main

        tasks = ablation_grid()[:2]
        queue_path = tmp_path / "q"
        queue = open_queue(queue_path)
        publish_forked(queue, tasks, lease_s=3600)
        queue.claim("hung")
        assert main(["queue", "requeue", str(queue_path)]) == 0
        lease = queue.claim("fresh")
        assert lease is not None  # claimable immediately, attempt bumped
        assert lease.attempt == 2
