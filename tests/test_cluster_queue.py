"""Work-queue primitives: publish/join, atomic claims, leases, retries,
and the one-scan lease state table they all read.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import time
from urllib.parse import quote

import pytest

from repro.errors import ClusterError
from repro.experiments.scenario import ScenarioConfig
from repro.obs.stream import atomic_write
from repro.runtime.cluster import TaskSpec, WorkQueue, open_queue
from repro.runtime.cluster.merge import merged_records
from repro.runtime.runner import grid_tasks
from repro.runtime.store import cell_record, config_hash

#: A fixed "now": lease ages in the ``now=``-driven tests are exact and
#: nothing sleeps.
T0 = 1_000_000.0


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


def specs(n=3, **overrides):
    return [
        TaskSpec(task_id=f"k={k}/seed=0", config=tiny_config(replication=k))
        for k in range(2, 2 + n)
    ]


# One medium; the param keeps the historical ``[dir]`` test ids.
@pytest.fixture(params=["dir"])
def queue(tmp_path):
    return open_queue(tmp_path / "queue")


class TestOpenQueue:
    def test_open_queue_passes_through_instances(self, tmp_path):
        q = open_queue(tmp_path / "q")
        assert open_queue(q) is q

    def test_open_queue_rejects_regular_file(self, tmp_path):
        """A ``grid.sqlite`` left by an older run is not a queue."""
        stale = tmp_path / "grid.sqlite"
        stale.write_bytes(b"SQLite format 3\0")
        with pytest.raises(ClusterError, match="directories") as info:
            open_queue(stale)
        assert str(stale) in str(info.value)


def ok_record(lease, run_id="run-1"):
    return cell_record(
        run_id,
        lease.task.task_id,
        lease.task.config,
        status="ok",
        worker=lease.worker_id,
    )


class TestAtomicWrite:
    def test_same_pid_writers_on_two_hosts_do_not_collide(
        self, tmp_path, monkeypatch
    ):
        """Two machines sharing the directory, both pid 7: writer B's
        whole write lands between A's temp write and A's rename.  With
        a pid-only temp name B renames A's temp file away and A's
        ``replace`` raises ``FileNotFoundError``."""
        target = tmp_path / "spec.json"
        hosts = iter(["host-a", "host-b"])
        monkeypatch.setattr(os, "getpid", lambda: 7)
        monkeypatch.setattr(socket, "gethostname", lambda: next(hosts))
        real_replace = os.replace

        def replace_with_b_in_the_window(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            atomic_write(target, b"B")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_with_b_in_the_window)
        atomic_write(target, b"A")
        assert target.read_bytes() == b"A"  # last rename wins, whole
        assert os.listdir(tmp_path) == ["spec.json"]  # no temp debris

    @pytest.mark.parametrize("writer", ["checkpoint.save", "mem.write_snapshot"])
    def test_same_pid_checkpoint_and_ledger_writers_do_not_collide(
        self, writer, tmp_path, monkeypatch
    ):
        """The same window for the other two write-rename publishers —
        two hosts, one pid, one ``CheckpointCache`` entry / one obs
        dir: both used a pid-only temp name, so the outer writer's
        rename found its temp file gone (``CheckpointError`` from
        ``save``, a silently dropped snapshot from the ledger)."""
        from repro.obs import mem as obs_mem
        from repro.runtime import checkpoint

        if writer == "checkpoint.save":
            target = tmp_path / "entry.ckpt"
            blob = checkpoint.SimulationCheckpoint(
                format=checkpoint.CHECKPOINT_FORMAT, round=0, seed=0, n_alive=0, n_total=0,
                layer_names=[], sim=None,
            )
            write = functools.partial(checkpoint.save, blob, target)
        else:
            target = tmp_path / "mem.json"
            obs_mem.reset()
            obs_mem.set_enabled(True)
            obs_mem.add("node_table", "NodeTable.rows", 64)
            obs_mem.set_enabled(False)
            write = functools.partial(obs_mem.write_snapshot, target)
            # The advisory lock does not reach across the two hosts.
            monkeypatch.setattr("fcntl.flock", lambda fd, op: None)
        hosts = iter(["host-a", "host-b"])
        monkeypatch.setattr(os, "getpid", lambda: 7)
        monkeypatch.setattr(socket, "gethostname", lambda: next(hosts))
        real_replace = os.replace
        outcomes = []

        def replace_with_b_in_the_window(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            outcomes.append(write())
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_with_b_in_the_window)
        try:
            outcomes.append(write())
        finally:
            obs_mem.reset()
        assert len(outcomes) == 2 and all(o is not None for o in outcomes)
        assert os.listdir(tmp_path) == [target.name]  # no temp debris


class TestScan:
    def test_state_table(self, tmp_path):
        """Every row of the lease state table, read by the one scan and
        by each fold over it (has_claimable, status, claim)."""
        queue = open_queue(tmp_path / "q")
        t2, t3, t4, t5, t6 = (s.task_id for s in specs(5))
        queue.publish(specs(5), run_id="run-1", lease_s=10, max_attempts=2)
        foreign = TaskSpec(task_id="foreign", config=tiny_config(seed=99))
        (tmp_path / "q" / "tasks" / "foreign.json").write_text(
            json.dumps(foreign.to_dict())
        )
        l2, l3, l4, l5 = (queue.claim("w", now=T0) for _ in range(4))
        assert [l.task.task_id for l in (l2, l3, l4, l5)] == [t2, t3, t4, t5]
        assert queue.complete(l5, ok_record(l5))
        # t2 and t3 stay alive past the first expiry, t4 is re-offered.
        assert queue.heartbeat(l2, now=T0 + 11)
        assert queue.heartbeat(l3, now=T0 + 11)
        l4b = queue.claim("w", now=T0 + 11)
        assert (l4b.task.task_id, l4b.attempt) == (t4, 2)
        assert queue.heartbeat(l2, now=T0 + 20)

        now = T0 + 22
        rows = {c.task_id: c for c in queue._scan(now)}
        assert {tid: (c.state, c.attempt) for tid, c in rows.items()} == {
            t2: ("leased", 1),
            t3: ("expired", 1),
            t4: ("exhausted", 2),
            t5: ("done", 1),
            t6: ("pending", 0),
        }
        assert rows[t2].age == 2.0 and rows[t3].age == 11.0
        assert queue.has_claimable(now)
        status = queue.status(now)
        assert (status["done"], status["ok"], status["failed"]) == (1, 1, 0)
        assert status["leases"] == {
            t2: {"worker": "w", "attempt": 1, "age_s": 2.0}
        }
        assert status["pending"] == 3 and status["retried"] == 1

        # claim takes the first claimable row in order: the expired t3,
        # then retires the exhausted t4 on its way to the pending t6.
        retry = queue.claim("w2", now=now)
        assert (retry.task.task_id, retry.attempt) == (t3, 2)
        fresh = queue.claim("w2", now=now)
        assert (fresh.task.task_id, fresh.attempt) == (t6, 1)
        assert queue.claim("w2", now=now) is None
        assert not queue.has_claimable(now)
        status = queue.status(now)
        assert (status["done"], status["failed"]) == (2, 1)
        assert status["leased"] == 3 and status["pending"] == 0
        assert "foreign" not in {c.task_id for c in queue._scan(now)}

    def test_parent_layout_queue_drains_under_this_code(self, tmp_path):
        """QUEUE_FORMAT 1 as the previous release wrote it, built from
        plain files: an indented manifest, one spec per cell, one cell
        already finished, one holding a dead worker's expired claim."""
        root = tmp_path / "q"
        grid = specs(3)
        for name in ("tasks", "claims", "done", "shards", "payloads", "workers"):
            (root / name).mkdir(parents=True)
        for spec in grid:
            (root / "tasks" / f"{quote(spec.task_id, safe='')}.json").write_text(
                json.dumps(spec.to_dict(), sort_keys=True)
            )
        manifest = {
            "format": 1,
            "run_id": "old-run",
            "created": "2026-09-01T00:00:00",
            "metadata": {},
            "lease_s": 10.0,
            "max_attempts": 3,
            "n_tasks": 3,
            "task_hashes": {s.task_id: config_hash(s.config) for s in grid},
            "cache_root": None,
            "trace": None,
        }
        (root / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1)
        )
        first, second, _ = (quote(s.task_id, safe="") for s in grid)
        finished = cell_record(
            "old-run", grid[0].task_id, grid[0].config, status="ok", worker="old"
        )
        (root / "shards" / "old.jsonl").write_text(json.dumps(finished) + "\n")
        (root / "done" / f"{first}.json").write_text(
            json.dumps({"status": "ok", "worker": "old", "attempt": 1})
        )
        dead = root / "claims" / f"{second}@1"
        dead.write_text(json.dumps({"worker": "old", "claimed_at": T0}))
        os.utime(dead, (T0, T0))

        queue = open_queue(root)
        assert queue.publish(grid)["run_id"] == "old-run"  # joins
        attempts = {}
        while (lease := queue.claim("new", now=T0 + 60)) is not None:
            attempts[lease.task.task_id] = lease.attempt
            assert queue.complete(lease, ok_record(lease, "old-run"))
        assert attempts == {grid[1].task_id: 2, grid[2].task_id: 1}
        assert queue.is_complete()
        assert sorted(r["task_id"] for r in merged_records(queue)) == sorted(
            s.task_id for s in grid
        )


class TestPublish:
    def test_publish_and_read_back(self, queue):
        manifest = queue.publish(specs(), run_id="run-1", lease_s=30)
        assert manifest["run_id"] == "run-1"
        assert manifest["n_tasks"] == 3
        tasks = queue.tasks()
        assert [t.task_id for t in tasks] == sorted(
            s.task_id for s in specs()
        )
        assert all(t.config == s.config for t, s in zip(tasks, specs()))

    def test_publish_is_idempotent_join(self, queue):
        first = queue.publish(specs(), run_id="run-1")
        second = queue.publish(specs(), run_id="ignored-other-id")
        assert second["run_id"] == first["run_id"]
        assert len(queue.tasks()) == 3

    def test_publish_different_grid_rejected(self, queue):
        queue.publish(specs())
        other = [
            TaskSpec(task_id="k=2/seed=0", config=tiny_config(seed=9))
        ]
        with pytest.raises(ClusterError, match="different grid"):
            queue.publish(other)

    def test_empty_and_duplicate_grids_rejected(self, queue):
        with pytest.raises(ClusterError, match="empty"):
            queue.publish([])
        dupe = specs(1) * 2
        with pytest.raises(ClusterError, match="duplicate"):
            queue.publish(dupe)

    def test_task_ids_with_slashes_round_trip(self, queue):
        grid = grid_tasks(
            tiny_config(), {"replication": (2, 4), "seed": (0, 1)}
        )
        queue.publish(
            [TaskSpec(task_id=t.task_id, config=t.config) for t in grid]
        )
        assert {t.task_id for t in queue.tasks()} == {
            t.task_id for t in grid
        }


class TestClaims:
    def test_each_cell_claimed_exactly_once(self, queue):
        queue.publish(specs(), lease_s=60)
        seen = []
        for worker in ("w1", "w2", "w1", "w2"):
            lease = queue.claim(worker)
            if lease is not None:
                seen.append(lease.task.task_id)
        assert sorted(seen) == sorted(s.task_id for s in specs())
        assert queue.claim("w3") is None  # everything leased

    def test_unpublished_queue_has_nothing(self, queue):
        assert queue.claim("w") is None
        assert not queue.has_claimable()
        assert not queue.is_complete()

    def test_expired_lease_reoffered_with_attempt_bump(self, queue):
        queue.publish(specs(1), lease_s=0.1)
        first = queue.claim("dying")
        assert first.attempt == 1
        assert queue.claim("next") is None  # lease still live
        time.sleep(0.2)
        second = queue.claim("next")
        assert second is not None
        assert second.task.task_id == first.task.task_id
        assert second.attempt == 2

    def test_heartbeat_keeps_lease_alive(self, queue):
        queue.publish(specs(1), lease_s=0.3)
        lease = queue.claim("slow")
        deadline = time.time() + 0.7
        while time.time() < deadline:
            assert queue.heartbeat(lease)
            time.sleep(0.05)
        # Well past the original expiry, the cell is still owned.
        assert queue.claim("thief") is None

    def test_heartbeat_reports_lost_lease(self, queue):
        """A lease superseded by a newer attempt, or whose cell is done,
        is lost: ``False``, and the stale claim file is not re-stamped."""
        queue.publish(specs(2), run_id="run-1", lease_s=10)
        stale = queue.claim("slow", now=T0)
        finished = queue.claim("slow", now=T0)
        newer = queue.claim("next", now=T0 + 11)
        assert newer.task == stale.task and newer.attempt == 2
        assert queue.heartbeat(stale, now=T0 + 12) is False
        stale_claim = queue.path / "claims" / (
            quote(stale.task.task_id, safe="") + "@1"
        )
        assert stale_claim.stat().st_mtime == T0
        assert queue.heartbeat(newer, now=T0 + 12) is True

        assert queue.complete(finished, ok_record(finished))
        assert queue.heartbeat(finished, now=T0 + 12) is False

    def test_heartbeat_revives_released_lease(self, queue):
        """Released but not yet re-claimed: the owner's next heartbeat
        takes the cell back."""
        queue.publish(specs(1), lease_s=3600)
        lease = queue.claim("w")
        assert queue.release_leases() == 1
        assert queue.has_claimable()
        assert queue.heartbeat(lease) is True
        assert not queue.has_claimable()

    def test_exhausted_cell_retired_as_error(self, queue):
        queue.publish(specs(1), lease_s=0.05, max_attempts=2)
        for i in range(2):
            lease = queue.claim(f"zombie-{i}")
            assert lease is not None and lease.attempt == i + 1
            time.sleep(0.1)
        assert queue.claim("after") is None  # budget spent -> retired
        assert queue.is_complete()
        [record] = list(queue.cell_records())
        assert record["status"] == "error"
        assert "lease expired" in record["error"]
        assert record["config_hash"] == config_hash(specs(1)[0].config)


class TestCompleteAndStatus:
    def test_complete_records_and_finishes(self, queue):
        queue.publish(specs(2), run_id="run-1")
        from repro.runtime.store import cell_record

        while (lease := queue.claim("w")) is not None:
            record = cell_record(
                "run-1",
                lease.task.task_id,
                lease.task.config,
                status="ok",
                worker="w",
            )
            assert queue.complete(lease, record)
        assert queue.is_complete()
        assert len(list(queue.cell_records())) == 2
        status = queue.status()
        assert status["done"] == status["ok"] == status["total"] == 2
        assert status["complete"]

    def test_status_shows_live_leases_and_workers(self, queue):
        queue.publish(specs(2), lease_s=60)
        queue.claim("w1")
        queue.register_worker("w1", {"cells_ok": 0, "cells_error": 0})
        status = queue.status()
        assert status["leased"] == 1
        assert status["pending"] == 1
        [lease] = status["leases"].values()
        assert lease["worker"] == "w1"
        assert "w1" in status["workers"]

    def test_payload_round_trip(self, queue):
        spec = TaskSpec(
            task_id="p", config=tiny_config(), payload=True
        )
        queue.publish([spec], run_id="run-1")
        from repro.runtime.store import cell_record

        lease = queue.claim("w")
        record = cell_record(
            "run-1", "p", lease.task.config, status="ok", worker="w"
        )
        queue.complete(lease, record, payload=b"result-bytes")
        assert queue.load_payload("p") == b"result-bytes"
        assert queue.load_payload("missing") is None


class TestRequeue:
    def test_release_leases_makes_cells_claimable_now(self, queue):
        queue.publish(specs(2), lease_s=3600)
        queue.claim("hung-worker")
        assert queue.release_leases() >= 1
        # Without waiting an hour, the cell is claimable again.
        claimed = {queue.claim("w").task.task_id, queue.claim("w").task.task_id}
        assert claimed == {s.task_id for s in specs(2)}

    def test_reset_failed_cells(self, queue):
        queue.publish(specs(1), lease_s=0.05, max_attempts=1)
        queue.claim("zombie")
        time.sleep(0.1)
        assert queue.claim("reaper") is None  # retires the cell
        assert queue.is_complete()
        reset = queue.reset(failed_only=True)
        assert reset == [specs(1)[0].task_id]
        assert not queue.is_complete()
        lease = queue.claim("fresh")
        assert lease is not None and lease.attempt == 1

    def test_reset_specific_task(self, queue):
        queue.publish(specs(2), run_id="run-1")
        from repro.runtime.store import cell_record

        lease = queue.claim("w")
        done_id = lease.task.task_id
        queue.complete(
            lease,
            cell_record("run-1", done_id, lease.task.config, status="ok"),
        )
        assert queue.reset(task_ids=[done_id]) == [done_id]
        assert done_id not in queue.done_ids()


class TestCrossProcessVisibility:
    def test_reset_from_another_handle_is_seen_by_live_worker(self, queue):
        """A long-lived worker must notice a reset performed through a
        *different* queue handle (another process running `repro queue
        requeue`) — no stale done-cache may hide the requeued cell."""
        queue.publish(specs(1), run_id="run-1")
        from repro.runtime.store import cell_record

        lease = queue.claim("w")
        task_id = lease.task.task_id
        queue.complete(
            lease, cell_record("run-1", task_id, lease.task.config, status="ok")
        )
        assert queue.claim("w") is None  # this handle saw it done
        other = open_queue(queue.path)  # the operator's process
        assert other.reset(task_ids=[task_id]) == [task_id]
        release = queue.claim("w")  # the original handle, again
        assert release is not None and release.task.task_id == task_id

    def test_foreign_task_files_are_invisible(self, tmp_path):
        """Task files left behind by a publisher that lost the manifest
        race must not be claimed, completed, or counted."""
        queue = open_queue(tmp_path / "q")
        queue.publish(specs(2), run_id="run-1")
        foreign = TaskSpec(task_id="foreign", config=tiny_config(seed=99))
        (tmp_path / "q" / "tasks" / "foreign.json").write_text(
            __import__("json").dumps(foreign.to_dict())
        )
        assert {t.task_id for t in queue.tasks()} == {
            s.task_id for s in specs(2)
        }
        from repro.runtime.store import cell_record

        claimed = set()
        while (lease := queue.claim("w")) is not None:
            claimed.add(lease.task.task_id)
            queue.complete(
                lease,
                cell_record(
                    "run-1", lease.task.task_id, lease.task.config, status="ok"
                ),
            )
        assert "foreign" not in claimed
        assert queue.is_complete()


class TestReferencedPrefixes:
    def test_unfinished_fork_cells_pin_their_prefixes(self, queue):
        fork = TaskSpec(
            task_id="f",
            config=tiny_config(),
            kind="fork",
            prefix_hash="abc123",
            forked_digest="d" * 16,
        )
        cold = TaskSpec(task_id="c", config=tiny_config(seed=1))
        queue.publish([fork, cold], run_id="run-1")
        assert queue.referenced_prefixes() == {"abc123"}
        # Finish the fork cell: nothing is pinned any more.
        from repro.runtime.store import cell_record

        while (lease := queue.claim("w")) is not None:
            queue.complete(
                lease,
                cell_record(
                    "run-1", lease.task.task_id, lease.task.config, status="ok"
                ),
            )
        assert queue.referenced_prefixes() == set()
