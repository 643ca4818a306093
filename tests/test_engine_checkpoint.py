"""Checkpoint ↔ engine interactions.

Snapshots are engine-bearing: a checkpoint freezes whichever
engine produced it, restores bit-exactly into that engine, and
*converts* into the other engine on request (``restore(...,
engine=...)``) — network, protocol state, pending events and the meter
carry over; RNG substreams are re-derived at the switch.  The
fork-checkpoint cache keys on the configured engine's semantics
version, so the two backends can never cross-contaminate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.experiments.scenario import (
    ScenarioConfig,
    finish_scenario,
    prefix_scenario,
    prepare_scenario,
)
from repro.metrics.storage import average_storage
from repro.runtime import checkpoint as ckpt
from repro.runtime.forksweep import CheckpointCache
from repro.sim.batch import BatchSimulation
from repro.sim.engine import Simulation, semantics_version_for


def config(engine: str, **overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=5,
        reinjection_round=12,
        total_rounds=16,
        seed=3,
        metrics=("homogeneity",),
        engine=engine,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestBatchSnapshotDigestStability:
    def test_digest_is_deterministic_across_processes_of_state(self):
        sim_a, *_ = prepare_scenario(config("batch"))
        sim_b, *_ = prepare_scenario(config("batch"))
        sim_a.run(7)
        sim_b.run(7)
        assert ckpt.state_digest(sim_a) == ckpt.state_digest(sim_b)

    def test_digest_is_idempotent(self):
        sim, *_ = prepare_scenario(config("batch"))
        sim.run(4)
        first = ckpt.state_digest(sim)
        assert ckpt.state_digest(sim) == first  # a pure read

    def test_snapshot_restore_continues_bit_identically(self):
        sim, *_ = prepare_scenario(config("batch"))
        sim.run(6)
        snap = ckpt.snapshot(sim)
        restored = ckpt.restore(snap)
        assert isinstance(restored, BatchSimulation)
        assert ckpt.state_digest(restored) == ckpt.state_digest(sim)
        restored.run(10)
        sim.run(10)
        assert ckpt.state_digest(restored) == ckpt.state_digest(sim)

    def test_save_load_roundtrip(self, tmp_path):
        sim, *_ = prepare_scenario(config("batch"))
        sim.run(6)
        digest = ckpt.state_digest(sim)
        path = ckpt.save(ckpt.snapshot(sim), tmp_path / "batch.ckpt")
        loaded = ckpt.load(path)
        assert loaded.format == ckpt.CHECKPOINT_FORMAT
        assert ckpt.state_digest(ckpt.restore(loaded)) == digest


class TestCrossEngineRestore:
    def test_event_snapshot_restores_into_batch(self):
        sim, *_ = prepare_scenario(config("event"))
        sim.run(4)
        storage_before = average_storage(sim.network.alive_nodes())
        snap = ckpt.snapshot(sim)
        batch = ckpt.restore(snap, engine="batch")
        assert isinstance(batch, BatchSimulation)
        assert batch.round == 4
        assert batch.network.n_alive == sim.network.n_alive
        # Protocol state carried verbatim: read from the arrays, and
        # through the per-node objects the arrays materialise.
        alive = batch.network.alive_nodes()
        assert not any(hasattr(node, "poly") for node in alive)  # adopted
        assert average_storage(alive, batch.placement) == storage_before
        batch.sync_canonical()
        assert average_storage(alive) == storage_before
        # The scheduled failure/reinjection events carried over and the
        # continuation runs to completion under the batch engine.
        result = finish_scenario(batch)
        assert result.reliability is not None
        assert result.n_alive[-1] > 0

    def test_conversion_after_recovery_brings_no_ghost_back(self):
        """Event-engine recovery deletes the holder's ghost and leaves
        the dead origin's ``backup_sent`` frozen; the holder's ghost map
        is what the conversion goes by."""
        sim, *_ = prepare_scenario(config("event"))
        sim.run(9)  # the failure at round 5 is detected and recovered
        event_alive = sim.network.alive_nodes()
        assert any(
            node.poly.backup_sent
            for node in sim.network.nodes.values()
            if not sim.network.is_alive(node.nid)
        )
        assert not any(
            sim.detected_failed() & node.poly.ghosts.keys() for node in event_alive
        )
        storage = average_storage(event_alive)
        ghosts = {
            node.nid: {o: sorted(copy) for o, copy in node.poly.ghosts.items()}
            for node in event_alive
        }
        guests = sum(node.poly.n_guests for node in event_alive)

        batch = ckpt.restore(ckpt.snapshot(sim), engine="batch")
        alive = batch.network.alive_nodes()
        assert average_storage(alive, batch.placement) == storage
        canonical = batch.canonical_placement()
        assert {
            node.nid: {o: list(copy) for o, copy in canonical[node.row][1]}
            for node in alive
        } == ghosts
        # ... and the next round has nothing to recover: migration only
        # ever merges duplicate guests, so the total cannot grow.
        rows = np.asarray([node.row for node in alive])
        assert int(batch.placement.guest_n[rows].sum()) == guests
        batch.run(1)
        assert int(batch.placement.guest_n[rows].sum()) <= guests

    def test_batch_snapshot_restores_into_event(self):
        sim, *_ = prepare_scenario(config("batch"))
        sim.run(4)
        snap = ckpt.snapshot(sim)
        event = ckpt.restore(snap, engine="event")
        assert type(event) is Simulation
        assert event.round == 4
        result = finish_scenario(event)
        assert result.reliability is not None

    def test_restore_same_engine_is_identity_conversion(self):
        sim, *_ = prepare_scenario(config("event"))
        sim.run(3)
        restored = ckpt.restore(ckpt.snapshot(sim), engine="event")
        assert ckpt.state_digest(restored) == ckpt.state_digest(sim)

    def test_unconvertible_stack_raises_clear_error(self):
        from tests.helpers import NullLayer, grid_coords, make_sim

        from repro.spaces.torus import FlatTorus

        sim, *_ = make_sim(FlatTorus(4.0, 4.0), grid_coords(4, 4))
        snap = ckpt.snapshot(sim)
        with pytest.raises(CheckpointError, match="layer stack"):
            ckpt.restore(snap, engine="batch")

    def test_unknown_engine_raises(self):
        sim, *_ = prepare_scenario(config("event"))
        with pytest.raises(CheckpointError, match="unknown execution engine"):
            ckpt.restore(ckpt.snapshot(sim), engine="turbo")


class TestEngineScopedCacheKeys:
    def test_batch_and_event_prefixes_never_share_a_key(self):
        event_prefix = prefix_scenario(config("event"))
        batch_prefix = prefix_scenario(config("batch"))
        assert CheckpointCache.key(event_prefix) != CheckpointCache.key(
            batch_prefix
        )

    def test_batch_semantics_bump_orphans_batch_entries_only(self, monkeypatch):
        event_prefix = prefix_scenario(config("event"))
        batch_prefix = prefix_scenario(config("batch"))
        event_key = CheckpointCache.key(event_prefix)
        batch_key = CheckpointCache.key(batch_prefix)
        monkeypatch.setattr("repro.sim.batch.engine.SEMANTICS_VERSION", 999)
        monkeypatch.setattr("repro.sim.batch.SEMANTICS_VERSION", 999)
        assert CheckpointCache.key(event_prefix) == event_key
        assert CheckpointCache.key(batch_prefix) != batch_key

    def test_semantics_versions_are_distinct(self):
        assert semantics_version_for("event") == 1
        assert semantics_version_for("batch") == 2
        with pytest.raises(ValueError):
            semantics_version_for("turbo")


class TestBatchForkSweep:
    def test_fork_equals_cold_for_batch_cells(self, tmp_path):
        from repro.runtime.dispatch import ExecOptions, execute_scenarios

        configs = [
            config("batch", failure_fraction=f, reinjection_round=None, total_rounds=14)
            for f in (0.25, 0.5)
        ]
        forked = execute_scenarios(
            configs, ExecOptions(fork=True), cache=CheckpointCache(tmp_path)
        )
        from repro.experiments.scenario import run_scenario

        cold = [run_scenario(c) for c in configs]
        for a, b in zip(forked, cold):
            assert a.series["homogeneity"] == b.series["homogeneity"]
            assert a.reliability == b.reliability
            assert a.reshaping_time == b.reshaping_time

    def test_cache_meta_records_engine_and_semantics(self, tmp_path):
        import json

        from repro.experiments.scenario import run_prefix

        cfg = config("batch")
        prefix = prefix_scenario(cfg)
        cache = CheckpointCache(tmp_path)
        cache.publish(prefix, ckpt.snapshot(run_prefix(cfg)))
        meta_path = next(tmp_path.glob("*.json"))
        meta = json.loads(meta_path.read_text())
        assert meta["engine"] == "batch"
        assert meta["semantics_version"] == semantics_version_for("batch")


class TestConversionSeedsBackupDirtySets:
    def test_pending_backup_delta_survives_event_to_batch(self):
        """A conversion taken mid-drift (guests changed after the last
        backup push) must re-push under the batch engine — the event
        engine would have repaired it through its unconditional scan."""
        sim, *_ = prepare_scenario(config("event", failure_round=None,
                                          reinjection_round=None))
        sim.run(3)
        # Force drift on one node: hand it an extra guest without
        # telling its backups.
        node = sim.network.alive_nodes()[0]
        donor = sim.network.alive_nodes()[1]
        pid, point = next(iter(donor.poly.guests.items()))
        node.poly.guests[pid] = point
        batch = ckpt.restore(ckpt.snapshot(sim), engine="batch")
        moved = batch.network.node(node.nid)
        batch.sync_canonical()
        assert moved.poly.backup_sent  # it does have recorded pushes
        assert any(pid not in sent for sent in moved.poly.backup_sent.values())
        batch.run(1)  # one batch round must push the delta
        batch.sync_canonical()
        for backup_id, sent in moved.poly.backup_sent.items():
            assert pid in sent or not batch.network.is_alive(backup_id)
            if batch.network.is_alive(backup_id):
                target = batch.network.node(backup_id).poly
                assert pid in target.ghosts.get(node.nid, {}), backup_id
