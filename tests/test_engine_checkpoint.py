"""Checkpoint ↔ engine interactions.

Snapshots are engine-bearing: a checkpoint freezes whichever engine
produced it and restores bit-exactly into that engine — there is no
conversion; to compare engines, run the configuration under both.  The
fork-checkpoint cache keys on the configured engine's semantics
version, so the two backends can never cross-contaminate.
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.scenario import (
    ScenarioConfig,
    prefix_scenario,
    prepare_scenario,
)
from repro.runtime import checkpoint as ckpt
from repro.runtime.forksweep import CheckpointCache
from repro.sim.batch import BatchSimulation
from repro.sim.engine import semantics_version_for


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


class TestRestoreKeepsTheEngine:
    def test_restore_takes_only_the_checkpoint(self):
        assert list(inspect.signature(ckpt.restore).parameters) == ["checkpoint"]


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
        assert semantics_version_for("event") == 4
        assert semantics_version_for("batch") == 5
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
