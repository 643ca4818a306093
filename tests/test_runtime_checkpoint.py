"""Checkpoint/restore: bit-identical pause, fork, and resume."""

from __future__ import annotations

import pytest

from repro.errors import CheckpointError
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime import checkpoint
from repro.sim.engine import Simulation

from .helpers import NullLayer, grid_coords, make_sim
from repro.spaces import Euclidean


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=5,
        reinjection_round=12,
        total_rounds=22,
        metrics=("homogeneity",),
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_rounds(sim: Simulation, rounds: int) -> None:
    sim.run(rounds)


class TestRoundTrip:
    def test_snapshot_then_resume_equals_uninterrupted(self):
        """run N -> snapshot -> run M  ==  straight N+M run."""
        config = small_config()
        straight, *_ = prepare_scenario(config)
        straight.run(config.total_rounds)

        interrupted, *_ = prepare_scenario(config)
        interrupted.run(7)  # mid Phase 2, failure already fired
        ck = checkpoint.snapshot(interrupted)
        resumed = checkpoint.restore(ck)
        resumed.run(config.total_rounds - 7)

        assert checkpoint.state_digest(resumed) == checkpoint.state_digest(
            straight
        )

    def test_snapshot_before_pending_events_preserves_them(self):
        """A checkpoint taken before the failure round still crashes
        the right nodes at the right round after restore."""
        config = small_config()
        sim, *_ = prepare_scenario(config)
        sim.run(3)  # before the round-5 failure
        ck = checkpoint.snapshot(sim)

        resumed = checkpoint.restore(ck)
        assert resumed.network.n_alive == config.n_nodes
        resumed.run(4)  # crosses the failure
        assert resumed.network.n_alive < config.n_nodes

    def test_source_keeps_running_independently(self):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        sim.run(3)
        ck = checkpoint.snapshot(sim)
        before = checkpoint.state_digest(sim)
        sim.run(5)
        # The checkpoint is frozen even though the source moved on.
        assert checkpoint.state_digest(checkpoint.restore(ck)) == before

    def test_fork_two_identical_futures(self):
        """One snapshot seeds two restores that evolve identically."""
        config = small_config()
        sim, *_ = prepare_scenario(config)
        sim.run(6)
        ck = checkpoint.snapshot(sim)
        left, right = checkpoint.restore(ck), checkpoint.restore(ck)
        left.run(10)
        right.run(10)
        assert checkpoint.state_digest(left) == checkpoint.state_digest(right)

    def test_fork_diverges_after_extra_event(self):
        """Forks are independent: perturbing one leaves the other on the
        original trajectory."""
        from repro.sim.failures import random_failure

        config = small_config()
        sim, *_ = prepare_scenario(config)
        sim.run(6)
        ck = checkpoint.snapshot(sim)
        plain, perturbed = checkpoint.restore(ck), checkpoint.restore(ck)
        perturbed.schedule(8, random_failure(0.2))
        plain.run(10)
        perturbed.run(10)
        assert checkpoint.state_digest(plain) != checkpoint.state_digest(
            perturbed
        )


class TestDisk:
    def test_save_load_roundtrip(self, tmp_path):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        sim.run(4)
        path = tmp_path / "run.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)
        loaded = checkpoint.load(path)
        assert loaded.round == 4
        assert loaded.seed == config.seed
        assert loaded.layer_names == ["rps", "tman", "polystyrene"]

        resumed = checkpoint.restore(loaded)
        resumed.run(config.total_rounds - 4)
        straight, *_ = prepare_scenario(config)
        straight.run(config.total_rounds)
        assert checkpoint.state_digest(resumed) == checkpoint.state_digest(
            straight
        )

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_roundtrip_keeps_the_node_table_sentinel(self, tmp_path, engine):
        """A disk round trip taken after the reinjection wave reclaimed
        the failed nodes' rows restores a table whose padded reads still
        resolve ``-1`` pads and reclaimed ids to "dead, zero" — and the
        resumed run, metrics included, matches the uninterrupted one."""
        import numpy as np

        from .test_sim_arrays import assert_sentinel

        config = small_config(engine=engine, metrics=("homogeneity", "proximity"))
        sim, recorder, *_ = prepare_scenario(config)
        sim.run(14)  # failure@5 detected by round 7, reinjection@12 reclaims rows
        path = tmp_path / "run.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)
        loaded = checkpoint.load(path)
        assert loaded.format == checkpoint.CHECKPOINT_FORMAT
        resumed = checkpoint.restore(loaded)
        table = resumed.network.table
        assert_sentinel(table)
        network = resumed.network
        reclaimed = [nid for nid in network.dead_ids() if network.node(nid).row == -1]
        assert reclaimed
        block = np.array([reclaimed[:2] + [-1], resumed.network.alive_ids()[:3]])
        assert table.alive_mask(block).tolist() == [[False] * 3, [True] * 3]
        assert not table.gather(block)[0].any()

        resumed.run(config.total_rounds - 14)
        sim.run(config.total_rounds - 14)
        assert checkpoint.state_digest(resumed) == checkpoint.state_digest(sim)
        resumed_recorder = resumed.observers[0]
        assert resumed_recorder.series == recorder.series

    def test_load_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            checkpoint.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            checkpoint.load(tmp_path / "absent.ckpt")

    def test_save_reports_unpicklable_events(self, tmp_path):
        sim, _, _ = make_sim(Euclidean(dim=2), grid_coords(3, 3), [NullLayer()])
        box = []
        sim.schedule(2, lambda s: box.append(s.round))  # closure event
        ck = checkpoint.snapshot(sim)
        with pytest.raises(CheckpointError, match="closure"):
            checkpoint.save(ck, tmp_path / "bad.ckpt")

    def test_restore_rejects_foreign_format(self):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        ck = checkpoint.snapshot(sim)
        ck.format = 99
        with pytest.raises(CheckpointError):
            checkpoint.restore(ck)


class TestScenarioSeam:
    def test_finish_scenario_after_disk_roundtrip_matches_run_scenario(
        self, tmp_path
    ):
        """The full pause/resume workflow: checkpoint *after* the
        failure fired (reliability already sampled), restore from disk,
        finish — the ScenarioResult equals an uninterrupted run's."""
        from repro.experiments.scenario import finish_scenario, run_scenario

        config = small_config()
        reference = run_scenario(config)

        sim, *_ = prepare_scenario(config)
        sim.run(8)  # failure at round 5 has fired; probe sample taken
        path = tmp_path / "mid.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)

        restored = checkpoint.restore(checkpoint.load(path))
        result = finish_scenario(restored)
        assert result.reliability == reference.reliability
        assert result.reshaping_time == reference.reshaping_time
        assert result.series == reference.series
        assert result.n_alive == reference.n_alive
        assert result.snapshots.keys() == reference.snapshots.keys()

    def test_finish_scenario_requires_prepared_sim(self):
        from repro.errors import ConfigurationError
        from repro.experiments.scenario import build_simulation, finish_scenario

        sim, *_ = build_simulation(small_config())
        with pytest.raises(ConfigurationError, match="prepare_scenario"):
            finish_scenario(sim)


class TestDigest:
    def test_digest_stable_for_identical_runs(self):
        config = small_config()
        a, *_ = prepare_scenario(config)
        b, *_ = prepare_scenario(config)
        a.run(9)
        b.run(9)
        assert checkpoint.state_digest(a) == checkpoint.state_digest(b)

    def test_digest_differs_across_seeds(self):
        a, *_ = prepare_scenario(small_config(seed=1))
        b, *_ = prepare_scenario(small_config(seed=2))
        a.run(9)
        b.run(9)
        assert checkpoint.state_digest(a) != checkpoint.state_digest(b)

    def test_checkpoint_size_positive(self):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        assert checkpoint.checkpoint_size(checkpoint.snapshot(sim)) > 0

    def test_digest_sees_pending_event_parameters(self):
        """Pending schedules differing only in event parameters (same
        rounds, same event classes) must not collide."""
        from repro.sim.failures import half_space_failure

        config = small_config(failure_round=None, reinjection_round=None)
        a, *_ = prepare_scenario(config)
        b, *_ = prepare_scenario(config)
        a.schedule(15, half_space_failure(0, 2.0))
        b.schedule(15, half_space_failure(0, 6.0))
        assert checkpoint.state_digest(a) != checkpoint.state_digest(b)

    def test_digest_sees_pending_event_types(self):
        from repro.sim.failures import random_failure
        from repro.sim.reinjection import reinjection

        config = small_config(failure_round=None, reinjection_round=None)
        a, *_ = prepare_scenario(config)
        b, *_ = prepare_scenario(config)
        a.schedule(15, random_failure(0.5))
        b.schedule(15, reinjection([(0.5, 0.5)]))
        assert checkpoint.state_digest(a) != checkpoint.state_digest(b)

    def test_save_creates_parent_directories(self, tmp_path):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        path = tmp_path / "nested" / "dir" / "run.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)
        assert checkpoint.load(path).round == 0


class TestLegacyFormatUpgrade:
    """One format, no legacy reader: only ``CHECKPOINT_FORMAT`` (10)
    loads, and every other format number is rejected by name."""

    def test_format_1_rejected_naming_the_format(self, tmp_path):
        self.assert_rejected_by_number(tmp_path, 1)

    def test_format_2_rejected_naming_the_format(self, tmp_path):
        self.assert_rejected_by_number(tmp_path, 2)

    def test_format_3_rejected_before_unpickling(self, tmp_path):
        """Format 3 pickled event views in a layout this build no longer
        has: the header refuses the file as an unsupported format before
        anything is unpickled."""
        self.assert_rejected_by_number(tmp_path, 3, "unsupported checkpoint format 3 ")

    def test_format_4_rejected_before_unpickling(self, tmp_path):
        """Format 4 pickled event-engine placement as per-node dicts, a
        layout this build no longer has (format 5 keeps it in the
        placement store both engines share)."""
        self.assert_rejected_by_number(tmp_path, 4, "unsupported checkpoint format 4 ")

    def test_format_5_rejected_before_unpickling(self, tmp_path):
        """Format 5 pickled batch topology views as an id and a
        coordinate per slot, a layout this build no longer has (format 7
        stores a peer id per slot)."""
        self.assert_rejected_by_number(tmp_path, 5, "unsupported checkpoint format 5 ")

    def test_format_6_rejected_before_unpickling(self, tmp_path):
        """Format 6 pickled batch topology views as descriptor versions
        into a per-layer table, which this build no longer has."""
        self.assert_rejected_by_number(tmp_path, 6, "unsupported checkpoint format 6 ")

    def test_format_7_rejected_before_unpickling(self, tmp_path):
        """Format 7 pickled each event-engine topology view as a per-node
        view object, which this build no longer has (format 8 keeps the
        views as the topology layer's id rows on both engines)."""
        self.assert_rejected_by_number(tmp_path, 7, "unsupported checkpoint format 7 ")

    def test_format_8_rejected_before_unpickling(self, tmp_path):
        """Format 8 pickled the node table's free list and the
        simulation's retention setting, which this build no longer has
        (format 9: reclaim alone gives back a dead node's row)."""
        self.assert_rejected_by_number(tmp_path, 8, "unsupported checkpoint format 8 ")

    def test_format_9_rejected_before_unpickling(self, tmp_path):
        """Format 9 pickled the event engine's Cyclon views as a dict on
        each node and the batch engine's as int64 ids, which this build
        no longer has (format 10 keeps both as int32 rows of the peer
        sampler's view store)."""
        self.assert_rejected_by_number(tmp_path, 9, "unsupported checkpoint format 9 ")

    def assert_rejected_by_number(self, tmp_path, legacy, message=None):
        sim, *_ = prepare_scenario(small_config())
        ck = checkpoint.SimulationCheckpoint(
            format=legacy,
            round=sim.round,
            seed=sim.seed,
            n_alive=sim.network.n_alive,
            n_total=sim.network.n_total,
            layer_names=[layer.name for layer in sim.layers],
            sim=sim,
        )
        path = checkpoint.save(ck, tmp_path / "legacy.ckpt")
        message = message or f"format {legacy} "
        with pytest.raises(CheckpointError, match=message):
            checkpoint.load(path)
        with pytest.raises(CheckpointError, match=message):
            checkpoint.restore(ck)

    def test_format_2_file_layout_fails_the_checksum(self, tmp_path):
        """What format 2 actually wrote — the magic, then one pickle of
        the checkpoint object — has no header to name a format with."""
        import pickle

        path = tmp_path / "v2.ckpt"
        path.write_bytes(b"repro-ckpt" + pickle.dumps({"format": 2}))
        with pytest.raises(
            CheckpointError, match=f"format {checkpoint.CHECKPOINT_FORMAT}"
        ):
            checkpoint.load(path)

    def test_unknown_future_format_rejected(self, tmp_path):
        config = small_config()
        sim, *_ = prepare_scenario(config)
        ck = checkpoint.snapshot(sim)
        ck.format = 99
        path = checkpoint.save(ck, tmp_path / "future.ckpt")
        with pytest.raises(CheckpointError):
            checkpoint.load(path)
        with pytest.raises(CheckpointError):
            checkpoint.restore(ck)
