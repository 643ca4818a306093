"""Phase-fork sweeps: shared prefixes, checkpoint cache, byte-identity.

The load-bearing guarantee: a fork-mode sweep produces *exactly* the
results of a cold-start sweep, cell for cell — enforced here over an
8-cell ablation grid and down to the ``state_digest`` level, plus the
failure modes (corrupt cache, stale cache, unforkable cells) that must
degrade to cold runs rather than crash or drift.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, RunnerError
from repro.experiments.scenario import (
    DIVERGENT_FIELDS,
    ScenarioConfig,
    apply_divergence,
    fork_round,
    prefix_scenario,
    prepare_scenario,
    run_prefix,
    run_scenario,
)
from repro.runtime import checkpoint
from repro.runtime.forksweep import (
    CheckpointCache,
    ForkContinuationTask,
    clear_checkpoint_memo,
    plan_fork_sweep,
)
from repro.runtime.dispatch import ExecOptions, execute_scenarios, run_sweep
from repro.runtime.runner import ParallelRunner, SweepTask, grid_tasks
from repro.runtime.store import ResultStore, config_hash


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


def ablation_grid(**base_overrides):
    """An 8-cell grid diverging only after the failure round."""
    return grid_tasks(
        small_config(**base_overrides),
        {
            "failure_fraction": (0.25, 0.5),
            "reinjection_round": (12, None),
            "total_rounds": (16, 20),
        },
    )


def fork_sweep(tasks, workers=1, cache=None, progress=None, **kwargs):
    """A fork-plan sweep on the local executor."""
    return run_sweep(
        tasks,
        fork=True,
        executor=ParallelRunner(workers=workers, progress=progress),
        cache=cache,
        **kwargs,
    )


def fork_scenarios(configs, cache):
    return execute_scenarios(configs, ExecOptions(fork=True), cache=cache)


def assert_results_identical(a, b, label=""):
    assert a.series == b.series, label
    assert a.n_alive == b.n_alive, label
    assert a.reliability == b.reliability, label
    assert a.reshaping_time == b.reshaping_time, label
    assert a.snapshots == b.snapshots, label
    assert a.message_history == b.message_history, label
    assert a.rps_fallbacks == b.rps_fallbacks, label


class TestPrefixSplit:
    def test_prefix_neutralises_exactly_the_divergent_fields(self):
        config = small_config(
            failure_fraction=0.25,
            detector_delay=2,
            reinjection_count=5,
            retention_rounds=10,
        )
        prefix = prefix_scenario(config)
        for field_name in DIVERGENT_FIELDS:
            assert getattr(prefix, field_name) != getattr(config, field_name)
        assert prefix.width == config.width
        assert prefix.split == config.split
        assert prefix.seed == config.seed
        assert prefix.failure_round == config.failure_round

    def test_prefix_is_idempotent(self):
        prefix = prefix_scenario(small_config())
        assert prefix_scenario(prefix) == prefix

    def test_divergent_variants_share_one_prefix(self):
        hashes = {
            config_hash(prefix_scenario(cfg))
            for cfg in (
                small_config(failure_fraction=0.25),
                small_config(failure_fraction=0.75),
                small_config(reinjection_round=None),
                small_config(total_rounds=30, reinjection_round=25),
                small_config(detector_delay=3),
            )
        }
        assert len(hashes) == 1

    def test_prefix_fields_split_the_groups(self):
        """Anything shaping Phase 1 — seed, K, split, shape — must not
        share a checkpoint."""
        base = config_hash(prefix_scenario(small_config()))
        for overrides in (
            {"seed": 4},
            {"replication": 2},
            {"split": "pd"},
            {"width": 16},
            {"failure_round": 6},
        ):
            other = config_hash(prefix_scenario(small_config(**overrides)))
            assert other != base, overrides

    def test_unforkable_configs(self):
        assert prefix_scenario(small_config(failure_round=None,
                                            reinjection_round=None)) is None
        assert fork_round(small_config(failure_round=0)) is None

    def test_apply_divergence_rejects_wrong_round(self):
        config = small_config()
        sim = run_prefix(config)
        sim.run(1)
        with pytest.raises(ConfigurationError, match="forks at round"):
            apply_divergence(sim, config)

    def test_apply_divergence_rejects_foreign_prefix(self):
        sim = run_prefix(small_config(seed=1))
        with pytest.raises(ConfigurationError, match="mismatch"):
            apply_divergence(sim, small_config(seed=2))

    def test_apply_divergence_requires_handles(self):
        from repro.experiments.scenario import build_simulation

        sim, *_ = build_simulation(prefix_scenario(small_config()))
        sim.run(5)
        with pytest.raises(ConfigurationError, match="handles"):
            apply_divergence(sim, small_config())


class TestByteIdentity:
    def test_fork_equals_cold_at_digest_level(self):
        """The strongest form: the *simulation state* after a forked
        continuation equals the cold run's, bit for bit."""
        config = small_config(failure_fraction=0.25)
        cold_sim, *_ = prepare_scenario(config)
        cold_sim.run(config.total_rounds)

        ck = checkpoint.snapshot(run_prefix(config))
        forked = apply_divergence(checkpoint.restore(ck), config)
        forked.run(config.total_rounds - forked.round)

        assert checkpoint.state_digest(forked) == checkpoint.state_digest(
            cold_sim
        )

    def test_eight_cell_grid_identical_to_cold(self, tmp_path):
        """Acceptance criterion: a fork-mode sweep over a >= 8-cell
        ablation grid matches cold-start mode per cell."""
        tasks = ablation_grid()
        assert len(tasks) >= 8
        plan = plan_fork_sweep(tasks)
        assert len(plan.groups) == 1 and not plan.cold

        cold = ParallelRunner(workers=1).run(tasks)
        forked = fork_sweep(
            tasks, workers=1, cache=CheckpointCache(tmp_path)
        )
        for cold_cell, fork_cell in zip(cold, forked):
            assert cold_cell.ok and fork_cell.ok
            assert fork_cell.forked_from is not None
            assert_results_identical(
                cold_cell.result, fork_cell.result, fork_cell.task_id
            )

    def test_parallel_fork_sweep_identical(self, tmp_path):
        tasks = ablation_grid()
        cold = ParallelRunner(workers=1).run(tasks)
        forked = fork_sweep(
            tasks, workers=2, cache=CheckpointCache(tmp_path)
        )
        for cold_cell, fork_cell in zip(cold, forked):
            assert_results_identical(cold_cell.result, fork_cell.result)

    def test_detector_delay_diverges_from_shared_prefix(self, tmp_path):
        configs = [
            small_config(detector_delay=d, reinjection_round=None)
            for d in (0, 2)
        ]
        forked = fork_scenarios(configs, CheckpointCache(tmp_path))
        for config, result in zip(configs, forked):
            assert_results_identical(result, run_scenario(config))
        # The delayed detector must actually change the outcome, or the
        # divergence axis is vacuous.
        assert forked[0].series != forked[1].series

    def test_mixed_grid_runs_unforkable_cells_cold(self, tmp_path):
        tasks = ablation_grid() + [
            SweepTask(
                task_id="no-failure",
                config=small_config(
                    failure_round=None, reinjection_round=None
                ),
            )
        ]
        plan = plan_fork_sweep(tasks)
        assert [t.task_id for t in plan.cold] == ["no-failure"]
        cells = fork_sweep(tasks, workers=1, cache=CheckpointCache(tmp_path))
        assert all(cell.ok for cell in cells)
        assert cells[-1].forked_from is None
        assert_results_identical(
            cells[-1].result, run_scenario(tasks[-1].config)
        )


class TestCheckpointCache:
    def test_store_then_load_roundtrip(self, tmp_path):
        config = small_config()
        prefix = prefix_scenario(config)
        cache = CheckpointCache(tmp_path)
        digest, path = cache.publish(
            prefix, checkpoint.snapshot(run_prefix(config))
        )
        assert path.exists()
        assert cache.digest_of(cache.key(prefix)) == digest
        loaded = cache.load(cache.key(prefix))
        assert loaded is not None
        assert checkpoint.state_digest(loaded.sim) == digest

    def test_truncated_checkpoint_is_a_miss_not_a_crash(self, tmp_path):
        config = small_config()
        cache = CheckpointCache(tmp_path)
        _, path = cache.publish(
            prefix_scenario(config), checkpoint.snapshot(run_prefix(config))
        )
        path.write_bytes(path.read_bytes()[:64])
        assert cache.load(cache.key(prefix_scenario(config))) is None
        assert not path.exists()  # corrupt entry discarded

    def test_stale_digest_is_a_miss(self, tmp_path):
        """A checkpoint whose content no longer matches its advertised
        digest (simulation semantics changed under the cache) must be
        recomputed, not trusted."""
        config = small_config()
        cache = CheckpointCache(tmp_path)
        _, path = cache.publish(
            prefix_scenario(config), checkpoint.snapshot(run_prefix(config))
        )
        lied = path.with_name(
            path.name.split("-", 1)[0] + "-" + "f" * 64 + ".ckpt"
        )
        path.rename(lied)
        assert cache.load(cache.key(prefix_scenario(config))) is None
        assert not lied.exists()

    def test_corrupt_cache_sweep_falls_back_cold(self, tmp_path):
        tasks = ablation_grid()
        cache = CheckpointCache(tmp_path)
        cold = ParallelRunner(workers=1).run(tasks)
        fork_sweep(tasks, workers=1, cache=cache)  # populate
        ckpt_path = Path(cache.entries()[0]["path"])
        ckpt_path.write_bytes(ckpt_path.read_bytes()[:100])
        # A fresh process would read the truncated file from disk; in
        # this one the (correctness-neutral) memo still holds the good
        # copy, so drop it to actually exercise the corruption path.
        clear_checkpoint_memo()

        cells = fork_sweep(tasks, workers=1, cache=cache)
        for cold_cell, cell in zip(cold, cells):
            assert cell.ok
            assert cell.forked_from is None  # cold fallback, recorded as such
            assert_results_identical(cold_cell.result, cell.result)

    def test_entries_and_gc(self, tmp_path):
        cache = CheckpointCache(tmp_path)
        for seed in (1, 2):
            config = small_config(seed=seed)
            cache.publish(
                prefix_scenario(config),
                checkpoint.snapshot(run_prefix(config)),
            )
        entries = cache.entries()
        assert len(entries) == 2
        for entry in entries:
            assert entry["round"] == 5
            assert entry["size_bytes"] > 0
            assert entry["config"]["failure_fraction"] == 0.0
        # Age-gated gc keeps fresh entries; unconditional gc drops all.
        assert cache.gc(older_than_s=3600.0) == []
        removed = cache.gc()
        assert len(removed) == 2
        assert cache.entries() == []
        assert not any(tmp_path.glob("*.json"))

    def test_gc_on_missing_directory(self, tmp_path):
        cache = CheckpointCache(tmp_path / "never-created")
        assert cache.entries() == []
        assert cache.gc() == []

    def test_sidecar_metadata_is_json(self, tmp_path):
        from repro.sim.engine import SEMANTICS_VERSION

        config = small_config()
        cache = CheckpointCache(tmp_path)
        digest, path = cache.publish(
            prefix_scenario(config), checkpoint.snapshot(run_prefix(config))
        )
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["state_digest"] == digest
        assert meta["n_alive"] == 32
        assert meta["semantics_version"] == SEMANTICS_VERSION

    def test_semantics_version_bump_orphans_old_entries(
        self, tmp_path, monkeypatch
    ):
        """A declared change to simulation semantics must never fork
        from pre-change checkpoints: the version is part of the key."""
        config = small_config()
        prefix = prefix_scenario(config)
        cache = CheckpointCache(tmp_path)
        cache.publish(prefix, checkpoint.snapshot(run_prefix(config)))
        old_key = cache.key(prefix)
        assert cache.find(old_key) is not None

        monkeypatch.setattr("repro.sim.engine.SEMANTICS_VERSION", 999)
        new_key = cache.key(prefix)
        assert new_key != old_key
        assert cache.find(new_key) is None  # old entry never found again

    def test_second_sweep_reuses_the_cached_prefix(self, tmp_path):
        tasks = ablation_grid()
        cache = CheckpointCache(tmp_path)
        seen = []

        def progress(done, total, cell):
            seen.append(cell.task_id)

        fork_sweep(tasks, workers=1, cache=cache, progress=progress)
        first = [tid for tid in seen if tid.startswith("prefix-")]
        assert len(first) == 1
        seen.clear()
        fork_sweep(tasks, workers=1, cache=cache, progress=progress)
        assert not any(tid.startswith("prefix-") for tid in seen)


class TestStoreIntegration:
    def test_forked_from_recorded_per_cell(self, tmp_path):
        tasks = ablation_grid()
        store = ResultStore(tmp_path / "results.jsonl")
        cache = CheckpointCache(tmp_path / "ck")
        fork_sweep(tasks, workers=1, cache=cache, store=store, run_id="fork-run")
        records = store.cells(run_id="fork-run", status="ok")
        assert len(records) == len(tasks)
        digests = {record["forked_from"] for record in records}
        assert len(digests) == 1 and None not in digests
        prefix_hash = plan_fork_sweep(tasks).groups[0].prefix_hash
        assert digests == {cache.digest_of(prefix_hash)}

    def test_resume_after_interrupt_skips_done_cells(self, tmp_path):
        tasks = ablation_grid()
        store = ResultStore(tmp_path / "results.jsonl")
        cache = CheckpointCache(tmp_path / "ck")
        fork_sweep(
            tasks[:3], workers=1, cache=cache, store=store, run_id="resume-me"
        )
        cells = fork_sweep(
            tasks, workers=1, cache=cache, store=store, run_id="resume-me"
        )
        # Only the missing cells ran; the store now covers the grid.
        assert len(cells) == len(tasks) - 3
        assert store.completed("resume-me") == {t.task_id for t in tasks}

    def test_resume_of_finished_run_skips_prefix_simulation(self, tmp_path):
        """A completed sweep whose cache was gc'ed must not re-simulate
        prefixes nobody needs on resume."""
        tasks = ablation_grid()
        store = ResultStore(tmp_path / "results.jsonl")
        cache = CheckpointCache(tmp_path / "ck")
        fork_sweep(tasks, workers=1, cache=cache, store=store, run_id="done")
        cache.gc()
        seen = []
        cells = fork_sweep(
            tasks,
            workers=1,
            cache=cache,
            store=store,
            run_id="done",
            progress=lambda d, t, cell: seen.append(cell.task_id),
        )
        assert cells == [] and seen == []
        assert cache.entries() == []  # nothing was recomputed either

    def test_cold_cells_store_null_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        tasks = [
            SweepTask(
                task_id="cold",
                config=small_config(
                    failure_round=None, reinjection_round=None
                ),
            )
        ]
        fork_sweep(
            tasks,
            workers=1,
            cache=CheckpointCache(tmp_path / "ck"),
            store=store,
            run_id="r",
        )
        (record,) = store.cells(run_id="r")
        assert record["forked_from"] is None


class TestForkScenarios:
    def test_results_in_input_order(self, tmp_path):
        configs = [
            small_config(failure_fraction=f, reinjection_round=None)
            for f in (0.5, 0.25)
        ]
        results = fork_scenarios(configs, CheckpointCache(tmp_path))
        assert [r.config.failure_fraction for r in results] == [0.5, 0.25]

    def test_errors_are_reraised(self, tmp_path, monkeypatch):
        def boom(self):
            raise ValueError("exploded in the worker")

        monkeypatch.setattr(ForkContinuationTask, "run", boom)
        with pytest.raises(RunnerError, match="exploded"):
            fork_scenarios([small_config()], CheckpointCache(tmp_path))
