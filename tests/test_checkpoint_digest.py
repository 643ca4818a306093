"""A checkpoint is one pickle blob; ``state_digest`` is a pure read.

Three contracts of :mod:`repro.runtime.checkpoint`, each checked
against an independent reference kept here:

* the array-native digest of a batch simulation equals the
  materialise-then-``sorted(view)`` digest it replaced
  (:func:`oracle_digest`, the previous implementation run on a private
  copy) — under churn, on both topology stacks, in every corner the
  padded arrays have — and fingerprinting changes nothing;
* restoring from the pickled blob equals restoring by ``copy.deepcopy``
  (the previous implementation), identity-dependent state included;
* a damaged cache entry — truncated, or one bit flipped where the state
  digest does not look — is a checksum failure, a counted miss and a
  cold run, never a silently different result.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.experiments.scenario import (
    ScenarioConfig,
    finish_scenario,
    prefix_scenario,
    prepare_scenario,
    run_prefix,
    run_scenario,
)
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.runtime import checkpoint
from repro.runtime.checkpoint import _event_fingerprint, _rng_state
from repro.runtime.cluster import diff_stores
from repro.runtime.forksweep import (
    CheckpointCache,
    ForkContinuationTask,
    PrefixTask,
    clear_checkpoint_memo,
)
from repro.runtime.runner import ParallelRunner, SweepTask
from repro.runtime.scenarios import catastrophic, compose, flash_crowd, trickle
from repro.runtime.store import ResultStore
from repro.sim.engine import Simulation

from .helpers import NullLayer, backups_of, ghosts_of, grid_coords, make_sim
from repro.spaces import Euclidean


def config(engine: str = "batch", **overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=4,
        reinjection_round=9,
        total_rounds=14,
        seed=3,
        metrics=("homogeneity",),
        engine=engine,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- the oracle ---------------------------------------------------------------


def oracle_digest(sim: Simulation) -> str:
    """``state_digest`` by its definition, one node at a time: the set
    of ids in each array layer's row of the node (a row past a layer's
    allocation is empty) and every ``*_view`` dict attribute the node
    carries for a key no array layer states, ``sorted`` per view, not
    through ``Simulation.canonical_view_ids``'s row blocks.  Works on a
    private copy whose layers follow the table (placement is read row by
    row)."""
    sim = copy.deepcopy(sim)
    for layer in sim.layers:
        ensure_rows = getattr(layer, "_ensure_rows", None)
        if ensure_rows is not None:
            ensure_rows(sim.network.table)

    def node_state(node) -> tuple:
        entries = [("pos", node.pos)]
        views = {}
        for layer in sim.layers:
            attr = getattr(layer, "canonical_attr", None)
            if attr is not None:
                ids = layer.ids_rows(node.row) if node.row < layer.view_shape[0] else []
                views[attr] = sorted({int(i) for i in ids if i >= 0})
        for attr in vars(node):
            view = getattr(node, attr)
            if attr.endswith("_view") and attr not in views and isinstance(view, dict):
                views[attr] = sorted(view)
        entries += sorted(views.items())
        store = sim.placement
        if store is not None:
            # Read row by row, not through ``PlacementStore.canonical``.
            row = node.row
            sent = [
                (b, store.copy(row, slot))
                for slot, b in enumerate(store.backup_ids[row].tolist())
                if b >= 0
            ]
            entries.append(
                (
                    "poly",
                    (
                        sorted(store.guests(row)),
                        sorted(
                            (origin, tuple(sorted(pts)))
                            for origin, pts in ghosts_of(sim, node).items()
                        ),
                        sorted(backups_of(sim, node)),
                        sorted(
                            (nid, tuple(sorted(copy)))
                            for nid, copy in sent
                            if copy is not None
                        ),
                    ),
                )
            )
        return tuple(entries)

    h = hashlib.sha256()

    def feed(tag: str, value) -> None:
        h.update(tag.encode("utf8"))
        h.update(repr(value).encode("utf8"))

    feed("round", sim.round)
    feed("seed", sim.seed)
    feed("alive", sim.network.alive_ids())
    feed("dead", sim.network.dead_ids())
    for nid in sim.network.alive_ids():
        feed(f"node:{nid}", node_state(sim.network.node(nid)))
    for name in sorted(sim._rngs):
        feed(f"rng:{name}", _rng_state(sim._rngs[name]))
    feed("rng:engine", _rng_state(sim._engine_rng))
    feed("meter", [sorted(snap.items()) for snap in sim.meter.history])
    feed(
        "pending",
        [
            (rnd, [_event_fingerprint(event) for event in sim._events[rnd]])
            for rnd in sorted(sim._events)
        ],
    )
    return h.hexdigest()


def assert_digest_is_pure(sim: Simulation) -> str:
    """``state_digest(sim)`` equals the oracle and leaves ``sim`` alone."""
    before_keys = [sorted(vars(node)) for node in sim.network.nodes.values()]
    before_size = len(pickle.dumps(sim))
    digest = checkpoint.state_digest(sim)
    assert digest == oracle_digest(sim)
    assert [sorted(vars(n)) for n in sim.network.nodes.values()] == before_keys
    assert len(pickle.dumps(sim)) == before_size
    return digest


# -- array-native digest ≡ oracle ---------------------------------------------

CHURN = {
    "catastrophic": lambda grid: catastrophic(3, grid.width / 2),
    "trickle": lambda grid: trickle(1, 9, 0.06),
    "flash_crowd": lambda grid: compose(
        catastrophic(2, grid.width / 2),
        flash_crowd(6, grid.parallel(0.5).generate()[:10]),
    ),
    "everything": lambda grid: compose(
        trickle(1, 9, 0.04),
        catastrophic(3, grid.width / 3),
        flash_crowd(5, grid.parallel(0.5).generate()[:6]),
        flash_crowd(8, grid.parallel(0.25).generate()[:6]),
    ),
}


class TestArrayNativeDigestMatchesOracle:
    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    @given(
        churn=st.sampled_from(sorted(CHURN)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        checks=st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_under_churn(self, topology, churn, seed, checks):
        """Any churn schedule, any round: dead nodes, reclaimed rows,
        freshly joined nodes with bootstrap-only views."""
        cfg = config(
            failure_round=None,
            reinjection_round=None,
            total_rounds=12,
            topology=topology,
            seed=seed,
        )
        sim, *_ = prepare_scenario(cfg)
        CHURN[churn](cfg.grid).install(sim)
        for rnd in range(12):
            if rnd in checks:
                assert checkpoint.state_digest(sim) == oracle_digest(sim), (
                    f"{churn}/{topology} seed {seed} "
                    f"round {rnd}"
                )
            sim.step()
        assert_digest_is_pure(sim)

    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_every_round_of_the_paper_scenario(self, engine):
        """Converged, mid-repair and post-reinjection states — and the
        event engine, whose digest path did not change."""
        sim, *_ = prepare_scenario(config(engine))
        seen = set()
        for _ in range(config().total_rounds + 1):
            seen.add(assert_digest_is_pure(sim))
            sim.step()
        assert len(seen) == config().total_rounds + 1

    def test_empty_and_duplicated_view_rows(self):
        sim, *_ = prepare_scenario(config())
        sim.run(3)
        rps, tman = sim.layers[0], sim.layers[1]
        a, b, c = (sim.network.node(nid).row for nid in sim.network.alive_ids()[:3])
        rps._ids[a] = -1  # an alive node with an empty view
        tman._ids[b] = -1
        rps._ids[c, 1] = rps._ids[c, 0]  # a dict would keep one entry
        tman._ids[c, 2] = tman._ids[c, 0]  # one id in two slots
        assert_digest_is_pure(sim)
        views = sim.canonical_view_ids(np.array([a, b, c]))
        assert views["rps_view"][0] == [] and views["tman_view"][1] == []
        assert len(set(views["rps_view"][2])) == len(views["rps_view"][2])

    def test_rows_beyond_a_layers_allocation_read_as_empty(self):
        """A node no layer has initialised sits past the end of the view
        arrays; the digest reads it as an empty view and grows nothing."""
        sim, *_ = prepare_scenario(config())
        sim.run(2)
        node = sim.network.add_node((0.5, 0.5), None)
        allocated = [len(layer.ids_rows(slice(None))) for layer in sim.layers[:2]]
        assert all(node.row >= n for n in allocated)
        assert_digest_is_pure(sim)
        assert [len(layer.ids_rows(slice(None))) for layer in sim.layers[:2]] == allocated

    def test_stale_synced_views_are_ignored(self):
        """Nodes carrying ``*_view`` attributes for the keys the layers'
        arrays state (what a bridge writing views onto the nodes once
        left behind) digest like their clean twin, on both engines: the
        arrays are the views."""
        for engine in ("batch", "event"):
            self.assert_stale_views_are_ignored(engine)

    @staticmethod
    def assert_stale_views_are_ignored(engine):
        synced, *_ = prepare_scenario(config(engine))
        twin, *_ = prepare_scenario(config(engine))
        synced.run(5)
        twin.run(5)
        for node in synced.network.nodes.values():
            node.tman_view = {-5: None}
            if engine == "batch":
                node.rps_view = {-7: 0}
        assert checkpoint.state_digest(synced) == checkpoint.state_digest(twin)
        synced.run(3)
        twin.run(3)
        stale = synced.network.node(synced.network.alive_ids()[0])
        [row] = synced.canonical_view_ids(np.array([stale.row]))["tman_view"]
        assert sorted(stale.tman_view) != row
        assert checkpoint.state_digest(synced) == checkpoint.state_digest(twin)
        assert checkpoint.state_digest(synced) == oracle_digest(synced)

    def test_digest_calls_neither_sync_nor_materialize(self):
        """There is no bridge writing views onto nodes to call: the
        digest reads the layers' arrays and leaves every node's
        attributes as they were, on both engines."""
        for engine in ("batch", "event"):
            sim, *_ = prepare_scenario(config(engine))
            sim.run(2)
            assert not hasattr(sim, "sync_canonical")
            assert not [layer for layer in sim.layers if hasattr(layer, "materialize")]
            assert_digest_is_pure(sim)


# -- pickle restore ≡ deepcopy restore ----------------------------------------


@pytest.mark.parametrize("engine", ["batch", "event"])
class TestPickleRestoreMatchesDeepcopy:
    def test_state_and_continuation_are_digest_equal(self, engine):
        sim, *_ = prepare_scenario(config(engine))
        sim.run(6)  # mid-repair: the failure has fired, reinjection pends
        by_pickle = checkpoint.restore(checkpoint.snapshot(sim))
        by_deepcopy = copy.deepcopy(sim)
        assert type(by_pickle) is type(sim)
        assert checkpoint.state_digest(by_pickle) == checkpoint.state_digest(by_deepcopy)
        by_pickle.run(8)
        by_deepcopy.run(8)
        assert checkpoint.state_digest(by_pickle) == checkpoint.state_digest(by_deepcopy)
        assert by_pickle.observers[0].series == by_deepcopy.observers[0].series

    def test_scenario_handles_point_into_the_restored_graph(self, engine, tmp_path):
        cfg = config(engine)
        sim, *_ = prepare_scenario(cfg)
        sim.run(6)
        path = checkpoint.save(checkpoint.snapshot(sim), tmp_path / "mid.ckpt")
        restored = checkpoint.restore(checkpoint.load(path))
        handles = restored.scenario_handles
        assert handles.recorder is restored.observers[0]
        assert handles.snapshotter is restored.observers[1]
        assert handles.recorder is not sim.scenario_handles.recorder
        result, reference = finish_scenario(restored), run_scenario(cfg)
        assert result.series == reference.series
        assert result.reliability == reference.reliability
        assert result.snapshots == reference.snapshots
        assert result.message_history == reference.message_history

    def test_one_snapshot_restores_independent_simulations(self, engine):
        sim, *_ = prepare_scenario(config(engine))
        sim.run(5)
        ck = checkpoint.snapshot(sim)
        left, right = checkpoint.restore(ck), checkpoint.restore(ck)
        frozen = checkpoint.state_digest(right)
        left.run(4)
        left.network.node(left.network.alive_ids()[0]).pos = (0.25, 0.25)
        assert checkpoint.state_digest(right) == frozen
        assert checkpoint.state_digest(ck.sim) == frozen
        assert checkpoint.state_digest(checkpoint.restore(ck)) == frozen
        assert not np.shares_memory(
            left.network.table._coords, right.network.table._coords
        )


def test_ranked_view_identity_survives_restore():
    """The event engine's T-Man skips its distance kernel while a row's
    ``_ranked_at`` is the table's move count; a restore that broke
    the match would still be correct but silently slower."""
    sim, *_ = prepare_scenario(config("event", tman_view_cap=8))
    sim.run(6)

    def ranked(s):
        moves, tman = s.network.table.moves, s.topology
        return [
            nid
            for nid in s.network.alive_ids()
            if tman._ranked_at[s.network.node(nid).row] == moves
        ]

    assert ranked(sim)
    assert ranked(checkpoint.restore(checkpoint.snapshot(sim))) == ranked(sim)


def test_closure_event_simulation_is_checkpointable_in_memory(tmp_path):
    """The one ``copy.deepcopy`` left: a simulation that does not pickle
    snapshots and restores in memory; only ``save`` refuses it."""
    sim, _, _ = make_sim(Euclidean(dim=2), grid_coords(3, 3), [NullLayer()])
    fired = []
    sim.schedule(2, lambda s: fired.append(s.round))
    ck = checkpoint.snapshot(sim)
    assert ck.blob is None
    left, right = checkpoint.restore(ck), checkpoint.restore(ck)
    assert left is not right and left.network is not right.network
    left.run(3)
    assert fired == [2] and right.round == 0 and sim.round == 0
    assert checkpoint.state_digest(right) == checkpoint.state_digest(sim)
    with pytest.raises(CheckpointError, match="closure"):
        checkpoint.save(ck, tmp_path / "bad.ckpt")
    with pytest.raises(CheckpointError, match="closure"):
        checkpoint.checkpoint_size(ck)


# -- the fork-cycle budget ----------------------------------------------------


def fork_cells(base: ScenarioConfig):
    return [
        SweepTask(task_id=f"cut-{fraction}", config=config(**{**base, "failure_fraction": fraction}))
        for fraction in (0.25, 0.5, 0.75)
    ]


def test_fork_cycle_budget(tmp_path, monkeypatch):
    """Publish + three continuations of a 16x8 batch prefix: one pickle
    of the simulation, no deep copy, no materialised view or placement
    object, <= 3,375 checkpoint bytes per node (3,065 measured + 10 %;
    at 80x40 the gossip view arrays are 88 % of a checkpoint and the
    placement store 3 %)."""
    base = dict(width=16, height=8, failure_round=6, reinjection_round=None, total_rounds=9)
    cells = fork_cells(base)
    prefix = prefix_scenario(cells[0].config)
    calls = {"deepcopy": 0, "dumps": 0}
    real_dumps, real_deepcopy = pickle.dumps, copy.deepcopy

    def counting_dumps(obj, *args, **kwargs):
        calls["dumps"] += isinstance(obj, Simulation)
        return real_dumps(obj, *args, **kwargs)

    def counting_deepcopy(obj, *args, **kwargs):
        # ``dataclasses.asdict`` deep-copies the config's scalar leaves.
        calls["deepcopy"] += type(obj).__module__ != "builtins"
        return real_deepcopy(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)

    clear_checkpoint_memo()
    cache = CheckpointCache(tmp_path)
    PrefixTask(task_id="prefix", config=prefix, cache_root=str(tmp_path)).run()
    [entry] = cache.entries()
    for cell in cells:
        task = ForkContinuationTask(
            task_id=cell.task_id,
            config=cell.config,
            cache_root=str(tmp_path),
            prefix_hash=cache.key(prefix),
        )
        task.run()
        assert task.forked_from == entry["state_digest"]
    assert calls == {"deepcopy": 0, "dumps": 1}
    assert entry["size_bytes"] <= 3375 * prefix.n_nodes


def test_memo_holds_bytes_not_a_simulation(tmp_path):
    """What survives between tasks is the verified blob: no module-level
    structure pins an unpickled simulation."""
    from repro.runtime import forksweep

    cell = fork_cells(dict(failure_round=4, reinjection_round=None, total_rounds=6))[0]
    prefix = prefix_scenario(cell.config)
    clear_checkpoint_memo()
    PrefixTask(task_id="prefix", config=prefix, cache_root=str(tmp_path)).run()
    ForkContinuationTask(
        task_id=cell.task_id,
        config=cell.config,
        cache_root=str(tmp_path),
        prefix_hash=CheckpointCache.key(prefix),
    ).run()
    [(memoized, _digest)] = forksweep._CKPT_MEMO.values()
    assert isinstance(memoized.blob, bytes)
    assert not any(isinstance(v, Simulation) for v in vars(memoized).values())
    clear_checkpoint_memo()


@pytest.mark.slow
def test_fork_mode_beats_cold_at_40x20(tmp_path):
    """Three continuations of one 40x20 batch prefix, in this process:
    fork mode must take <= 0.9x the cold wall (the deep-copy checkpoint
    path cost more than the prefix it saved).  Best of two alternating
    rounds a side, so one scheduling hiccup cannot decide it."""
    from repro.runtime.dispatch import run_sweep

    cells = fork_cells(
        dict(width=40, height=20, failure_round=10, reinjection_round=None, total_rounds=16)
    )
    cold_s, fork_s = [], []
    for attempt in range(2):
        start = time.perf_counter()
        cold = ParallelRunner(workers=1).run(cells)
        cold_s.append(time.perf_counter() - start)
        clear_checkpoint_memo()
        start = time.perf_counter()
        forked = run_sweep(
            cells,
            fork=True,
            executor=ParallelRunner(workers=1),
            cache=CheckpointCache(tmp_path / f"cache-{attempt}"),
        )
        fork_s.append(time.perf_counter() - start)
        for a, b in zip(cold, forked):
            assert b.forked_from is not None
            assert a.result.series == b.result.series
            assert a.result.reliability == b.result.reliability
    assert min(fork_s) <= 0.9 * min(cold_s), (fork_s, cold_s)


# -- a damaged entry is a checksum failure, a miss and a cold run -------------


def _truncate(path, sim) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_tman_coordinate_bit(path, sim) -> None:
    """One mantissa bit of a coordinate T-Man ranks a view entry at — in
    the node table's float column, which the digest does not read (it
    reads each node's canonical position object), so only the byte
    checksum can see it."""
    table = sim.network.table
    row = table.row(int(sim.layers[1]._ids[table.row(0), 0]))
    raw = bytearray(path.read_bytes())
    start = raw.find(table._coords.tobytes())
    assert start > 0
    raw[start + table._coords[:row].nbytes] ^= 0x04  # a low mantissa byte
    path.write_bytes(bytes(raw))


def _rewrite_as_format(stale):
    """The same state behind a stale format's header (checksum intact):
    what an older build wrote — format 5 batch views as an id and a
    coordinate per slot, format 6 as descriptor versions into a
    per-layer table, format 7 event views as per-node view objects."""

    def rewrite(path, sim) -> None:
        checkpoint.save(
            checkpoint.SimulationCheckpoint(
                format=stale,
                round=sim.round,
                seed=sim.seed,
                n_alive=sim.network.n_alive,
                n_total=sim.network.n_total,
                layer_names=[layer.name for layer in sim.layers],
                sim=sim,
            ),
            path,
        )

    return rewrite


@pytest.fixture
def obs_on(tmp_path):
    obs_metrics.set_enabled(True)
    obs_log.set_events_path(tmp_path / "events.jsonl")
    yield tmp_path / "events.jsonl"
    obs_metrics.set_enabled(False)
    obs_metrics.registry().reset()
    obs_log.set_events_path(None)


@pytest.mark.parametrize("damage", [_truncate, _flip_tman_coordinate_bit])
def test_damaged_entry_fetched_by_a_worker_runs_cold(tmp_path, obs_on, damage):
    """ROADMAP 6(b): a worker fetching the checkpoint its coordinator
    announced (``expect_digest``) finds it damaged — the entry is
    discarded, the miss is counted and logged, the cell runs cold and
    its stored result is ``diff_stores``-equal to a cold sweep's."""
    assert_refused_entry_runs_cold(tmp_path, obs_on, damage, "checksum")


def test_format_5_entry_is_refused_as_stale_and_runs_cold(tmp_path, obs_on):
    """A cache entry a format-5 build published (batch views as an id
    and a coordinate per slot) is refused by its format number, not
    unpickled; the fork sweep's cell falls back to a cold run."""
    assert_refused_entry_runs_cold(
        tmp_path, obs_on, _rewrite_as_format(5), "unsupported checkpoint format 5 "
    )


def test_format_6_entry_is_refused_as_stale_and_runs_cold(tmp_path, obs_on):
    """A cache entry a format-6 build published (batch views as
    descriptor versions into a per-layer table) is refused by its format
    number, not unpickled; the fork sweep's cell falls back to a cold
    run."""
    assert_refused_entry_runs_cold(
        tmp_path, obs_on, _rewrite_as_format(6), "unsupported checkpoint format 6 "
    )


def test_format_7_entry_is_refused_as_stale_and_runs_cold(tmp_path, obs_on):
    """A cache entry a format-7 build published (event-engine views as
    per-node view objects) is refused by its format number, not
    unpickled; the fork sweep's cell falls back to a cold run."""
    assert_refused_entry_runs_cold(
        tmp_path, obs_on, _rewrite_as_format(7), "unsupported checkpoint format 7 "
    )


def test_format_8_entry_is_refused_as_stale_and_runs_cold(tmp_path, obs_on):
    """A cache entry a format-8 build published (a node table with a
    free list, a simulation with a retention setting) is refused by its
    format number, not unpickled; the fork sweep's cell falls back to a
    cold run."""
    assert_refused_entry_runs_cold(
        tmp_path, obs_on, _rewrite_as_format(8), "unsupported checkpoint format 8 "
    )


def assert_refused_entry_runs_cold(tmp_path, events, damage, refusal) -> None:
    cfg = config(failure_round=5, reinjection_round=None, total_rounds=8)
    prefix = prefix_scenario(cfg)
    sim = run_prefix(cfg)
    cache = CheckpointCache(tmp_path / "cache")
    digest, path = cache.publish(prefix, checkpoint.snapshot(sim))
    damage(path, sim)
    with pytest.raises(CheckpointError, match=refusal):
        checkpoint.load(path)

    clear_checkpoint_memo()
    task = ForkContinuationTask(
        task_id="cell",
        config=cfg,
        cache_root=str(cache.root),
        prefix_hash=cache.key(prefix),
        expect_digest=digest,
    )
    forked_store = ResultStore(tmp_path / "fork.jsonl")
    [cell] = ParallelRunner(workers=1).run([task], store=forked_store)
    assert cell.ok and cell.forked_from is None
    assert cell.metrics["counters"]["checkpoint.corrupt"] == 1
    assert cell.metrics["counters"]["cells.cold"] == 1
    assert not path.exists() and not path.with_suffix(".json").exists()
    logged = [json.loads(line)["event"] for line in events.read_text().splitlines()]
    assert "checkpoint.corrupt" in logged

    cold_store = ResultStore(tmp_path / "cold.jsonl")
    ParallelRunner(workers=1).run(
        [SweepTask(task_id="cell", config=cfg)], store=cold_store
    )
    assert diff_stores(cold_store, forked_store) == []


def test_intact_entry_with_expected_digest_forks(tmp_path):
    """The control for the damage cases: same path, nothing damaged."""
    cfg = config(failure_round=5, reinjection_round=None, total_rounds=8)
    prefix = prefix_scenario(cfg)
    cache = CheckpointCache(tmp_path)
    digest, _ = cache.publish(prefix, checkpoint.snapshot(run_prefix(cfg)))
    clear_checkpoint_memo()
    task = ForkContinuationTask(
        task_id="cell",
        config=cfg,
        cache_root=str(tmp_path),
        prefix_hash=cache.key(prefix),
        expect_digest=digest,
    )
    result = task.run()
    assert task.forked_from == digest
    assert result.series == run_scenario(cfg).series


def test_sidecar_is_written_atomically(tmp_path, monkeypatch):
    """A publisher killed while writing the JSON sidecar must leave no
    torn sidecar behind: it goes through write-then-rename like the
    blob."""
    from repro.runtime import forksweep

    written = []
    real = forksweep.atomic_write
    monkeypatch.setattr(
        forksweep, "atomic_write", lambda path, data: (written.append(path), real(path, data))
    )
    cfg = config()
    _, path = CheckpointCache(tmp_path).publish(
        prefix_scenario(cfg), checkpoint.snapshot(run_prefix(cfg))
    )
    assert written == [path.with_suffix(".json")]
    assert not hasattr(CheckpointCache, "store")
