"""Placement state as arrays (``repro.sim.batch.placement``).

* array ≡ dict oracle: a batch simulation on the array layer and its
  twin on ``tests/placement_oracle.DictPolystyrene`` (the dict walk the
  arrays replaced) agree on every round of any churn schedule — state
  digest (placement, positions, RNG streams, meter units), recorded
  series, reliability sample;
* the store's invariants, each one vector compare, every round;
* ``adopt(materialize(x))`` is the identity; fingerprinting and
  stepping leave no per-node placement object behind;
* the array readers the observers use equal the node-sequence
  definitions in ``repro.core.state`` on the materialised objects.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_pkg
from repro.core import state as node_state
from repro.errors import SimulationError
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.metrics.balance import guest_counts, load_balance
from repro.metrics.homogeneity import (
    holder_multiplicity,
    homogeneity,
    lost_points,
    surviving_fraction,
)
from repro.metrics.storage import average_storage, node_storage, total_unique_points
from repro.runtime import checkpoint
from repro.runtime.checkpoint import _poly_state, state_digest
from repro.runtime.scenarios import (
    catastrophic,
    compose,
    correlated_region,
    flash_crowd,
    mass_failure,
    trickle,
)
from repro.sim.batch import BatchPolystyrene, convert
from repro.sim.batch.placement import PlacementStore
from repro.sim.network import SimNode

from .placement_oracle import DictPolystyrene

ROUNDS = 14


def config(**overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=None,
        reinjection_round=None,
        total_rounds=ROUNDS,
        seed=3,
        metrics=("homogeneity", "storage", "message_cost"),
        engine="batch",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


CHURN = {
    "none": lambda cfg: compose(),
    "catastrophic": lambda cfg: catastrophic(3, cfg.grid.width / 2),
    "correlated_region": lambda cfg: correlated_region(
        cfg.grid.space(), 3, (2.0, 2.0), 2.5
    ),
    "trickle": lambda cfg: trickle(1, 10, 0.08),
    "flash_crowd": lambda cfg: compose(
        catastrophic(2, cfg.grid.width / 2),
        flash_crowd(7, cfg.grid.parallel(0.5).generate()[:12]),
    ),
    # Two failures, joins into rows the retention sweep has freed, then
    # a failure that takes some of the joiners.
    "everything": lambda cfg: compose(
        trickle(1, 9, 0.04),
        catastrophic(3, cfg.grid.width / 3),
        mass_failure(5, 0.3),
        flash_crowd(8, cfg.grid.parallel(0.5).generate()[::3]),
        mass_failure(11, 0.3, seed_key="late"),
    ),
}


def twins(cfg: ScenarioConfig, churn: str, monkeypatch):
    """``(array simulation, dict-oracle simulation)``, same everything."""
    arrays = prepare_scenario(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(batch_pkg, "BatchPolystyrene", DictPolystyrene)
        oracle = prepare_scenario(cfg)
    assert isinstance(arrays[0].layers[2], BatchPolystyrene)
    assert isinstance(oracle[0].layers[2], DictPolystyrene)
    assert oracle[0].placement is None
    for sim, *_ in (arrays, oracle):
        CHURN[churn](cfg).install(sim)
    return arrays, oracle


def assert_same_state(arrays, oracle, where: str) -> None:
    sim_a, rec_a, _, _, probe_a = arrays
    sim_o, rec_o, _, _, probe_o = oracle
    if state_digest(sim_a) != state_digest(sim_o):
        # Name the first difference instead of two hashes.
        rows = sim_a.canonical_placement()
        for nid in sim_a.network.alive_ids():
            a, o = sim_a.network.node(nid), sim_o.network.node(nid)
            assert a.pos == o.pos, f"{where}: node {nid} position"
            assert rows[a.row] == _poly_state(o.poly), f"{where}: node {nid} placement"
        assert sim_a.meter.history == sim_o.meter.history, f"{where}: meter units"
        pytest.fail(f"{where}: digests differ outside placement/positions/meter")
    assert rec_a.series == rec_o.series, where
    assert probe_a.samples == probe_o.samples, where


# -- array ≡ oracle -----------------------------------------------------------


@given(
    churn=st.sampled_from(sorted(CHURN)),
    retention=st.sampled_from([None, 4]),
    detector_delay=st.sampled_from([0, 2]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_array_layer_equals_dict_oracle_under_churn(
    churn, retention, detector_delay, seed
):
    cfg = config(seed=seed, retention_rounds=retention, detector_delay=detector_delay)
    with pytest.MonkeyPatch.context() as monkeypatch:
        arrays, oracle = twins(cfg, churn, monkeypatch)
    for rnd in range(ROUNDS):
        arrays[0].step()
        oracle[0].step()
        assert_same_state(arrays, oracle, f"{churn} seed {seed} round {rnd}")


@pytest.mark.parametrize(
    "overrides",
    [
        dict(incremental_backup=False),
        dict(backup_placement="neighbors"),
        dict(backup_placement="neighbors", replication=8),  # forces the fallback
        dict(replication=2),
        dict(split="basic"),
        dict(split="pd"),
        dict(split="md"),
        dict(topology="vicinity"),
        dict(width=12, height=6, retention_rounds=3),
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
@pytest.mark.parametrize("churn", ["everything", "flash_crowd"])
def test_array_layer_equals_dict_oracle_on_every_option(overrides, churn, monkeypatch):
    """The branches no golden digest runs: full pushes, neighbour
    placement and its peer-sampling fallback, every SPLIT variant."""
    cfg = config(seed=11, **overrides)
    arrays, oracle = twins(cfg, churn, monkeypatch)
    for rnd in range(ROUNDS):
        arrays[0].step()
        oracle[0].step()
        assert_same_state(arrays, oracle, f"{overrides} {churn} round {rnd}")


def test_centroid_projection_equals_dict_oracle(monkeypatch):
    """Centroid projection needs a Euclidean space, which no scenario
    builds: drive the two layers' projection pass directly."""
    from repro.core.config import PolystyreneConfig
    from repro.spaces.euclidean import Euclidean

    cfg = config(seed=5)
    arrays, oracle = twins(cfg, "catastrophic", monkeypatch)
    for sim, *_ in (arrays, oracle):
        sim.run(6)  # past the failure: guest rows of 1..several points
        layer = sim.layers[2]
        layer.space = Euclidean(2)
        layer.config = PolystyreneConfig(projection="centroid")
    sim_a, sim_o = arrays[0], oracle[0]
    rows = np.flatnonzero(sim_a.network.table.alive_rows())
    sim_a.layers[2]._project(sim_a, rows)
    sim_o.layers[2]._changed.update(sim_o.network.alive_ids())
    sim_o.layers[2]._project(sim_o)
    for nid in sim_a.network.alive_ids():
        assert sim_a.network.node(nid).pos == sim_o.network.node(nid).pos


# -- invariants, one vector compare each --------------------------------------


def check_invariants(sim, points, lost_before: set) -> set:
    layer = sim.layers[2]
    store: PlacementStore = layer.placement
    table = sim.network.table
    n = table.n_rows
    act = np.flatnonzero(table.alive_rows())
    G, K = store.width, store.replication
    col = np.arange(G)

    # counts <= width; pads are -1 exactly past the count, ids before it
    assert (store.guest_n[:n] <= G).all() and (store.sent_n[:n] <= G).all()
    assert ((store.guest_ids[:n] >= 0) == (col < store.guest_n[:n, None])).all()
    assert (
        (store.sent_ids[:n] >= 0) == (col < store.sent_n[:n, :, None])
    ).all()
    # no pid twice in a guest row
    block = np.sort(store.guest_ids[act], axis=1)
    assert not ((block[:, 1:] == block[:, :-1]) & (block[:, 1:] >= 0)).any()
    # a copy only sits in a named slot
    assert (store.backup_ids[:n][store.sent_n[:n] >= 0] >= 0).all()
    # an alive node's backup slot never names itself, twice the same
    # node, or (once the drop scan ran this round) a detected id
    held = store.backup_ids[act]
    assert not (held == store.owner[act, None]).any()
    ordered = np.sort(held, axis=1)
    assert not ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any()
    assert not sim.detected_entry_mask(held).any()
    assert (store.owner[act] == table._nid_of[act]).all()

    # the guest block and its inverse agree both ways
    pids, rows = store.holder_pairs(act)
    holder = np.full(len(layer._point_coords), -1, dtype=np.int64)
    holder[pids] = rows  # some holder of each held pid
    assert (store.guest_ids[holder[pids]] == pids[:, None]).any(axis=1).all()
    back = store.guest_ids[act]
    assert (holder[back[back >= 0]] >= 0).all()

    # every pid has >= 1 live holder, or a live ghost copy pending
    # activation, or is lost — and once lost it never comes back
    all_pids = np.fromiter((p.pid for p in points), np.int64, len(points))
    guest = np.zeros(len(layer._point_coords), dtype=bool)
    guest[pids] = True
    anywhere = store.held_mask(table, act, len(layer._point_coords))
    assert (anywhere | ~guest).all()  # a guest is held
    lost = set(all_pids[~anywhere[all_pids]].tolist())
    assert lost_before <= lost, "a lost point reappeared"
    return lost


@given(
    churn=st.sampled_from(sorted(CHURN)),
    retention=st.sampled_from([None, 4]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_store_invariants_hold_every_round(churn, retention, seed):
    cfg = config(seed=seed, retention_rounds=retention, metrics=())
    sim, _, _, points, _ = prepare_scenario(cfg)
    CHURN[churn](cfg).install(sim)
    lost: set = set()
    for _ in range(ROUNDS):
        sim.step()
        lost = check_invariants(sim, points, lost)


def test_no_wave_loses_or_duplicates_a_point(monkeypatch):
    """Across every wave of a churned run, the multiset of pids over the
    two rows of each pair is the set union of what they held before."""
    cfg = config(seed=9, metrics=())
    sim, *_ = prepare_scenario(cfg)
    CHURN["everything"](cfg).install(sim)
    layer = sim.layers[2]
    store = layer.placement
    real = BatchPolystyrene._execute_pairs
    waves = []

    def checked(self, sim_, pair_rows):
        def held(rows):
            return [set(r[r >= 0].tolist()) for r in store.guest_ids[rows]]

        before = [q | p for q, p in zip(held(pair_rows[0]), held(pair_rows[1]))]
        out = real(self, sim_, pair_rows)
        q_after, p_after = held(pair_rows[0]), held(pair_rows[1])
        for union, q, p in zip(before, q_after, p_after):
            assert q | p == union and not q & p
        assert (store.guest_n[pair_rows] == [[len(s) for s in q_after], [len(s) for s in p_after]]).all()
        waves.append(pair_rows.shape[1])
        return out

    monkeypatch.setattr(BatchPolystyrene, "_execute_pairs", checked)
    sim.run(ROUNDS)
    assert len(waves) > ROUNDS  # several waves a round


# -- materialize / adopt; purity ----------------------------------------------


def store_arrays(store: PlacementStore):
    return {
        name: getattr(store, name).copy()
        for name in ("guest_ids", "guest_n", "backup_ids", "sent_ids", "sent_n", "owner")
    }


@pytest.mark.parametrize("churn", ["none", "everything"])
def test_adopt_of_materialize_is_the_identity(churn):
    cfg = config(seed=4, retention_rounds=4)
    sim, *_ = prepare_scenario(cfg)
    CHURN[churn](cfg).install(sim)
    sim.run(9)
    layer = sim.layers[2]
    digest = state_digest(sim)
    canonical = sim.canonical_placement()
    guests = store_arrays(layer.placement)["guest_ids"]
    sim.sync_canonical()
    layer.adopt(sim)
    assert not any(hasattr(node, "poly") for node in sim.network.nodes.values())
    assert sim.canonical_placement() == canonical
    assert state_digest(sim) == digest
    # guest *order* survives the trip (it decides the next projection)
    alive = np.flatnonzero(sim.network.table.alive_rows())
    assert (layer.placement.guest_ids[alive] == guests[alive]).all()
    # ... and so does the run: the twin that never made the trip agrees
    twin, *_ = prepare_scenario(cfg)
    CHURN[churn](cfg).install(twin)
    twin.run(9)
    sim.run(ROUNDS - 9)
    twin.run(ROUNDS - 9)
    assert state_digest(sim) == state_digest(twin)


def test_no_placement_object_exists_between_rounds():
    sim, *_ = prepare_scenario(
        config(failure_round=5, reinjection_round=20, total_rounds=40)
    )
    sim.run(40)
    assert not any("poly" in vars(node) for node in sim.network.nodes.values())
    before_vars = [dict(vars(node)) for node in sim.network.nodes.values()]
    before_size = len(pickle.dumps(sim))
    state_digest(sim)
    assert [dict(vars(n)) for n in sim.network.nodes.values()] == before_vars
    assert len(pickle.dumps(sim)) == before_size
    sim.sync_canonical()  # the one way to get them
    assert all("poly" in vars(node) for node in sim.network.nodes.values())


def test_digest_never_materialises_placement(monkeypatch):
    sim, *_ = prepare_scenario(config())
    sim.run(3)

    def forbidden(*args, **kwargs):
        raise AssertionError("state_digest must not materialise placement")

    monkeypatch.setattr(PlacementStore, "materialize", forbidden)
    monkeypatch.setattr(BatchPolystyrene, "materialize", forbidden)
    state_digest(sim)


def test_stale_materialised_placement_is_ignored():
    synced, *_ = prepare_scenario(config())
    twin, *_ = prepare_scenario(config())
    for sim in (synced, twin):
        CHURN["catastrophic"](config()).install(sim)
        sim.run(5)
    synced.sync_canonical()
    synced.run(4)
    twin.run(4)
    assert state_digest(synced) == state_digest(twin)


# -- the observers' array reads ≡ the node-sequence definitions ---------------


@pytest.mark.parametrize("churn", sorted(CHURN))
def test_array_readers_equal_node_sequence_definitions(churn):
    cfg = config(seed=6, retention_rounds=4)
    sim, recorder, _, points, _ = prepare_scenario(cfg)
    CHURN[churn](cfg).install(sim)
    space = sim.space
    for _ in range(ROUNDS):
        sim.step()
        alive = sim.network.alive_nodes()
        store = sim.placement
        some = points[: len(points) // 3]  # stored pids exceed the asked ones
        got = (
            homogeneity(space, points, alive, placement=store),
            surviving_fraction(points, alive, store),
            surviving_fraction(some, alive, store),
            lost_points(points, alive, store),
            average_storage(alive, store),
            total_unique_points(alive, store),
            holder_multiplicity(alive, store),
            guest_counts(alive, store).tolist(),
        )
        sim.sync_canonical()
        want = (
            homogeneity(space, points, alive),
            surviving_fraction(points, alive),
            surviving_fraction(some, alive),
            lost_points(points, alive),
            average_storage(alive),
            total_unique_points(alive),
            holder_multiplicity(alive),
            guest_counts(alive).tolist(),
        )
        assert got == want
        assert node_state.stored_points(alive) == store.stored_points(
            sim.network.table, np.asarray([n.row for n in alive], dtype=np.int64)
        )


def test_unsynced_batch_nodes_refuse_the_node_sequence_readers():
    """A batch node without ``poly`` does not hold nothing: its state is
    in the store, and a reader that was not handed it says so."""
    sim, _, _, points, _ = prepare_scenario(config())
    sim.run(2)
    alive = sim.network.alive_nodes()
    readers = (
        lambda: homogeneity(sim.space, points, alive),
        lambda: surviving_fraction(points, alive),
        lambda: lost_points(points, alive),
        lambda: average_storage(alive),
        lambda: node_storage(alive[0]),
        lambda: total_unique_points(alive),
        lambda: holder_multiplicity(alive),
        lambda: load_balance(alive),
    )
    for read in readers:
        with pytest.raises(SimulationError, match="sim.placement"):
            read()
    sim.sync_canonical()
    for read in readers:
        read()
    # nodes no layer gave state to still count as holding nothing
    assert average_storage([SimNode(0, (0.0, 0.0))]) == 0.0
    # ... and after a conversion ``node.poly`` is the state again
    event = convert.to_event(sim)
    assert surviving_fraction(points, event.network.alive_nodes()) == 1.0
    event.run(1)
    assert surviving_fraction(points, event.network.alive_nodes()) == 1.0


def test_rows_grow_by_the_tables_policy_and_land_on_the_ledger():
    from repro.obs import mem as obs_mem

    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        sim, *_ = prepare_scenario(config(width=12, height=6))
        store = sim.placement
        assert len(store.guest_n) == sim.network.table.capacity == 72
        family = obs_mem.snapshot()["families"]["protocol_placement"]
        assert family["cur"] == store.nbytes
        store.ensure_width(store.width + 1)
        family = obs_mem.snapshot()["families"]["protocol_placement"]
        assert family["cur"] == store.nbytes
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()


@pytest.mark.parametrize("churn", ["none", "everything"])
def test_store_pickles_its_occupied_part_and_restores_bit_identically(churn):
    cfg = config(seed=8, retention_rounds=4)
    sim, *_ = prepare_scenario(cfg)
    CHURN[churn](cfg).install(sim)
    sim.run(10)
    store = sim.placement
    blob = pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < store.nbytes  # pads do not travel
    back = pickle.loads(blob)
    for name, want in store_arrays(store).items():
        got = getattr(back, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert (got == want).all(), name
    assert (back.width, back.replication) == (store.width, store.replication)
    restored = checkpoint.restore(checkpoint.snapshot(sim))
    sim.run(4)
    restored.run(4)
    assert state_digest(restored) == state_digest(sim)


@pytest.mark.parametrize("churn", ["everything", "flash_crowd"])
@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_blocked_protocol_passes_equal_whole_ones(churn, rows_per_block, monkeypatch):
    """The push-delta compare, the in-pool duplicate compare and the
    medoid pass each work a row block at a time under the scratch
    budget; rows are independent, so any block size is the same run."""
    from repro.sim.batch import kernels

    cfg = config(seed=13, retention_rounds=4)
    whole, *_ = prepare_scenario(cfg)
    blocked, *_ = prepare_scenario(cfg)
    for sim in (whole, blocked):
        CHURN[churn](cfg).install(sim)
    whole.run(ROUNDS)
    monkeypatch.setattr(kernels, "block_rows", lambda *a, **k: rows_per_block)
    for rnd in range(ROUNDS):
        blocked.step()
    assert state_digest(blocked) == state_digest(whole)
