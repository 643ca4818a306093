"""Tests for the T-Man topology construction layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.rps import PeerSamplingLayer
from repro.gossip.tman import TManLayer
from repro.metrics.proximity import proximity
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import grid_coords, rank_entries, set_view, view_of


def build(width=8, height=8, seed=0, **tman_kwargs):
    space = FlatTorus(float(width), float(height))
    network = Network()
    for coord in grid_coords(width, height):
        network.add_node(coord)
    rps = PeerSamplingLayer(view_size=8, shuffle_length=4)
    kwargs = dict(message_size=10, psi=5, view_cap=30, bootstrap_size=5)
    kwargs.update(tman_kwargs)
    tman = TManLayer(space, rps, **kwargs)
    sim = Simulation(space, network, [rps, tman], seed=seed)
    sim.init_all_nodes()
    return sim, tman


class TestValidation:
    def test_message_size(self):
        space = FlatTorus(4.0)
        rps = PeerSamplingLayer(view_size=4, shuffle_length=2)
        with pytest.raises(ValueError):
            TManLayer(space, rps, message_size=0)

    def test_psi(self):
        space = FlatTorus(4.0)
        rps = PeerSamplingLayer(view_size=4, shuffle_length=2)
        with pytest.raises(ValueError):
            TManLayer(space, rps, psi=0)

    def test_view_cap(self):
        space = FlatTorus(4.0)
        rps = PeerSamplingLayer(view_size=4, shuffle_length=2)
        with pytest.raises(ValueError):
            TManLayer(space, rps, view_cap=0)


class TestInit:
    def test_bootstrap_from_rps(self):
        sim, tman = build()
        for node in sim.network.alive_nodes():
            assert 0 < len(view_of(sim, node)) <= tman.bootstrap_size
            assert node.nid not in view_of(sim, node)


class TestConvergence:
    def test_proximity_improves(self):
        sim, tman = build()
        start = proximity(sim.space, sim)
        sim.run(15)
        end = proximity(sim.space, sim)
        assert end < start

    def test_converges_to_grid_neighbours(self):
        sim, tman = build()
        sim.run(20)
        # On a converged unit grid the 4 closest neighbours are at
        # distance 1, so proximity approaches 1.0.
        assert proximity(sim.space, sim) < 1.25

    def test_view_bounded_by_cap(self):
        sim, tman = build(view_cap=12)
        sim.run(10)
        for node in sim.network.alive_nodes():
            assert len(view_of(sim, node)) <= 12

    def test_deterministic_given_seed(self):
        sim_a, _ = build(seed=3)
        sim_b, _ = build(seed=3)
        sim_a.run(5)
        sim_b.run(5)
        views_a = {n.nid: view_of(sim_a, n) for n in sim_a.network.alive_nodes()}
        views_b = {n.nid: view_of(sim_b, n) for n in sim_b.network.alive_nodes()}
        assert views_a == views_b


class TestNeighbors:
    def test_neighbors_sorted_and_alive(self):
        sim, tman = build()
        sim.run(10)
        node = sim.network.node(0)
        neigh = tman.neighbors(sim, node, 4)
        assert len(neigh) == 4
        dists = [
            sim.space.distance(node.pos, sim.network.node(nid).pos) for nid in neigh
        ]
        assert dists == sorted(dists)

    def test_neighbors_skip_dead(self):
        sim, tman = build()
        sim.run(5)
        node = sim.network.node(0)
        victims = view_of(sim, node)[:3]
        sim.network.fail(victims, rnd=sim.round)
        neigh = tman.neighbors(sim, node, 10)
        assert not (set(neigh) & set(victims))

    def test_neighbors_empty_view(self):
        sim, tman = build()
        node = sim.network.node(0)
        set_view(sim, node, [])
        assert tman.neighbors(sim, node, 4) == []


class TestFailureHandling:
    def test_dead_entries_purged_on_gossip(self):
        sim, _ = build()
        sim.run(5)
        victims = list(range(8))
        sim.network.fail(victims, rnd=sim.round)
        sim.run(2)
        for node in sim.network.alive_nodes():
            assert not (set(view_of(sim, node)) & set(victims))

    def test_boundary_relinks_after_half_failure(self):
        sim, _ = build()
        sim.run(10)
        victims = [n for n in range(64) if n // 8 < 4]  # x < 4 columns
        sim.network.fail(victims, rnd=sim.round)
        sim.run(5)
        # Survivors keep functional neighbourhoods (links healed).
        assert proximity(sim.space, sim) < 3.0

    def test_view_rebootstraps_when_emptied(self):
        sim, _ = build()
        node = sim.network.node(0)
        set_view(sim, node, [])
        sim.run(1)
        assert len(view_of(sim, node)) > 0


class TestTraffic:
    def test_charges_tman_layer(self):
        sim, _ = build()
        sim.run(1)
        assert sim.meter.history[0].get("tman", 0) > 0

    def test_cost_bounded_by_message_size(self):
        sim, tman = build(message_size=10)
        sim.run(3)
        n = sim.network.n_alive
        for snapshot in sim.meter.history:
            # Each node initiates one exchange: 2 buffers of <= m
            # descriptors (3 units each), and is partner in at most
            # n-1 more — bound the per-round total loosely.
            assert snapshot["tman"] <= n * 2 * 2 * 10 * 3

    def test_updates_refresh_positions(self):
        """A view is never stale: after a node moves, every peer that
        holds it ranks it at its new position."""
        sim, tman = build()
        sim.run(5)
        node = sim.network.node(0)
        node.pos = (3.3, 3.3)
        sim.run(2)
        holders = [o for o in sim.network.alive_nodes() if 0 in view_of(sim, o)]
        assert holders
        for other in holders:
            ids = tman._ranked_ids(sim, other, tman.row_ids(other.row)).tolist()
            dists = [sim.space.distance(other.pos, sim.network.node(n).pos) for n in ids]
            assert dists == sorted(dists)


def test_views_are_their_two_arrays_after_an_event_run():
    """After failure, repair and reinjection on the event engine, the
    views are the T-Man layer's store and nothing else: an int32 id row
    per table row beside one rank-memo column, sized to the table, and
    no node holds a view attribute."""
    from repro.experiments.scenario import ScenarioConfig, prepare_scenario

    config = ScenarioConfig(
        width=32, height=16, failure_round=3, reinjection_round=6,
        total_rounds=9, metrics=(), seed=2,
    )
    sim, *_ = prepare_scenario(config)
    sim.run(config.total_rounds)
    tman = sim.topology
    assert type(tman) is TManLayer and tman._ages is None
    cap = sim.network.table.capacity
    assert tman._ids.dtype == np.int32 and tman._ids.shape == (cap, config.tman_view_cap)
    assert tman._ranked_at.shape == (cap,)
    assert tman.nbytes == tman._ids.nbytes + tman._ranked_at.nbytes
    for node in sim.network.nodes.values():
        assert not any(name.startswith(("tman", "vicinity")) for name in vars(node))
    for node in sim.network.alive_nodes():
        row = tman._ids[node.row]
        n = len(view_of(sim, node))
        assert n > 0 and (row[:n] >= 0).all() and (row[n:] == -1).all()


# -- the ranked merge ---------------------------------------------------------

#: Half-step lattice coordinates on the 8x8 torus of :func:`build`, so
#: equal distances (and so the id tie-break) are common.
lattice = st.tuples(
    st.integers(0, 15).map(lambda x: x / 2), st.integers(0, 15).map(lambda y: y / 2)
)


@st.composite
def merge_cases(draw):
    """A view (under or over the cap, ranked for its owner or not), a
    message holding the owner's id, detected ids, held ids and unknown
    ids, and new positions for the peers of both."""
    owner = draw(st.integers(0, 63))
    others = [nid for nid in range(64) if nid != owner]
    cap = draw(st.integers(1, 12))
    view = draw(st.lists(st.sampled_from(others), unique=True, max_size=2 * cap))
    sent = draw(st.lists(st.sampled_from(range(64)), unique=True, max_size=10))
    if draw(st.booleans()) and owner not in sent:
        sent.append(owner)
    moved = {nid: draw(lattice) for nid in view + sent if nid != owner}
    detected = frozenset(draw(st.lists(st.sampled_from(others), max_size=6)))
    return owner, cap, view, draw(st.booleans()), sent, moved, detected


@given(merge_cases())
@settings(max_examples=200, deadline=None)
def test_ranked_merge_holds_what_merge_then_cap_holds(case):
    """T-Man's ranked merge keeps exactly the ids of the dict merge rule
    (the view's keys, then every sent id but the owner's and departed
    ones) followed by the bounded-view rule (the ``cap`` closest to the
    owner when over it) at the peers' *current* positions, in (distance,
    id) order, and the row marked ranked at the table's move count."""
    owner, cap, view, ranked, sent, moved, detected = case
    sim, _ = build()
    tman = TManLayer(sim.space, sim.layers[0], view_cap=cap, bootstrap_size=2 * cap)
    sim.layers[1] = tman
    tman._ensure_rows(sim.network.table)
    node = sim.network.node(owner)
    set_view(sim, node, view)
    if ranked:
        tman._ranked_ids(sim, node, tman.row_ids(node.row))
    for nid, pos in moved.items():
        sim.network.node(nid).pos = pos
    sim.network.fail(sorted(detected), rnd=sim.round)
    msg_ids = np.array(sent, dtype=np.int64)

    oracle = dict.fromkeys(view)
    oracle.update(dict.fromkeys(n for n in sent if n != owner and n not in detected))
    at = {nid: sim.network.node(nid).pos for nid in oracle}
    expected = rank_entries(sim.space, node.pos, at, cap)

    tman._merge(sim, node, msg_ids)
    assert view_of(sim, node) == expected
    assert tman._ranked_at[node.row] == sim.network.table.moves
