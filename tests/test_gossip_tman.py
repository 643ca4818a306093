"""Tests for the T-Man topology construction layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.ranking import rank_order, truncate_closest
from repro.gossip.rps import PeerSamplingLayer
from repro.gossip.tman import TManLayer
from repro.metrics.proximity import proximity
from repro.sim.arrays import ViewBuffer
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import grid_coords


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
            assert 0 < len(node.tman_view) <= tman.bootstrap_size
            assert node.nid not in node.tman_view


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
            assert len(node.tman_view) <= 12

    def test_deterministic_given_seed(self):
        sim_a, _ = build(seed=3)
        sim_b, _ = build(seed=3)
        sim_a.run(5)
        sim_b.run(5)
        views_a = {n.nid: dict(n.tman_view) for n in sim_a.network.alive_nodes()}
        views_b = {n.nid: dict(n.tman_view) for n in sim_b.network.alive_nodes()}
        assert views_a == views_b


class TestNeighbors:
    def test_neighbors_sorted_and_alive(self):
        sim, tman = build()
        sim.run(10)
        node = sim.network.node(0)
        neigh = tman.neighbors(sim, node, 4)
        assert len(neigh) == 4
        dists = [
            sim.space.distance(node.pos, node.tman_view[nid]) for nid in neigh
        ]
        assert dists == sorted(dists)

    def test_neighbors_skip_dead(self):
        sim, tman = build()
        sim.run(5)
        node = sim.network.node(0)
        victims = list(node.tman_view)[:3]
        sim.network.fail(victims, rnd=sim.round)
        neigh = tman.neighbors(sim, node, 10)
        assert not (set(neigh) & set(victims))

    def test_neighbors_empty_view(self):
        sim, tman = build()
        node = sim.network.node(0)
        node.tman_view = {}
        assert tman.neighbors(sim, node, 4) == []


class TestFailureHandling:
    def test_dead_entries_purged_on_gossip(self):
        sim, _ = build()
        sim.run(5)
        victims = list(range(8))
        sim.network.fail(victims, rnd=sim.round)
        sim.run(2)
        for node in sim.network.alive_nodes():
            assert not (set(node.tman_view) & set(victims))

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
        node.tman_view = {}
        sim.run(1)
        assert len(node.tman_view) > 0


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
        sim, tman = build()
        sim.run(5)
        # Move a node, gossip, and check some peer learned the new pos.
        node = sim.network.node(0)
        node.pos = (3.3, 3.3)
        sim.run(2)
        learned = sum(
            1
            for other in sim.network.alive_nodes()
            if other.tman_view.get(0) == (3.3, 3.3)
        )
        assert learned > 0


def test_views_are_their_two_arrays_after_an_event_run():
    """After failure, repair and reinjection on the event engine, a view
    holds its id column and coordinate block and nothing else: no dict,
    no second copy of either array."""
    from repro.experiments.scenario import ScenarioConfig, prepare_scenario
    from repro.sim.arrays import ViewBuffer

    config = ScenarioConfig(
        width=32, height=16, failure_round=3, reinjection_round=6,
        total_rounds=9, metrics=(), seed=2,
    )
    sim, *_ = prepare_scenario(config)
    sim.run(config.total_rounds)
    dim = sim.space.dim
    for node in sim.network.alive_nodes():
        view = node.tman_view
        assert type(view) is ViewBuffer and not hasattr(view, "__dict__")
        assert not any(isinstance(getattr(view, slot), dict) for slot in ViewBuffer.__slots__)
        assert view.nbytes == len(view) * 8 * (1 + dim)
        ids, coords = view.arrays()
        assert ids.base is None and coords.base is None


# -- the ranked merge ---------------------------------------------------------

#: Half-step lattice coordinates on the 8x8 torus of :func:`build`, so
#: equal distances (and so the id tie-break) are common.
lattice = st.tuples(
    st.integers(0, 15).map(lambda x: x / 2), st.integers(0, 15).map(lambda y: y / 2)
)


@st.composite
def merge_cases(draw):
    """A view (under or over the cap, ranked for its owner or not) and
    a message holding the owner's id, detected ids, held ids with new
    coordinates and unknown ids."""
    owner = draw(st.integers(0, 63))
    others = [nid for nid in range(64) if nid != owner]
    cap = draw(st.integers(1, 12))
    held = draw(st.lists(st.sampled_from(others), unique=True, max_size=2 * cap))
    view = [(nid, draw(lattice)) for nid in held]
    sent = draw(st.lists(st.sampled_from(range(64)), unique=True, max_size=10))
    if draw(st.booleans()) and owner not in sent:
        sent.append(owner)
    message = [(nid, draw(lattice)) for nid in sent]
    detected = frozenset(draw(st.lists(st.sampled_from(others), max_size=6)))
    return owner, cap, view, draw(st.booleans()), message, detected


@given(merge_cases())
@settings(max_examples=200, deadline=None)
def test_ranked_merge_holds_what_merge_then_cap_holds(case):
    """T-Man's ranked merge keeps exactly the id -> coordinate map of
    ``ViewBuffer.merge`` followed by the bounded-view rule (the ``cap``
    closest to the owner when over it), rows in (distance, id) order and
    the view marked ranked for the owner's position."""
    owner, cap, view, ranked, message, detected = case
    sim, _ = build()
    tman = TManLayer(sim.space, sim.layers[0], view_cap=cap)
    node = sim.network.node(owner)
    node.tman_view = ViewBuffer(2, view)
    if ranked:
        ids, coords = node.tman_view.arrays()
        order = rank_order(sim.space, node.pos, ids, coords)
        node.tman_view.set_ranked(ids[order], coords[order], ranked_for=node.pos)
    msg_ids = np.array([nid for nid, _ in message], dtype=np.int64)
    msg_coords = np.array([c for _, c in message], dtype=float).reshape(-1, 2)

    oracle = ViewBuffer(2, view)
    oracle.merge(msg_ids, msg_coords, owner, detected)
    expected = truncate_closest(sim.space, node.pos, dict(oracle.items()), cap)

    tman._merge(sim, node, (msg_ids, msg_coords), detected)
    merged = node.tman_view
    assert dict(merged.items()) == dict(expected)
    ids, coords = merged.arrays()
    assert rank_order(sim.space, node.pos, ids, coords).tolist() == list(range(len(ids)))
    assert merged.ranked_pos is node.pos
