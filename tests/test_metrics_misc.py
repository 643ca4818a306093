"""Tests for proximity, reshaping, storage and message metrics."""

import math

import numpy as np
import pytest

from repro.metrics.messages import layer_share, per_node_cost, per_node_series
from repro.metrics.proximity import node_proximity, proximity
from repro.metrics.reshaping import reference_homogeneity, reshaping_time
from repro.metrics.storage import average_storage, node_storage, total_unique_points
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import StubTMan, placed_nodes, set_view

TORUS = FlatTorus(8.0, 4.0)


def sim_with_views(view_map, positions):
    network = Network()
    for nid in sorted(positions):
        network.add_node(positions[nid])
    sim = Simulation(TORUS, network, [StubTMan(TORUS)], seed=0)
    sim.init_all_nodes()
    for nid, view in view_map.items():
        set_view(sim, network.node(nid), view)
    return sim


class TestProximity:
    def test_mean_of_k_closest(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), 3: (3.0, 0.0)}
        sim = sim_with_views({0: [1, 2, 3]}, positions)
        node = sim.network.node(0)
        assert node_proximity(TORUS, sim, node, k=2) == pytest.approx(1.5)

    def test_uses_true_positions_not_view(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        sim = sim_with_views({0: [1]}, positions)
        sim.network.node(1).pos = (4.0, 0.0)  # moved since last gossip
        node = sim.network.node(0)
        assert node_proximity(TORUS, sim, node, k=1) == pytest.approx(4.0)

    def test_dead_neighbours_ignored(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        sim = sim_with_views({0: [1, 2]}, positions)
        sim.network.fail([1], rnd=0)
        node = sim.network.node(0)
        assert node_proximity(TORUS, sim, node, k=1) == pytest.approx(2.0)

    def test_no_view_is_nan(self):
        positions = {0: (0.0, 0.0)}
        sim = sim_with_views({}, positions)
        node = sim.network.node(0)
        set_view(sim, node, [])
        assert math.isnan(node_proximity(TORUS, sim, node))

    def test_network_mean(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        sim = sim_with_views({0: [1], 1: [0]}, positions)
        assert proximity(TORUS, sim, k=1) == pytest.approx(1.0)


def oracle_proximity(space, sim, k, nodes=None):
    """The definition: mean of the scalar :func:`node_proximity` over
    the alive nodes that have an alive neighbour."""
    nodes = sim.network.alive_nodes() if nodes is None else nodes
    values = [node_proximity(space, sim, n, k) for n in nodes]
    values = [v for v in values if not math.isnan(v)]
    return float(np.mean(values)) if values else float("nan")


def assert_rows_are_the_views(sim):
    """``Simulation.view_matrix`` is ``(rows, ids)``: the alive nodes'
    table rows in row order, and an id array whose row of each holds
    that node's view, packed in front of ``-1`` pads."""
    rows, ids = sim.view_matrix()
    nodes = sorted(sim.network.alive_nodes(), key=lambda node: node.row)
    np.testing.assert_array_equal(rows, [node.row for node in nodes])
    assert ids is sim.topology._ids
    for node in nodes:
        view = sim.topology.row_ids(node.row)
        assert ids[node.row, : len(view)].tolist() == view.tolist()
        assert (ids[node.row, len(view) :] == -1).all()


class TestProximityKernelMatchesScalarDefinition:
    """``proximity`` scores both engines through one padded-matrix
    kernel; ``node_proximity`` stays the definition it must reproduce."""

    def test_empty_short_dead_and_missing_views(self):
        positions = {n: (float(n), 0.0) for n in range(6)}
        views = {
            0: [1, 2, 3, 4, 5],  # more than k alive entries
            1: [0, 2],  # fewer than k entries
            2: [4],  # only a dead entry -> nan, skipped
            3: [],  # empty view -> nan, skipped
            5: [0, 4, 3],  # node 4's row was never written
        }
        sim = sim_with_views(views, positions)
        sim.network.fail([4], rnd=0)
        for k in (1, 2, 4, 9):
            assert proximity(TORUS, sim, k=k) == oracle_proximity(TORUS, sim, k)

    def test_no_node_has_an_alive_neighbour(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        sim = sim_with_views({0: [1]}, positions)
        sim.network.fail([1], rnd=0)
        assert math.isnan(proximity(TORUS, sim))
        assert math.isnan(proximity(TORUS, sim_with_views({}, positions)))

    def test_released_ids_never_alias_the_node_reusing_their_row(self):
        positions = {n: (float(n), 1.0) for n in range(4)}
        sim = sim_with_views({0: [1, 2], 2: [1], 3: [0, 1]}, positions)
        sim.network.fail([1], rnd=0)
        sim.network.reclaim(np.array([1]))  # id 1 reclaimed: node 2 takes row 1
        newcomer = sim.network.add_node((1.0, 3.0))
        assert sim.network.node(2).row == 1 and sim.network.table.row(1) == -1
        set_view(sim, newcomer, [1, 0])
        for k in (1, 4):
            got = proximity(TORUS, sim, k=k)
            assert got == oracle_proximity(TORUS, sim, k)
        # Node 2 only knows the reclaimed id: no alive neighbour.
        assert math.isnan(node_proximity(TORUS, sim, sim.network.node(2)))

    @pytest.mark.parametrize("engine", ["event", "batch"])
    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    def test_scenario_rounds_on_both_engines(self, engine, topology):
        """Every round of a failure → reinjection (reclaimed rows) run:
        the recorded value is the scalar definition's, bit for bit
        (grid coordinates: every distance is exact)."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        config = ScenarioConfig(
            width=8, height=4, failure_round=3, reinjection_round=9,
            total_rounds=14, seed=5, engine=engine,
            topology=topology, metrics=("proximity",),
        )
        sim, recorder, *_ = prepare_scenario(config)
        for rnd in range(config.total_rounds):
            sim.step()
            # Both engines score in table-row order (the final mean is
            # a float sum: same terms, same order).
            nodes = sorted(sim.network.alive_nodes(), key=lambda node: node.row)
            assert recorder.series["proximity"][rnd] == oracle_proximity(
                sim.space, sim, config.k_proximity, nodes
            )
        assert sim.network.table._layout  # the wave reclaimed the dead rows

    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    def test_view_matrix_fills_rows_like_the_concatenated_pack(self, topology):
        """``Simulation.view_matrix`` hands over the topology layer's id
        array itself, row for row the nodes' views, on hand-made views
        and through a failure, reclaim and reinjection run."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        positions = {n: (float(n), 1.0) for n in range(5)}
        sim = sim_with_views({0: [1, 2], 2: [], 3: [0, 1, 2, 4]}, positions)
        sim.network.fail([4], rnd=0)
        assert_rows_are_the_views(sim)
        config = ScenarioConfig(
            width=8, height=4, failure_round=3, reinjection_round=9,
            total_rounds=14, seed=5, topology=topology,
            metrics=("proximity",),
        )
        sim, *_ = prepare_scenario(config)
        for _ in range(config.total_rounds):
            sim.step()
            assert_rows_are_the_views(sim)

    def test_fractional_positions_agree_to_the_last_digits(self):
        from hypothesis import given, settings, strategies as st

        coord = st.tuples(
            st.floats(0, 8, exclude_max=True, allow_nan=False, allow_subnormal=False),
            st.floats(0, 4, exclude_max=True, allow_nan=False, allow_subnormal=False),
        )

        @given(data=st.data())
        @settings(max_examples=40, deadline=None)
        def run(data):
            n = data.draw(st.integers(2, 9))
            positions = {nid: data.draw(coord) for nid in range(n)}
            views = {
                nid: data.draw(st.lists(st.integers(0, n - 1), max_size=7, unique=True))
                for nid in range(n)
            }
            sim = sim_with_views(views, positions)
            sim.network.fail(data.draw(st.lists(st.integers(0, n - 1), max_size=3)), rnd=0)
            k = data.draw(st.integers(1, 5))
            got, want = proximity(TORUS, sim, k=k), oracle_proximity(TORUS, sim, k)
            assert (math.isnan(got) and math.isnan(want)) or got == pytest.approx(
                want, rel=1e-12
            )

        run()


class TestReshaping:
    def test_reference_homogeneity_paper_values(self):
        assert reference_homogeneity(3200, 3200) == pytest.approx(0.5)
        assert reference_homogeneity(3200, 1600) == pytest.approx(
            math.sqrt(2) / 2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_homogeneity(0, 10)
        with pytest.raises(ValueError):
            reference_homogeneity(10, 0)

    def test_reshaping_counts_from_perturbation(self):
        series = [0.0, 0.0, 5.0, 3.0, 0.6, 0.5]
        assert reshaping_time(series, perturbation_round=2, threshold=0.7) == 3

    def test_immediate_reconvergence_is_one(self):
        series = [0.0, 0.5]
        assert reshaping_time(series, perturbation_round=1, threshold=0.7) == 1

    def test_never_reconverges(self):
        series = [0.0, 5.0, 5.0, 5.0]
        assert reshaping_time(series, 1, 0.7) is None

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            reshaping_time([0.0], -1, 0.5)


class TestStorage:
    def test_node_storage(self):
        # Node 0 holds point 0 and a copy of point 1 from node 1.
        nodes, store = placed_nodes(
            [(0.0, 0.0), (1.0, 0.0)], [[0], []], copies=[(1, 0, [1])]
        )
        assert node_storage(nodes[0], store) == 2
        assert node_storage(nodes[1], store) == 0

    def test_node_without_state(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        assert node_storage(nodes[0], store) == 0

    def test_average(self):
        nodes, store = placed_nodes([(0.0, 0.0)] * 2, [[0], [0, 1]])
        assert average_storage(nodes, store) == pytest.approx(1.5)

    def test_average_empty(self):
        assert average_storage([], placed_nodes([])[1]) == 0.0

    def test_total_unique(self):
        nodes, store = placed_nodes([(0.0, 0.0)] * 2, [[0], [0, 1]])
        assert total_unique_points(nodes, store) == 2


class TestMessages:
    def test_per_node_cost_excludes_rps(self):
        snapshot = {"rps": 100.0, "tman": 60.0, "polystyrene": 20.0}
        assert per_node_cost(snapshot, n_alive=4) == pytest.approx(20.0)

    def test_per_node_cost_zero_alive(self):
        assert per_node_cost({"tman": 10.0}, 0) == 0.0

    def test_series_length_check(self):
        with pytest.raises(ValueError):
            per_node_series([{"a": 1.0}], [1, 2])

    def test_series(self):
        history = [{"tman": 10.0}, {"tman": 20.0, "rps": 99.0}]
        assert per_node_series(history, [2, 2]) == [5.0, 10.0]

    def test_layer_share(self):
        history = [{"tman": 90.0, "polystyrene": 10.0}] * 3
        assert layer_share(history, "tman") == pytest.approx(0.9)

    def test_layer_share_empty(self):
        assert layer_share([], "tman") == 0.0

    def test_layer_share_window(self):
        history = [{"tman": 100.0}, {"tman": 0.0, "polystyrene": 100.0}]
        assert layer_share(history, "tman", start=1) == 0.0
