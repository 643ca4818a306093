"""Tests for proximity, reshaping, storage and message metrics."""

import math

import numpy as np
import pytest

from repro.metrics.messages import layer_share, per_node_cost, per_node_series
from repro.metrics.proximity import node_proximity, proximity
from repro.metrics.reshaping import reference_homogeneity, reshaping_time
from repro.metrics.storage import average_storage, node_storage, total_unique_points
from repro.sim.arrays import view_ids
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import NullLayer, placed_nodes

TORUS = FlatTorus(8.0, 4.0)


def sim_with_views(view_map, positions):
    network = Network()
    for nid in sorted(positions):
        network.add_node(positions[nid])
    for nid, view in view_map.items():
        network.node(nid).tman_view = {
            peer: positions[peer] for peer in view
        }
    return Simulation(TORUS, network, [NullLayer()], seed=0)


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
        node.tman_view = {}
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


def concatenated_view_matrix(sim):
    """The padded view matrix built from one concatenated copy of every
    view's ids (the event engine's construction before it filled rows
    in place)."""
    nodes = sim.network.alive_nodes()
    rows = np.fromiter((node.row for node in nodes), np.int64, len(nodes))
    packed = [view_ids(getattr(node, "tman_view", None)) for node in nodes]
    lens = np.fromiter(map(len, packed), np.int64, len(packed))
    total = int(lens.sum())
    ids = np.full((sim.network.table.n_rows, int(lens.max(initial=0))), -1, np.int64)
    if total:
        col = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        ids[np.repeat(rows, lens), col] = np.concatenate(packed)
    return rows, ids


def assert_same_matrix(got, want):
    """``got`` (a row-block reader) holds ``want``'s rows: read whole,
    by alive-row blocks of every size, and by slices."""
    (rows, ids), (want_rows, want_ids) = got, want
    np.testing.assert_array_equal(rows, want_rows)
    assert rows.dtype == want_rows.dtype and ids.shape == want_ids.shape
    everything = np.arange(ids.shape[0])
    for blocks in (
        [everything],
        [rows[a : a + 3] for a in range(0, len(rows), 3)],
        [rows[::-1]],
        [slice(0, 2), slice(2, None)],
    ):
        for blk in blocks:
            block = ids[blk]
            assert block.dtype == want_ids.dtype
            np.testing.assert_array_equal(block, want_ids[blk])


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
            5: [0, 4, 3],  # node 4 holds no view attribute at all
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
        sim.network.remove_node(1)  # id 1 released, its row is free
        newcomer = sim.network.add_node((1.0, 3.0))  # reuses that row
        assert newcomer.row == 1 and sim.network.table.row(1) == -1
        newcomer.tman_view = {1: (1.0, 1.0), 0: positions[0]}
        for k in (1, 4):
            got = proximity(TORUS, sim, k=k)
            assert got == oracle_proximity(TORUS, sim, k)
        # Node 2 only knows the released id: no alive neighbour.
        assert math.isnan(node_proximity(TORUS, sim, sim.network.node(2)))

    @pytest.mark.parametrize("engine", ["event", "batch"])
    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    def test_scenario_rounds_on_both_engines(self, engine, topology):
        """Every round of a failure → retention pruning → reinjection
        (row reuse) run: the recorded value is the scalar definition's,
        bit for bit (grid coordinates: every distance is exact)."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        config = ScenarioConfig(
            width=8, height=4, failure_round=3, reinjection_round=9,
            total_rounds=14, retention_rounds=3, seed=5, engine=engine,
            topology=topology, metrics=("proximity",),
        )
        sim, recorder, *_ = prepare_scenario(config)
        for rnd in range(config.total_rounds):
            sim.step()
            nodes = sim.network.alive_nodes()
            if engine == "batch":
                sim.sync_canonical()  # the oracle reads node.tman_view
                # The batch engine's node order is table-row order (the
                # final mean is a float sum: same terms, same order).
                nodes = sorted(nodes, key=lambda node: node.row)
            assert recorder.series["proximity"][rnd] == oracle_proximity(
                sim.space, sim, config.k_proximity, nodes
            )
        assert sim.network.table._has_released

    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    def test_view_matrix_fills_rows_like_the_concatenated_pack(self, topology):
        """``Simulation.view_matrix`` reads the padded matrix a row block
        at a time from the view id columns; the one-copy construction it
        replaced is the oracle, on hand-made views and through a run."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        positions = {n: (float(n), 1.0) for n in range(5)}
        sim = sim_with_views({0: [1, 2], 2: [], 3: [0, 1, 2, 4]}, positions)
        sim.network.fail([4], rnd=0)
        assert_same_matrix(sim.view_matrix(), concatenated_view_matrix(sim))
        config = ScenarioConfig(
            width=8, height=4, failure_round=3, reinjection_round=9,
            total_rounds=14, retention_rounds=3, seed=5, topology=topology,
            metrics=("proximity",),
        )
        sim, *_ = prepare_scenario(config)
        for _ in range(config.total_rounds):
            sim.step()
            assert_same_matrix(sim.view_matrix(), concatenated_view_matrix(sim))

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
