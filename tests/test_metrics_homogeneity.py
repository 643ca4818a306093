"""Tests for the homogeneity metric and reliability."""

import pytest

from repro.core.state import PolystyreneState
from repro.metrics.homogeneity import (
    holder_index,
    homogeneity,
    lost_points,
    surviving_fraction,
)
from repro.sim.network import SimNode
from repro.spaces import FlatTorus
from repro.types import DataPoint

TORUS = FlatTorus(8.0, 4.0)


def node_with(nid, pos, guest_points=(), ghosts=None):
    node = SimNode(nid, tuple(pos))
    node.poly = PolystyreneState(guest_points)
    if ghosts:
        node.poly.ghosts = ghosts
    return node


class TestHolderIndex:
    def test_maps_points_to_holders(self):
        p = DataPoint(0, (0.0, 0.0))
        a = node_with(0, (0.0, 0.0), [p])
        b = node_with(1, (1.0, 0.0), [p])
        index = holder_index([a, b])
        assert {n.nid for n in index[0]} == {0, 1}

    def test_skips_nodes_without_state(self):
        bare = SimNode(0, (0.0, 0.0))
        assert holder_index([bare]) == {}


class TestHomogeneity:
    def test_perfect_initial_assignment_is_zero(self):
        points = [DataPoint(i, (float(i), 0.0)) for i in range(4)]
        nodes = [node_with(i, (float(i), 0.0), [points[i]]) for i in range(4)]
        assert homogeneity(TORUS, points, nodes) == 0.0

    def test_held_point_measured_to_holder_position(self):
        point = DataPoint(0, (0.0, 0.0))
        holder = node_with(0, (2.0, 0.0), [point])
        assert homogeneity(TORUS, [point], [holder]) == pytest.approx(2.0)

    def test_multiple_holders_take_nearest(self):
        point = DataPoint(0, (0.0, 0.0))
        near = node_with(0, (1.0, 0.0), [point])
        far = node_with(1, (4.0, 0.0), [point])
        assert homogeneity(TORUS, [point], [near, far]) == pytest.approx(1.0)

    def test_lost_point_falls_back_to_all_nodes(self):
        lost = DataPoint(0, (0.0, 0.0))
        other = DataPoint(1, (3.0, 0.0))
        holder = node_with(0, (3.0, 0.0), [other])
        # ``lost`` has no holder: distance to the nearest node (3.0).
        assert homogeneity(TORUS, [lost], [holder]) == pytest.approx(3.0)

    def test_mean_over_points(self):
        p0 = DataPoint(0, (0.0, 0.0))
        p1 = DataPoint(1, (2.0, 0.0))
        holder = node_with(0, (0.0, 0.0), [p0, p1])
        assert homogeneity(TORUS, [p0, p1], [holder]) == pytest.approx(1.0)

    def test_empty_points(self):
        assert homogeneity(TORUS, [], [node_with(0, (0.0, 0.0))]) == 0.0

    def test_empty_network_raises(self):
        with pytest.raises(ValueError):
            homogeneity(TORUS, [DataPoint(0, (0.0, 0.0))], [])

    def test_uses_wraparound(self):
        point = DataPoint(0, (7.5, 0.0))
        holder = node_with(0, (0.5, 0.0), [point])
        assert homogeneity(TORUS, [point], [holder]) == pytest.approx(1.0)


class TestLostPoints:
    def test_identifies_unheld(self):
        held = DataPoint(0, (0.0, 0.0))
        unheld = DataPoint(1, (1.0, 0.0))
        node = node_with(0, (0.0, 0.0), [held])
        assert lost_points([held, unheld], [node]) == [unheld]


class TestSurvivingFraction:
    def test_all_held(self):
        points = [DataPoint(i, (float(i), 0.0)) for i in range(3)]
        nodes = [node_with(i, (float(i), 0.0), [points[i]]) for i in range(3)]
        assert surviving_fraction(points, nodes) == 1.0

    def test_ghost_copies_count(self):
        point = DataPoint(0, (0.0, 0.0))
        ghost_holder = node_with(0, (1.0, 0.0), [], ghosts={9: {0: point}})
        assert surviving_fraction([point], [ghost_holder]) == 1.0

    def test_lost_points_excluded(self):
        p0 = DataPoint(0, (0.0, 0.0))
        p1 = DataPoint(1, (1.0, 0.0))
        node = node_with(0, (0.0, 0.0), [p0])
        assert surviving_fraction([p0, p1], [node]) == 0.5

    def test_no_points(self):
        assert surviving_fraction([], [node_with(0, (0.0, 0.0))]) == 1.0


class TestVectorisedEquivalence:
    """The flat-array kernel table-backed networks take must be
    float-equal to the per-point scalar loop (hypothesis over random
    holder assignments covering the single-holder, multi-holder and
    lost cases); detached nodes take that loop itself."""

    @staticmethod
    def scalar_reference(space, points, alive_nodes):
        import numpy as np

        holders = holder_index(alive_nodes)
        all_pos = [n.pos for n in alive_nodes]
        total = 0.0
        for point in points:
            holding = holders.get(point.pid)
            if holding:
                total += min(
                    space.distance(point.coord, n.pos) for n in holding
                )
            else:
                total += float(
                    np.min(space.distance_many(point.coord, all_pos))
                )
        return total / len(points)

    def test_matches_scalar_reference(self):
        self.check_against_scalar_reference(table_backed=False)

    def test_table_kernel_matches_scalar_reference(self):
        self.check_against_scalar_reference(table_backed=True)

    def check_against_scalar_reference(self, table_backed):
        from hypothesis import given, settings, strategies as st

        from repro.sim.network import Network

        coord = st.tuples(
            st.floats(min_value=0, max_value=7.99, allow_nan=False),
            st.floats(min_value=0, max_value=3.99, allow_nan=False),
        )

        @given(data=st.data())
        @settings(max_examples=50, deadline=None)
        def run(data):
            n_nodes = data.draw(st.integers(min_value=1, max_value=8))
            n_points = data.draw(st.integers(min_value=1, max_value=10))
            if table_backed:
                network = Network()
                nodes = [network.add_node(data.draw(coord)) for _ in range(n_nodes)]
                for node in nodes:
                    node.poly = PolystyreneState()
            else:
                nodes = [
                    node_with(i, data.draw(coord)) for i in range(n_nodes)
                ]
            points = []
            for pid in range(n_points):
                point = DataPoint(pid, data.draw(coord))
                points.append(point)
                # 0 holders = lost, 1 = the batched fast path, 2+ = the
                # flat min-reduce path.
                n_holders = data.draw(st.integers(min_value=0, max_value=3))
                for node in data.draw(
                    st.permutations(nodes)
                )[: min(n_holders, n_nodes)]:
                    node.poly.guests[pid] = point
            got = homogeneity(TORUS, points, nodes)
            want = self.scalar_reference(TORUS, points, nodes)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

        run()

    def test_matches_scalar_reference_on_object_space(self):
        from repro.spaces import JaccardSpace

        space = JaccardSpace()

        def set_node(nid, pos):
            node = SimNode(nid, pos)
            node.poly = PolystyreneState()
            return node

        nodes = [
            set_node(0, frozenset({1, 2})),
            set_node(1, frozenset({2, 3})),
            set_node(2, frozenset({9})),
        ]
        points = [
            DataPoint(0, frozenset({1, 2})),
            DataPoint(1, frozenset({2, 3, 4})),
            DataPoint(2, frozenset({7})),
        ]
        nodes[0].poly.guests[0] = points[0]
        nodes[1].poly.guests[0] = points[0]  # multi-holder
        nodes[2].poly.guests[1] = points[1]  # single holder; point 2 lost
        got = homogeneity(space, points, nodes)
        want = self.scalar_reference(space, points, nodes)
        assert got == pytest.approx(want, rel=1e-12)
