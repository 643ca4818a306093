"""Tests for the homogeneity metric and reliability."""

import pytest

from repro.metrics.homogeneity import (
    holder_index,
    homogeneity,
    lost_points,
    surviving_fraction,
)
from repro.spaces import FlatTorus
from repro.types import DataPoint

from .helpers import placed_nodes

TORUS = FlatTorus(8.0, 4.0)


class TestHolderIndex:
    def test_maps_points_to_holders(self):
        nodes, store = placed_nodes([(0.0, 0.0), (1.0, 0.0)], [[0], [0]])
        index = holder_index(nodes, store)
        assert {n.nid for n in index[0]} == {0, 1}

    def test_skips_nodes_without_state(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        assert holder_index(nodes, store) == {}


class TestHomogeneity:
    def test_perfect_initial_assignment_is_zero(self):
        points = [DataPoint(i, (float(i), 0.0)) for i in range(4)]
        nodes, store = placed_nodes([p.coord for p in points], [[i] for i in range(4)])
        assert homogeneity(TORUS, points, nodes, store) == 0.0

    def test_held_point_measured_to_holder_position(self):
        point = DataPoint(0, (0.0, 0.0))
        nodes, store = placed_nodes([(2.0, 0.0)], [[0]])
        assert homogeneity(TORUS, [point], nodes, store) == pytest.approx(2.0)

    def test_multiple_holders_take_nearest(self):
        point = DataPoint(0, (0.0, 0.0))
        nodes, store = placed_nodes([(1.0, 0.0), (4.0, 0.0)], [[0], [0]])
        assert homogeneity(TORUS, [point], nodes, store) == pytest.approx(1.0)

    def test_lost_point_falls_back_to_all_nodes(self):
        lost = DataPoint(0, (0.0, 0.0))
        nodes, store = placed_nodes([(3.0, 0.0)], [[1]])
        # ``lost`` has no holder: distance to the nearest node (3.0).
        assert homogeneity(TORUS, [lost], nodes, store) == pytest.approx(3.0)

    def test_mean_over_points(self):
        p0 = DataPoint(0, (0.0, 0.0))
        p1 = DataPoint(1, (2.0, 0.0))
        nodes, store = placed_nodes([(0.0, 0.0)], [[0, 1]])
        assert homogeneity(TORUS, [p0, p1], nodes, store) == pytest.approx(1.0)

    def test_empty_points(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        assert homogeneity(TORUS, [], nodes, store) == 0.0

    def test_empty_network_raises(self):
        _, store = placed_nodes([])
        with pytest.raises(ValueError):
            homogeneity(TORUS, [DataPoint(0, (0.0, 0.0))], [], store)

    def test_uses_wraparound(self):
        point = DataPoint(0, (7.5, 0.0))
        nodes, store = placed_nodes([(0.5, 0.0)], [[0]])
        assert homogeneity(TORUS, [point], nodes, store) == pytest.approx(1.0)


class TestLostPoints:
    def test_identifies_unheld(self):
        held = DataPoint(0, (0.0, 0.0))
        unheld = DataPoint(1, (1.0, 0.0))
        nodes, store = placed_nodes([(0.0, 0.0)], [[0]])
        assert lost_points([held, unheld], nodes, store) == [unheld]


class TestSurvivingFraction:
    def test_all_held(self):
        points = [DataPoint(i, (float(i), 0.0)) for i in range(3)]
        nodes, store = placed_nodes([p.coord for p in points], [[0], [1], [2]])
        assert surviving_fraction(points, nodes, store) == 1.0

    def test_ghost_copies_count(self):
        point = DataPoint(0, (0.0, 0.0))
        # Node 1 (not among the nodes read) pushed point 0 to node 0.
        nodes, store = placed_nodes(
            [(1.0, 0.0), (5.0, 0.0)], copies=[(1, 0, [0])]
        )
        assert surviving_fraction([point], nodes[:1], store) == 1.0
        assert surviving_fraction([point], nodes[1:], store) == 0.0

    def test_lost_points_excluded(self):
        p0 = DataPoint(0, (0.0, 0.0))
        p1 = DataPoint(1, (1.0, 0.0))
        nodes, store = placed_nodes([(0.0, 0.0)], [[0]])
        assert surviving_fraction([p0, p1], nodes, store) == 0.5

    def test_no_points(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        assert surviving_fraction([], nodes, store) == 1.0


class TestVectorisedEquivalence:
    """The flat-array kernel vector spaces take must be float-equal to
    the per-point scalar loop (hypothesis over random holder
    assignments covering the single-holder, multi-holder and lost
    cases), whether the nodes read are the whole table or part of it;
    object-coordinate spaces take that loop itself."""

    @staticmethod
    def scalar_reference(space, points, alive_nodes, store):
        import numpy as np

        holders = holder_index(alive_nodes, store)
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
        self.check_against_scalar_reference(part=True)

    def test_table_kernel_matches_scalar_reference(self):
        self.check_against_scalar_reference(part=False)

    def check_against_scalar_reference(self, part):
        from hypothesis import given, settings, strategies as st

        coord = st.tuples(
            st.floats(min_value=0, max_value=7.99, allow_nan=False),
            st.floats(min_value=0, max_value=3.99, allow_nan=False),
        )

        @given(data=st.data())
        @settings(max_examples=50, deadline=None)
        def run(data):
            n_nodes = data.draw(st.integers(min_value=1, max_value=8))
            n_points = data.draw(st.integers(min_value=1, max_value=10))
            nodes, store = placed_nodes(
                [data.draw(coord) for _ in range(n_nodes)]
            )
            guests = {node.row: [] for node in nodes}
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
                    guests[node.row].append(pid)
            for row, pids in guests.items():
                store.set_guests(row, pids)
            if part:
                # The nodes read are a part of the table: the rest hold
                # points that must count as lost.
                keep = data.draw(st.integers(min_value=1, max_value=n_nodes))
                nodes = data.draw(st.permutations(nodes))[:keep]
            got = homogeneity(TORUS, points, nodes, store)
            want = self.scalar_reference(TORUS, points, nodes, store)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

        run()

    def test_matches_scalar_reference_on_object_space(self):
        from repro.spaces import JaccardSpace

        space = JaccardSpace()
        nodes, store = placed_nodes(
            [frozenset({1, 2}), frozenset({2, 3}), frozenset({9})],
            # point 0 multi-held; point 1 single holder; point 2 lost
            [[0], [0], [1]],
        )
        points = [
            DataPoint(0, frozenset({1, 2})),
            DataPoint(1, frozenset({2, 3, 4})),
            DataPoint(2, frozenset({7})),
        ]
        got = homogeneity(space, points, nodes, store)
        want = self.scalar_reference(space, points, nodes, store)
        assert got == pytest.approx(want, rel=1e-12)
