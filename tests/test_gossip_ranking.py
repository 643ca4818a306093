"""Tests for the distance ranking under every topology layer
(:func:`repro.gossip.ranking.rank_order`), through the test tree's
dict oracle ``rank_entries``."""

from repro.spaces import Euclidean, FlatTorus

from .helpers import rank_entries

PLANE = Euclidean(2)


class TestRankEntries:
    def test_orders_by_distance(self):
        entries = {1: (5.0, 0.0), 2: (1.0, 0.0), 3: (3.0, 0.0)}
        assert rank_entries(PLANE, (0.0, 0.0), entries) == [2, 3, 1]

    def test_limit(self):
        entries = {i: (float(i), 0.0) for i in range(1, 6)}
        assert rank_entries(PLANE, (0.0, 0.0), entries, limit=2) == [1, 2]

    def test_empty(self):
        assert rank_entries(PLANE, (0.0, 0.0), {}) == []

    def test_tie_broken_by_id(self):
        entries = {7: (1.0, 0.0), 3: (-1.0, 0.0)}
        assert rank_entries(PLANE, (0.0, 0.0), entries) == [3, 7]

    def test_torus_wraparound_ranking(self):
        torus = FlatTorus(10.0, 10.0)
        entries = {1: (9.5, 0.0), 2: (3.0, 0.0)}
        # 9.5 is only 0.5 away across the seam.
        assert rank_entries(torus, (0.0, 0.0), entries) == [1, 2]
