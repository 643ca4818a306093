"""Tests for the ring and Jaccard set spaces."""

import pytest

from repro.spaces import JaccardSpace, Ring


class TestRing:
    def test_wraps(self, unit_ring):
        assert unit_ring.distance((0.9,), (0.1,)) == pytest.approx(0.2)

    def test_max_half_circumference(self, unit_ring):
        assert unit_ring.distance((0.0,), (0.5,)) == pytest.approx(0.5)

    def test_position_helper(self):
        ring = Ring(10.0)
        assert ring.position(0.25) == pytest.approx((2.5,))

    def test_position_wraps(self):
        ring = Ring(10.0)
        assert ring.position(1.25) == pytest.approx((2.5,))

    def test_dim(self, unit_ring):
        assert unit_ring.dim == 1

    def test_area_is_circumference(self):
        assert Ring(7.0).area == pytest.approx(7.0)


class TestJaccard:
    def test_identical_sets(self):
        space = JaccardSpace()
        s = frozenset({"a", "b"})
        assert space.distance(s, s) == 0.0

    def test_disjoint_sets(self):
        space = JaccardSpace()
        assert space.distance(frozenset({"a"}), frozenset({"b"})) == 1.0

    def test_partial_overlap(self):
        space = JaccardSpace()
        a = frozenset({1, 2, 3})
        b = frozenset({2, 3, 4})
        assert space.distance(a, b) == pytest.approx(1 - 2 / 4)

    def test_both_empty(self):
        space = JaccardSpace()
        assert space.distance(frozenset(), frozenset()) == 0.0

    def test_one_empty(self):
        space = JaccardSpace()
        assert space.distance(frozenset(), frozenset({"x"})) == 1.0

    def test_symmetry(self):
        space = JaccardSpace()
        a = frozenset({1, 2})
        b = frozenset({2, 3, 4})
        assert space.distance(a, b) == space.distance(b, a)

    def test_triangle_inequality_exhaustive_small(self):
        space = JaccardSpace()
        universe = [frozenset(s) for s in ([], [1], [2], [1, 2], [1, 3], [1, 2, 3])]
        for a in universe:
            for b in universe:
                for c in universe:
                    assert space.distance(a, c) <= (
                        space.distance(a, b) + space.distance(b, c) + 1e-12
                    )

    def test_coord_builder(self):
        assert JaccardSpace.coord([1, 2, 2]) == frozenset({1, 2})

    def test_distance_many_fallback(self):
        space = JaccardSpace()
        origin = frozenset({1, 2})
        out = space.distance_block(origin, [frozenset({1, 2}), frozenset({3})])
        assert out[0] == 0.0
        assert out[1] == 1.0
