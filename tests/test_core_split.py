"""Tests for the SPLIT functions (Algorithms 4 and 5)."""

import pytest

from repro.core.split import (
    make_split,
    split_advanced,
    split_basic,
    split_md,
    split_pd,
)
from repro.errors import ConfigurationError
from repro.spaces import Euclidean, FlatTorus
from repro.types import DataPoint

PLANE = Euclidean(2)
ALL_SPLITS = (split_basic, split_pd, split_md, split_advanced)


def pts(*coords):
    return [DataPoint(i, tuple(c)) for i, c in enumerate(coords)]


class TestBasic:
    def test_assigns_to_closest(self):
        points = pts((0.0, 0.0), (10.0, 0.0))
        left, right = split_basic(PLANE, points, (0.0, 0.0), (10.0, 0.0))
        assert [p.coord for p in left] == [(0.0, 0.0)]
        assert [p.coord for p in right] == [(10.0, 0.0)]

    def test_tie_goes_to_q(self):
        points = pts((5.0, 0.0))
        left, right = split_basic(PLANE, points, (0.0, 0.0), (10.0, 0.0))
        assert left == []
        assert len(right) == 1

    def test_paper_fig5_status_quo(self):
        # Fig. 5a: basic split leaves the sub-optimal partition alone.
        # p holds {a,b,c} around pos c; q holds {d,e,f} around pos e;
        # every point is already closest to its current holder.
        a, b, c = (0.0, 2.0), (4.0, 1.0), (4.0, 2.0)
        d, e, f = (0.0, -2.0), (4.0, -1.5), (4.5, -2.0)
        points = pts(a, b, c, d, e, f)
        left, right = split_basic(PLANE, points, c, e)
        assert {p.coord for p in left} == {a, b, c}
        assert {p.coord for p in right} == {d, e, f}


class TestAdvanced:
    def test_paper_fig5_improvement(self):
        # Fig. 5b: the diameter here is (a, f)-ish across the two
        # clusters; PD should regroup the two far-left points together.
        a, b, c = (0.0, 2.0), (4.0, 1.0), (4.0, 2.0)
        d, e, f = (0.0, -2.0), (4.0, -1.5), (4.5, -2.0)
        points = pts(a, b, c, d, e, f)
        left, right = split_advanced(PLANE, points, c, e)
        groups = [frozenset(p.coord for p in left), frozenset(p.coord for p in right)]
        # The far-left pair {a, d} ends up in the same group, unlike
        # with the basic split (where a stays with p and d with q).
        assert any({a, d} <= group for group in groups)

    def test_md_assignment_minimises_displacement(self):
        # Two tight clusters; node positions sit on opposite clusters.
        cluster_a = [(0.0, 0.0), (0.2, 0.0), (0.4, 0.0)]
        cluster_b = [(10.0, 0.0), (10.2, 0.0), (10.4, 0.0)]
        points = pts(*(cluster_a + cluster_b))
        left, right = split_advanced(PLANE, points, (10.1, 0.0), (0.1, 0.0))
        # p.pos is at cluster B, so p must receive cluster B.
        assert all(p.coord[0] > 5 for p in left)
        assert all(p.coord[0] < 5 for p in right)

    def test_md_reads_exact_medoids(self):
        """The diameter ((15,14), (9,2)) cuts off (9,2) alone; the other
        cluster's medoid is (15,15), in an exact tie with (14,0) that
        goes to the first point.  Giving p the cluster displaces the
        nodes by sqrt(2) + sqrt(45) ≈ 8.12, the swap by sqrt(29) + 0 ≈
        5.39, so p gets (9,2).  With (14,0) as the medoid the comparison
        reads 6.71 against 6.80 and p would keep the cluster."""
        torus = FlatTorus(32.0, 16.0)
        points = pts((15, 15), (15, 1), (15, 14), (14, 0), (11, 13), (9, 2))
        left, right = split_advanced(torus, points, (14.0, 0.0), (15.0, 15.0))
        assert [p.coord for p in left] == [(9, 2)]
        assert [p.pid for p in right] == [0, 1, 2, 3, 4]

    def test_degenerate_identical_points(self):
        points = pts((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        left, right = split_advanced(PLANE, points, (0.0, 0.0), (2.0, 2.0))
        assert len(left) + len(right) == 3

    def test_single_point_falls_back(self):
        points = pts((1.0, 0.0))
        left, right = split_advanced(PLANE, points, (0.0, 0.0), (9.0, 0.0))
        assert len(left) == 1 and right == []


class TestPD:
    def test_partitions_along_diameter(self):
        points = pts((0.0, 0.0), (1.0, 0.0), (9.0, 0.0), (10.0, 0.0))
        left, right = split_pd(PLANE, points, (5.0, 1.0), (5.0, -1.0))
        sides = {frozenset(p.pid for p in left), frozenset(p.pid for p in right)}
        assert frozenset({0, 1}) in sides
        assert frozenset({2, 3}) in sides


class TestMD:
    def test_swaps_when_beneficial(self):
        points = pts((0.0, 0.0), (10.0, 0.0))
        # Positions crossed: p sits near the right point, q near left.
        left, right = split_md(PLANE, points, (9.0, 0.0), (1.0, 0.0))
        assert [p.coord for p in left] == [(10.0, 0.0)]
        assert [p.coord for p in right] == [(0.0, 0.0)]


class TestInvariantsAllSplits:
    @pytest.mark.parametrize("split", ALL_SPLITS, ids=lambda f: f.__name__)
    def test_partition_complete_and_disjoint(self, split):
        points = pts(
            (0.0, 0.0), (1.0, 2.0), (5.0, 5.0), (3.0, 1.0), (9.0, 9.0), (2.0, 8.0)
        )
        left, right = split(PLANE, points, (0.0, 0.0), (9.0, 9.0))
        assert {p.pid for p in left} | {p.pid for p in right} == {
            p.pid for p in points
        }
        assert not ({p.pid for p in left} & {p.pid for p in right})

    @pytest.mark.parametrize("split", ALL_SPLITS, ids=lambda f: f.__name__)
    def test_empty_input(self, split):
        assert split(PLANE, [], (0.0, 0.0), (1.0, 1.0)) == ([], [])

    @pytest.mark.parametrize("split", ALL_SPLITS, ids=lambda f: f.__name__)
    def test_torus_space(self, split):
        torus = FlatTorus(16.0, 8.0)
        points = pts((15.0, 0.0), (1.0, 0.0), (8.0, 4.0), (7.0, 4.0))
        left, right = split(torus, points, (0.0, 0.0), (8.0, 4.0))
        assert len(left) + len(right) == 4


class TestFactory:
    def test_lookup(self):
        assert make_split("basic") is split_basic
        assert make_split("pd") is split_pd
        assert make_split("md") is split_md
        assert make_split("advanced") is split_advanced

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_split("quantum")
