"""The diameter PD splits along (the farthest-pair search of the SPLIT
kernel in :mod:`repro.core.split`), seen through :func:`split_pd`.

PD sends to p the points strictly closer to the first endpoint ``u`` of
the first farthest pair ``(u, v)`` in row-major order — so ``u`` itself
always lands on p and ``v`` on q — and a pool with no such pair (one
point, or identical points) takes the basic rule.
"""

import numpy as np
import pytest

from repro.core.split import split_pd
from repro.spaces import FlatTorus
from repro.types import DataPoint


def pd_sides(space, coords, pos_p=None, pos_q=None):
    """pid lists of PD's two sides; the positions matter only when the
    pool has no diameter to split along."""
    points = [DataPoint(i, tuple(map(float, c))) for i, c in enumerate(coords)]
    origin = (0.0,) * len(points[0].coord)
    p, q = split_pd(space, points, pos_p or origin, pos_q or origin)
    return [x.pid for x in p], [x.pid for x in q]


class TestExact:
    def test_needs_two_points(self, plane):
        # One point has no diameter: the basic rule sends it to the
        # strictly closer position.
        assert pd_sides(plane, [(0, 0)], (0.0, 0.0), (5.0, 5.0)) == ([0], [])
        assert pd_sides(plane, [(0, 0)], (5.0, 5.0), (0.0, 0.0)) == ([], [0])

    def test_two_points(self, plane):
        # The pair is the diameter: u = the first point goes to p
        # whatever the node positions.
        assert pd_sides(plane, [(0, 0), (1, 1)], (1.0, 1.0), (0.0, 0.0)) == ([0], [1])

    def test_finds_extremes(self, plane):
        coords = [(5, 5), (0, 0), (10, 10), (6, 6)]
        # The diameter is ((0,0), (10,10)); (5,5) ties and goes to v.
        assert pd_sides(plane, coords) == ([1], [0, 2, 3])

    def test_matches_bruteforce(self, plane):
        rng = np.random.default_rng(6)
        coords = [tuple(rng.uniform(0, 10, 2)) for _ in range(15)]
        p, q = pd_sides(plane, coords)
        best = max(plane.distance(a, b) for n, a in enumerate(coords) for b in coords[n:])
        across = max(plane.distance(coords[a], coords[b]) for a in p for b in q)
        assert across == pytest.approx(best)

    def test_first_farthest_pair_in_row_major_order(self, plane):
        # Both diagonals of the square are farthest pairs; the first in
        # row-major order is (0, 3), and the other corners tie between
        # its endpoints, so they go to v.  Taking (1, 2) would give p
        # point 1 instead.
        coords = [(0, 0), (0, 10), (10, 0), (10, 10)]
        assert pd_sides(plane, coords) == ([0], [1, 2, 3])

    def test_torus_diameter_respects_wrap(self):
        torus = FlatTorus(16.0)
        # On the ring, 15 and 1 are close (2 apart); 4 and 12 are the
        # true farthest pair (8 apart, the half-period).  1 is 3 from 4
        # and 5 from 12; 15 is 5 from 4 and 3 from 12.
        coords = [(15.0,), (1.0,), (4.0,), (12.0,)]
        assert pd_sides(torus, coords) == ([1, 2], [0, 3])

    def test_identical_points(self):
        coords = [(1.0, 1.0)] * 40
        torus = FlatTorus(16.0, 8.0)
        # No diameter to split along: the basic rule keeps the pool
        # together, on the strictly closer position (ties to q).
        assert pd_sides(torus, coords, (1.0, 1.0), (5.0, 5.0)) == (list(range(40)), [])
        assert pd_sides(torus, coords, (5.0, 5.0), (5.0, 5.0)) == ([], list(range(40)))


class TestDispatch:
    def test_small_exact(self, plane):
        coords = [(0, 0), (9, 0), (5, 0)]
        assert pd_sides(plane, coords) == ([0], [1, 2])

    def test_large_input_is_exact(self, plane):
        """Far above the 30 points where the paper suggests sampling
        (Sec. III-F) the pair is the first farthest pair: (0, 99)."""
        coords = [(float(i), float(i % 3)) for i in range(100)]
        assert pd_sides(plane, coords) == (list(range(50)), list(range(50, 100)))
