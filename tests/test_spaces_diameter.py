"""Tests for diameter (farthest-pair) computation."""

import numpy as np
import pytest

from repro.errors import EmptySelectionError
from repro.spaces import FlatTorus, diameter


class TestExact:
    def test_needs_two_points(self, plane):
        with pytest.raises(EmptySelectionError):
            diameter(plane, [(0, 0)])

    def test_two_points(self, plane):
        assert diameter(plane, [(0, 0), (1, 1)]) == (0, 1)

    def test_finds_extremes(self, plane):
        coords = [(5, 5), (0, 0), (10, 10), (6, 6)]
        i, j = diameter(plane, coords)
        assert {coords[i], coords[j]} == {(0, 0), (10, 10)}

    def test_matches_bruteforce(self, plane):
        rng = np.random.default_rng(6)
        coords = [tuple(rng.uniform(0, 10, 2)) for _ in range(15)]
        i, j = diameter(plane, coords)
        best = max(
            plane.distance(a, b) for n, a in enumerate(coords) for b in coords[n:]
        )
        assert plane.distance(coords[i], coords[j]) == pytest.approx(best)

    def test_torus_diameter_respects_wrap(self):
        torus = FlatTorus(16.0)
        # On the ring, 15 and 1 are close (2 apart); 4 and 12 are the
        # true farthest pair (8 apart, the half-period).
        coords = [(15.0,), (1.0,), (4.0,), (12.0,)]
        i, j = diameter(torus, coords)
        assert {coords[i], coords[j]} == {(4.0,), (12.0,)}

    def test_identical_points(self):
        coords = [(1.0, 1.0)] * 40
        torus = FlatTorus(16.0, 8.0)
        assert diameter(torus, coords) == (0, 1)


class TestDispatch:
    def test_small_exact(self, plane):
        coords = [(0, 0), (9, 0), (5, 0)]
        i, j = diameter(plane, coords)
        assert {coords[i], coords[j]} == {(0, 0), (9, 0)}

    def test_large_input_is_exact(self, plane):
        """Far above the 30 points where the paper suggests sampling
        (Sec. III-F) the pair is the first farthest pair."""
        coords = [(float(i), float(i % 3)) for i in range(100)]
        assert diameter(plane, coords) == (0, 99)
