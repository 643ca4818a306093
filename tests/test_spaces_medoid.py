"""Tests for medoid computation."""

import numpy as np
import pytest

from repro.errors import EmptySelectionError
from repro.spaces import FlatTorus
from repro.spaces.medoid import medoid, medoid_index

from .helpers import sum_sq_distances


class TestSumSq:
    def test_simple(self, plane):
        total = sum_sq_distances(plane, (0, 0), [(1, 0), (0, 2)])
        assert total == pytest.approx(1.0 + 4.0)

    def test_empty(self, plane):
        assert sum_sq_distances(plane, (0, 0), []) == 0.0


class TestMedoidExact:
    def test_empty_raises(self, plane):
        with pytest.raises(EmptySelectionError):
            medoid_index(plane, [])

    def test_singleton(self, plane):
        assert medoid_index(plane, [(3, 3)]) == 0

    def test_outlier_pulls_medoid(self, plane):
        coords = [(0, 0), (1, 0), (2, 0), (3, 0), (10, 0)]
        # Squared distances make the outlier at x=10 pull the medoid to
        # (3,0): cost 63 there vs 70 at (2,0).
        idx = medoid_index(plane, coords)
        assert coords[idx] == (3, 0)

    def test_is_argmin_of_cost(self, plane):
        rng = np.random.default_rng(3)
        coords = [tuple(rng.uniform(0, 10, 2)) for _ in range(12)]
        idx = medoid_index(plane, coords)
        costs = [sum_sq_distances(plane, c, coords) for c in coords]
        assert costs[idx] == pytest.approx(min(costs))

    def test_tie_breaks_by_first_index(self, plane):
        coords = [(0, 0), (0, 0), (0, 0)]
        assert medoid_index(plane, coords) == 0

    def test_exact_tie_goes_to_the_first_point(self):
        """Points 0 and 3 both cost exactly 27 (the others 47, 32, 87):
        the cost sums squared distances as they are, so the tie is exact
        and the first point wins.  Summing square roots squared again
        rounds point 0's cost above point 3's."""
        torus = FlatTorus(32.0, 16.0)
        coords = [(15.0, 15.0), (15.0, 1.0), (15.0, 14.0), (14.0, 0.0), (11.0, 13.0)]
        assert [sum_sq_distances(torus, c, coords) for c in coords] == [27, 47, 32, 27, 87]
        assert medoid_index(torus, coords) == 0

    def test_modular_space(self):
        torus = FlatTorus(16.0)
        # Around the seam: 15, 0, 1 — the middle element is 0.
        coords = [(15.0,), (0.0,), (1.0,)]
        idx = medoid_index(torus, coords)
        assert coords[idx] == (0.0,)


class TestMedoidDispatch:
    def test_returns_member(self, plane):
        coords = [(0, 0), (4, 4), (2, 2)]
        assert medoid(plane, coords) in coords

    def test_large_input_is_exact(self, plane):
        """Far above the 30 points where the paper suggests sampling
        (Sec. III-F) the medoid is the exact argmin of the cost."""
        rng = np.random.default_rng(4)
        coords = [tuple(rng.uniform(0, 10, 2)) for _ in range(100)]
        coords.append((100.0, 100.0))
        costs = [sum_sq_distances(plane, c, coords) for c in coords]
        assert medoid(plane, coords) == coords[int(np.argmin(costs))]
