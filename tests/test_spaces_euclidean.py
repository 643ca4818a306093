"""Tests for the Euclidean space."""

import math

import numpy as np
import pytest

from repro.spaces import Euclidean


class TestDistance:
    def test_pythagoras(self, plane):
        assert plane.distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_identity(self, plane):
        assert plane.distance((1.5, 2.5), (1.5, 2.5)) == 0.0

    def test_symmetry(self, plane):
        a, b = (1.0, 2.0), (-3.0, 0.5)
        assert plane.distance(a, b) == pytest.approx(plane.distance(b, a))

    def test_distance_sq_consistent(self, plane):
        a, b = (1.0, 2.0), (4.0, 6.0)
        assert plane.distance_sq(a, b) == pytest.approx(plane.distance(a, b) ** 2)

    def test_higher_dimension(self):
        space = Euclidean(dim=4)
        assert space.distance((0, 0, 0, 0), (1, 1, 1, 1)) == pytest.approx(2.0)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            Euclidean(dim=0)


class TestDistanceMany:
    def test_matches_scalar(self, plane):
        origin = (0.5, -1.0)
        coords = [(0, 0), (1, 1), (-2, 3), (0.5, -1.0)]
        vec = plane.distance_block(origin, plane.pack_batch(coords))
        scalars = [plane.distance(origin, c) for c in coords]
        assert np.allclose(vec, scalars)

    def test_empty_ok(self, plane):
        out = plane.distance_block((0, 0), plane.pack_batch([]))
        assert len(out) == 0


class TestHelpers:
    def test_nearest(self, plane):
        coords = plane.pack_batch([(10, 10), (1, 1), (5, 5)])
        got = plane.nearest_distance(plane.pack_batch([(0, 0), (6, 5)]), coords)
        assert got.tolist() == [math.sqrt(2.0), 1.0]

    def test_nearest_empty_raises(self, plane):
        with pytest.raises(ValueError):
            plane.nearest_distance(plane.pack_batch([(0, 0)]), plane.pack_batch([]))

    def test_centroid(self, plane):
        assert plane.centroid([(0, 0), (2, 0), (1, 3)]) == pytest.approx((1.0, 1.0))

    def test_centroid_empty_raises(self, plane):
        with pytest.raises(ValueError):
            plane.centroid([])
