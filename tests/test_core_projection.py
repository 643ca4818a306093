"""Tests for the projection step."""

import pytest

from repro.core.projection import (
    make_projection,
    project_centroid,
    project_medoid,
)
from repro.errors import ConfigurationError
from repro.spaces import Euclidean, FlatTorus
from repro.types import DataPoint

PLANE = Euclidean(2)
TORUS = FlatTorus(16.0, 16.0)


def state_with(coords):
    """Guest points at ``coords``, in order."""
    return [DataPoint(i, tuple(c)) for i, c in enumerate(coords)]


class TestMedoidProjection:
    def test_single_guest_is_position(self):
        state = state_with([(3.0, 4.0)])
        assert project_medoid(PLANE, state, (0.0, 0.0)) == (3.0, 4.0)

    def test_empty_guests_keep_current(self):
        state = []
        assert project_medoid(PLANE, state, (9.0, 9.0)) == (9.0, 9.0)

    def test_medoid_is_a_guest(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        state = state_with(coords)
        assert project_medoid(PLANE, state, (0.0, 0.0)) in coords

    def test_works_across_torus_seam(self):
        # Guests straddle the seam; centroid arithmetic would say 8.0
        # (the opposite side), the medoid stays on the cluster.
        state = state_with([(15.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        pos = project_medoid(TORUS, state, (0.0, 0.0))
        assert pos == (0.0, 0.0)


class TestCentroidProjection:
    def test_mean_position(self):
        state = state_with([(0.0, 0.0), (2.0, 2.0)])
        assert project_centroid(PLANE, state, (0.0, 0.0)) == pytest.approx(
            (1.0, 1.0)
        )

    def test_empty_guests_keep_current(self):
        state = []
        assert project_centroid(PLANE, state, (5.0, 5.0)) == (5.0, 5.0)

    def test_rejected_outside_euclidean(self):
        state = state_with([(0.0, 0.0)])
        with pytest.raises(ConfigurationError):
            project_centroid(TORUS, state, (0.0, 0.0))


class TestFactory:
    def test_lookup(self):
        assert make_projection("medoid") is project_medoid
        assert make_projection("centroid") is project_centroid

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_projection("nope")
