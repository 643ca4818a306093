"""Tests for the flat torus space."""

import math

import numpy as np
import pytest

from repro.spaces import FlatTorus


class TestConstruction:
    def test_requires_periods(self):
        with pytest.raises(ValueError):
            FlatTorus()

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            FlatTorus(10.0, 0.0)

    def test_dim_matches_periods(self):
        assert FlatTorus(4, 5, 6).dim == 3

    def test_area(self):
        assert FlatTorus(80, 40).area == pytest.approx(3200.0)

    def test_max_distance(self):
        assert FlatTorus(8, 6).max_distance == pytest.approx(5.0)


class TestWrapAround:
    def test_direct_distance(self, torus):
        assert torus.distance((1, 1), (3, 1)) == pytest.approx(2.0)

    def test_wraps_x(self, torus):
        # 16-period axis: 15 -> 1 is distance 2 around the seam.
        assert torus.distance((15, 0), (1, 0)) == pytest.approx(2.0)

    def test_wraps_y(self, torus):
        assert torus.distance((0, 7.5), (0, 0.5)) == pytest.approx(1.0)

    def test_half_period_is_max_on_axis(self, torus):
        assert torus.distance((0, 0), (8, 0)) == pytest.approx(8.0)

    def test_never_exceeds_max_distance(self, torus):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = tuple(rng.uniform(0, p) for p in torus.periods)
            b = tuple(rng.uniform(0, p) for p in torus.periods)
            assert torus.distance(a, b) <= torus.max_distance + 1e-9

    def test_out_of_cell_coordinates(self, torus):
        # Coordinates outside the fundamental cell behave modularly.
        assert torus.distance((17, 0), (1, 0)) == pytest.approx(0.0)
        assert torus.distance((-1, 0), (15, 0)) == pytest.approx(0.0)

    def test_wrap_canonicalises(self, torus):
        assert torus.wrap((17.0, -1.0)) == pytest.approx((1.0, 7.0))


class TestVectorised:
    def test_matches_scalar(self, torus):
        rng = np.random.default_rng(1)
        origin = (15.5, 7.5)
        coords = [tuple(rng.uniform(0, p) for p in torus.periods) for _ in range(50)]
        vec = torus.distance_block(origin, torus.pack_batch(coords))
        scalars = [torus.distance(origin, c) for c in coords]
        assert np.allclose(vec, scalars)

    def test_distance_sq(self, torus):
        assert torus.distance_sq((15, 7), (1, 1)) == pytest.approx(4.0 + 4.0)


class TestMetricAxioms:
    def test_triangle_inequality_sampled(self, torus):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pts = [
                tuple(rng.uniform(0, p) for p in torus.periods) for _ in range(3)
            ]
            a, b, c = pts
            assert torus.distance(a, c) <= (
                torus.distance(a, b) + torus.distance(b, c) + 1e-9
            )
