"""Property-based tests (hypothesis) for spaces, medoids and diameters."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spaces import Euclidean, FlatTorus, JaccardSpace, diameter, medoid_index

from .helpers import sum_sq_distances

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coord2 = st.tuples(finite, finite)
torus_coord = st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
)
item_set = st.frozensets(st.integers(min_value=0, max_value=20), max_size=8)

PLANE = Euclidean(2)
TORUS = FlatTorus(100.0, 50.0)
JACCARD = JaccardSpace()


class TestEuclideanAxioms:
    @given(coord2, coord2)
    def test_symmetry(self, a, b):
        assert math.isclose(
            PLANE.distance(a, b), PLANE.distance(b, a), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(coord2)
    def test_identity(self, a):
        assert PLANE.distance(a, a) == 0.0

    @given(coord2, coord2)
    def test_non_negative(self, a, b):
        assert PLANE.distance(a, b) >= 0.0

    @given(coord2, coord2, coord2)
    def test_triangle(self, a, b, c):
        assert PLANE.distance(a, c) <= (
            PLANE.distance(a, b) + PLANE.distance(b, c) + 1e-6
        )


class TestTorusAxioms:
    @given(torus_coord, torus_coord)
    def test_symmetry(self, a, b):
        assert math.isclose(
            TORUS.distance(a, b), TORUS.distance(b, a), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(torus_coord)
    def test_identity(self, a):
        assert TORUS.distance(a, a) == 0.0

    @given(torus_coord, torus_coord, torus_coord)
    def test_triangle(self, a, b, c):
        assert TORUS.distance(a, c) <= (
            TORUS.distance(a, b) + TORUS.distance(b, c) + 1e-7
        )

    @given(torus_coord, torus_coord)
    def test_bounded_by_half_diagonal(self, a, b):
        assert TORUS.distance(a, b) <= TORUS.max_distance + 1e-9

    @given(torus_coord, torus_coord, st.integers(-3, 3), st.integers(-3, 3))
    def test_translation_invariance_by_periods(self, a, b, kx, ky):
        shifted = (b[0] + kx * 100.0, b[1] + ky * 50.0)
        assert math.isclose(
            TORUS.distance(a, b), TORUS.distance(a, shifted), abs_tol=1e-6
        )


class TestJaccardAxioms:
    @given(item_set, item_set)
    def test_symmetry(self, a, b):
        assert JACCARD.distance(a, b) == JACCARD.distance(b, a)

    @given(item_set)
    def test_identity(self, a):
        assert JACCARD.distance(a, a) == 0.0

    @given(item_set, item_set)
    def test_range(self, a, b):
        assert 0.0 <= JACCARD.distance(a, b) <= 1.0

    @given(item_set, item_set, item_set)
    def test_triangle(self, a, b, c):
        assert JACCARD.distance(a, c) <= (
            JACCARD.distance(a, b) + JACCARD.distance(b, c) + 1e-12
        )


class TestMedoidProperties:
    @given(st.lists(coord2, min_size=1, max_size=12))
    def test_medoid_is_member_and_argmin(self, coords):
        idx = medoid_index(PLANE, coords)
        assert 0 <= idx < len(coords)
        best = min(sum_sq_distances(PLANE, c, coords) for c in coords)
        assert math.isclose(
            sum_sq_distances(PLANE, coords[idx], coords),
            best,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(st.lists(torus_coord, min_size=1, max_size=10))
    def test_medoid_on_torus(self, coords):
        idx = medoid_index(TORUS, coords)
        best = min(sum_sq_distances(TORUS, c, coords) for c in coords)
        assert sum_sq_distances(TORUS, coords[idx], coords) <= best + 1e-9


class TestDiameterProperties:
    @given(st.lists(coord2, min_size=2, max_size=12))
    def test_diameter_is_max_pair(self, coords):
        i, j = diameter(PLANE, coords)
        span = PLANE.distance(coords[i], coords[j])
        for a in coords:
            for b in coords:
                assert PLANE.distance(a, b) <= span + 1e-9

    @given(st.lists(torus_coord, min_size=2, max_size=10))
    def test_diameter_on_torus(self, coords):
        i, j = diameter(TORUS, coords)
        span = TORUS.distance(coords[i], coords[j])
        for a in coords:
            for b in coords:
                assert TORUS.distance(a, b) <= span + 1e-9
