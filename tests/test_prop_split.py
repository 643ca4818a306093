"""Property-based tests for the SPLIT functions.

The core protocol invariant: every SPLIT variant returns a true
partition of its input — no point lost, no point duplicated — in every
space.  Losing a point here would silently break the "never dies"
guarantee, so this is the most valuable property in the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.split import split_advanced, split_basic, split_md, split_pd
from repro.spaces import Euclidean, FlatTorus
from repro.types import DataPoint

PLANE = Euclidean(2)
TORUS = FlatTorus(20.0, 10.0)

coord = st.tuples(
    st.floats(min_value=0, max_value=20, allow_nan=False),
    st.floats(min_value=0, max_value=10, allow_nan=False),
)
coord_list = st.lists(coord, min_size=0, max_size=25)

SPLITS = [split_basic, split_pd, split_md, split_advanced]


def as_points(coords):
    return [DataPoint(i, c) for i, c in enumerate(coords)]


@given(coord_list, coord, coord)
def test_all_splits_partition_plane(coords, pos_p, pos_q):
    points = as_points(coords)
    expected = {p.pid for p in points}
    for split in SPLITS:
        left, right = split(PLANE, points, pos_p, pos_q)
        left_ids = {p.pid for p in left}
        right_ids = {p.pid for p in right}
        assert left_ids | right_ids == expected
        assert not (left_ids & right_ids)


@given(coord_list, coord, coord)
def test_all_splits_partition_torus(coords, pos_p, pos_q):
    points = as_points(coords)
    expected = {p.pid for p in points}
    for split in SPLITS:
        left, right = split(TORUS, points, pos_p, pos_q)
        left_ids = {p.pid for p in left}
        right_ids = {p.pid for p in right}
        assert left_ids | right_ids == expected
        assert not (left_ids & right_ids)


@given(coord_list, coord, coord)
def test_basic_split_respects_closeness(coords, pos_p, pos_q):
    points = as_points(coords)
    left, right = split_basic(PLANE, points, pos_p, pos_q)
    for p in left:
        assert PLANE.distance(p.coord, pos_p) < PLANE.distance(p.coord, pos_q)
    for p in right:
        assert PLANE.distance(p.coord, pos_q) <= PLANE.distance(p.coord, pos_p)


@given(coord_list, coord, coord)
def test_advanced_never_worse_displacement_than_swapped(coords, pos_p, pos_q):
    """The MD heuristic chooses the assignment with the smaller total
    medoid-to-position displacement (Algorithm 5 lines 5-13)."""
    from repro.spaces.medoid import medoid

    points = as_points(coords)
    if len(points) < 2:
        return
    left, right = split_advanced(PLANE, points, pos_p, pos_q)
    if not left or not right:
        return
    m_left = medoid(PLANE, [p.coord for p in left])
    m_right = medoid(PLANE, [p.coord for p in right])
    chosen = PLANE.distance(m_left, pos_p) + PLANE.distance(m_right, pos_q)
    swapped = PLANE.distance(m_right, pos_p) + PLANE.distance(m_left, pos_q)
    assert chosen <= swapped + 1e-9


def algorithm5_on_two(space, a, b, pos_p, pos_q):
    """Algorithm 5 on a two-point pool, from ``space.distance``: the pair
    is the diameter, each point is strictly closer to itself than to the
    other endpoint (a singleton cluster, its own medoid), and MD gives p
    the first cluster only when that displaces strictly less; two
    coincident points have no diameter to split along, and the basic
    rule decides."""
    if space.distance(a.coord, b.coord) == 0.0:
        return split_basic(space, [a, b], pos_p, pos_q)
    delta_ab = space.distance(a.coord, pos_p) + space.distance(b.coord, pos_q)
    delta_ba = space.distance(b.coord, pos_p) + space.distance(a.coord, pos_q)
    if delta_ab < delta_ba:
        return [a], [b]
    return [b], [a]


@st.composite
def two_point_pools(draw):
    """Two points and two node positions: independent points, coincident
    points (also across the torus seam), half-period offsets; positions
    that tie MD (p = q) or sit on the points themselves."""
    periods = (20.0, 10.0)
    first = draw(coord)
    kind = draw(st.sampled_from(["free", "same", "seam", "half"]))
    if kind == "free":
        second = draw(coord)
    elif kind == "same":
        second = first
    elif kind == "seam":  # the far edge of a period is its origin again
        second = (20.0 if first[0] == 0.0 else first[0], first[1])
        first = (0.0, first[1])
    else:
        axis = draw(st.integers(0, 1))
        shifted = list(first)
        shifted[axis] = (shifted[axis] + periods[axis] / 2) % periods[axis]
        second = tuple(shifted)
    pos_p = draw(coord)
    place = draw(st.sampled_from(["free", "tie", "on_points"]))
    if place == "tie":
        pos_q = pos_p
    elif place == "on_points":
        pos_p, pos_q = first, second
        if draw(st.booleans()):
            pos_p, pos_q = pos_q, pos_p
    else:
        pos_q = draw(coord)
    return DataPoint(0, first), DataPoint(1, second), pos_p, pos_q


@given(st.data())
@settings(max_examples=300)
def test_advanced_split_of_two_points_is_algorithm5(data):
    for space in (PLANE, TORUS):
        a, b, pos_p, pos_q = data.draw(two_point_pools())
        left, right = split_advanced(space, [a, b], pos_p, pos_q)
        want_left, want_right = algorithm5_on_two(space, a, b, pos_p, pos_q)
        assert [p.pid for p in left] == [p.pid for p in want_left]
        assert [p.pid for p in right] == [p.pid for p in want_right]
