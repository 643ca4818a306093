"""Property tests: batched space queries ≡ the scalar reference.

Each space states its metric once as the scalar ``distance`` /
``distance_sq`` and once as one batched kernel; :class:`Space` derives
every batched query from the kernel (``distance_block``,
``rank_sq_block``, ``rank_sq_rows``, ``rank_sq_pools``,
``pairwise_rank_sq``, ``distance_rows``,
``nearest_distance``).  These tests pin the contract for every shipped
space: on canonical coordinates every query equals the scalar calls bit
for bit (the kernel runs the scalar's operations in the scalar's
order), rankings are identical, and the edge cases the simulator
produces (torus wraparound, a single node, an all-dead network) behave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.network import Network
from repro.spaces import Euclidean, FlatTorus, JaccardSpace, Ring

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def canonical_2d(space):
    """One canonical coordinate of a 2-axis ``space``: inside the period
    cell on the torus, any finite pair in the plane."""
    if isinstance(space, FlatTorus):
        return st.tuples(
            *(st.floats(0, p, exclude_max=True, allow_nan=False) for p in space.periods)
        )
    return st.tuples(finite, finite)


def coords_2d(space, min_size=1, max_size=12):
    return st.lists(canonical_2d(space), min_size=min_size, max_size=max_size)


def sets_coords(min_size=1, max_size=10):
    item = st.integers(min_value=0, max_value=20)
    return st.lists(
        st.frozensets(item, max_size=6), min_size=min_size, max_size=max_size
    )


VECTOR_SPACES = [Euclidean(2), FlatTorus(80.0, 40.0), FlatTorus(1.5, 7.25)]


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_distance_block_matches_scalar(space, data):
    coords = data.draw(coords_2d(space))
    origin = data.draw(canonical_2d(space))
    batch = space.pack_batch(coords)
    block = space.distance_block(origin, batch)
    sq_block = space.rank_sq_block(origin, batch)
    scalar = [space.distance(origin, c) for c in coords]
    scalar_sq = [space.distance_sq(origin, c) for c in coords]
    assert block.tolist() == scalar
    assert sq_block.tolist() == scalar_sq


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairwise_matches_distance_block_rows(space, data):
    coords = data.draw(coords_2d(space, min_size=2, max_size=8))
    batch = space.pack_batch(coords)
    matrix_sq = space.pairwise_rank_sq(batch)
    for i in range(len(coords)):
        np.testing.assert_array_equal(
            np.sqrt(matrix_sq[i]), space.distance_block(batch[i], batch)
        )
        np.testing.assert_array_equal(matrix_sq[i], space.rank_sq_block(batch[i], batch))
    # Within a pool, and across pools of a padded block, the same matrix.
    np.testing.assert_array_equal(space.rank_sq_pools(batch[None])[0], matrix_sq)
    np.testing.assert_array_equal(
        space.rank_sq_pools(np.stack([batch, batch[::-1]]))[1],
        matrix_sq[::-1, ::-1],
    )
    # Symmetry and zero diagonal are exact: |Δ| ignores orientation.
    np.testing.assert_array_equal(matrix_sq, matrix_sq.T)
    assert not np.diag(matrix_sq).any()


@pytest.mark.parametrize("space", [FlatTorus(80.0, 40.0), FlatTorus(3.0, 5.0)], ids=repr)
@given(
    coords=st.lists(st.tuples(finite, finite), min_size=1, max_size=10),
    origin=st.tuples(finite, finite),
)
# A fused row dot (``np.vecdot``) skipped rounding one square here and
# ranked the two points the other way round from the scalar reference.
@example(coords=[(0.0, 0.0), (0.0, 2.220446049250313e-16)], origin=(1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_torus_rank_kernels_on_canonical_coords(space, coords, origin):
    """On wrapped (canonical) coordinates the rank queries equal the
    scalar squared distances bit for bit and so produce the scalar's
    *identical ranking* — the precondition the simulator relies on."""
    coords = [space.wrap(c) for c in coords]
    origin = space.wrap(origin)
    batch = space.pack_batch(coords)
    rank_sq = space.rank_sq_block(origin, batch)
    scalar_sq = np.array([space.distance_sq(origin, c) for c in coords])
    np.testing.assert_array_equal(rank_sq, scalar_sq)
    np.testing.assert_array_equal(
        space.pairwise_rank_sq(batch),
        [[space.distance_sq(a, b) for b in coords] for a in coords],
    )
    ids = np.arange(len(coords))
    assert np.lexsort((ids, rank_sq)).tolist() == np.lexsort((ids, scalar_sq)).tolist()


def test_torus_rank_kernels_bit_exact_on_grid():
    """On integer grid coordinates (the evaluation scenarios) squared
    distances are exactly representable: every query equals the scalar
    reference bit for bit, whatever the summation order — this is what
    keeps the golden digests unchanged."""
    space = FlatTorus(8.0, 4.0)
    coords = [(float(x), float(y)) for x in range(8) for y in range(4)]
    batch = space.pack_batch(coords)
    for origin in [(0.0, 0.0), (7.0, 3.0), (4.0, 2.0)]:
        np.testing.assert_array_equal(
            space.rank_sq_block(origin, batch),
            [space.distance_sq(origin, c) for c in coords],
        )
    np.testing.assert_array_equal(
        np.sqrt(space.pairwise_rank_sq(batch)),
        [[space.distance(a, b) for b in coords] for a in coords],
    )


def test_torus_wraparound_block():
    """The classic wraparound case: opposite corners are 1 step apart
    on the torus, through the boundary."""
    space = FlatTorus(80.0, 40.0)
    batch = space.pack_batch([(79.0, 39.0), (0.0, 0.0), (40.0, 20.0)])
    dists = space.distance_block((0.0, 0.0), batch)
    assert dists[0] == pytest.approx(np.sqrt(2.0))
    assert dists[1] == 0.0
    assert dists[2] == pytest.approx(np.hypot(40.0, 20.0))


def test_ring_kernels_inherit_torus():
    space = Ring(1.0)
    batch = space.pack_batch([(0.9,), (0.5,), (0.1,)])
    np.testing.assert_allclose(
        space.distance_block((0.0,), batch), [0.1, 0.5, 0.1], atol=1e-12
    )


class TestJaccardKernels:
    space = JaccardSpace()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_scalar(self, data):
        coords = data.draw(sets_coords())
        origin = data.draw(st.frozensets(st.integers(0, 20), max_size=6))
        batch = self.space.pack_batch(coords)
        block = self.space.distance_block(origin, batch)
        sq_block = self.space.rank_sq_block(origin, batch)
        for i, coord in enumerate(coords):
            assert block[i] == self.space.distance(origin, coord)
            assert sq_block[i] == self.space.distance_sq(origin, coord)

    def test_distance_sq_exact(self):
        a, b = frozenset({1, 2, 3}), frozenset({2, 3, 4, 5})
        d = self.space.distance(a, b)
        assert self.space.distance_sq(a, b) == d * d
        assert self.space.distance_sq(frozenset(), frozenset()) == 0.0

    def test_empty_sets_in_block(self):
        empty = frozenset()
        batch = self.space.pack_batch([empty, frozenset({1})])
        dists = self.space.distance_block(empty, batch)
        assert dists.tolist() == [0.0, 1.0]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pairwise_symmetric(self, data):
        coords = data.draw(sets_coords(min_size=2, max_size=6))
        matrix = self.space.pairwise_rank_sq(self.space.pack_batch(coords))
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_distance_many_vectorised(self):
        coords = [frozenset({1, 2}), frozenset({3}), frozenset()]
        origin = frozenset({1})
        got = self.space.distance_block(origin, coords)
        want = [self.space.distance(origin, c) for c in coords]
        assert got.tolist() == want


class TestSimulatorEdgeCases:
    def test_single_node_network_kernels(self):
        network = Network()
        network.add_node((1.0, 2.0))
        ids = np.array([0])
        assert network.alive_mask(ids).tolist() == [True]
        assert network.positions_of(ids).tolist() == [[1.0, 2.0]]

    def test_all_dead_network_mask(self):
        network = Network()
        for i in range(4):
            network.add_node((float(i), 0.0))
        network.fail([0, 1, 2, 3], rnd=1)
        ids = np.array([0, 1, 2, 3])
        assert not network.alive_mask(ids).any()
        assert network.alive_ids() == []
        assert network.alive_positions().shape == (0, 2)

    def test_empty_batch_blocks(self):
        space = FlatTorus(8.0, 4.0)
        batch = space.pack_batch([])
        assert space.distance_block((0.0, 0.0), batch).shape == (0,)
        assert space.pairwise_rank_sq(batch).shape == (0, 0)


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_distance_rows_matches_scalar(space, data):
    """Row-paired query (homogeneity's single-holder scan, MD's
    displacement legs) ≡ the scalar distance per row, bit for bit."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    a = data.draw(coords_2d(space, min_size=n, max_size=n))
    b = data.draw(coords_2d(space, min_size=n, max_size=n))
    rows = space.distance_rows(space.pack_batch(a), space.pack_batch(b))
    assert rows.tolist() == [space.distance(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize(
    "space", [Euclidean(2), FlatTorus(80.0, 40.0)], ids=repr
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_sq_rows_matches_scalar_on_canonical(space, data):
    """Per-row-origin rank query (the batch engine's workhorse) ≡ the
    scalar squared distance per entry, on canonical coordinates."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=8))
    origins = data.draw(coords_2d(space, min_size=n, max_size=n))
    blocks = [data.draw(coords_2d(space, min_size=m, max_size=m)) for _ in range(n)]
    got = space.rank_sq_rows(space.pack_batch(origins), np.asarray(blocks, dtype=float))
    assert got.tolist() == [
        [space.distance_sq(o, c) for c in block] for o, block in zip(origins, blocks)
    ]


# -- batch kernels: bucketed kernels vs sort-based references --------------
#
# The receiver-bucketed merge kernels replaced the global composite-key
# sorts; the originals are retained as ``*_reference`` and these suites
# pin exact output equality — same survivors, same slots, same ages,
# same tie-breaking.

from repro.sim.batch import kernels as batch_kernels

#: The priority merge and its sort-based oracle, and the fused padded
#: merge.  Each kernel has one implementation; its id stays ``numpy``,
#: the name the recorded test ids have carried since a compiled variant
#: sat beside it.
PRIORITY_KERNELS = [
    pytest.param(batch_kernels.dedup_priority_truncate, id="numpy"),
    pytest.param(batch_kernels.dedup_priority_truncate_reference, id="reference"),
]
MERGE_KERNELS = [pytest.param(batch_kernels.merge_rank_truncate, id="numpy")]


def flat_loads(single_receiver=False, duplicate_ids=False):
    """Strategy for flat (recv, ids, ages, prio) merge loads, biased
    toward the degenerate shapes: empty loads, one receiver bucket,
    heavily duplicated ids."""
    n_recv = st.just(1) if single_receiver else st.integers(1, 6)
    id_pool = st.just(7) if duplicate_ids else st.integers(0, 9)
    return st.tuples(
        n_recv,
        st.lists(
            st.tuples(id_pool, st.integers(0, 50), st.integers(0, 2)),
            min_size=0,
            max_size=60,
        ),
    )


def _unpack_load(draw_pair, data):
    n_recv, rows = draw_pair
    n = len(rows)
    recv = data.draw(
        st.lists(st.integers(0, n_recv - 1), min_size=n, max_size=n)
    )
    if data.draw(st.booleans()):  # callers send both orders
        recv = sorted(recv)
    recv = np.asarray(recv, dtype=np.int64)
    ids = np.asarray([r[0] for r in rows], dtype=np.int64)
    ages = np.asarray([r[1] for r in rows], dtype=np.int64)
    prio = np.asarray([r[2] for r in rows], dtype=np.int64)
    return recv, ids, ages, prio


@pytest.mark.parametrize("kernel", PRIORITY_KERNELS[:1])  # the oracle is the other side
@pytest.mark.parametrize(
    "shape",
    [dict(), dict(single_receiver=True), dict(duplicate_ids=True)],
    ids=("mixed", "single-receiver", "all-duplicate-ids"),
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dedup_priority_truncate_matches_reference(kernel, shape, data):
    recv, ids, ages, prio = _unpack_load(
        data.draw(flat_loads(**shape)), data
    )
    order_in = np.arange(len(recv), dtype=np.int64)
    cap = data.draw(st.integers(1, 8))
    want = batch_kernels.dedup_priority_truncate_reference(
        recv, ids, prio, order_in, ages, cap
    )
    got = kernel(recv, ids, prio, order_in, ages, cap)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("kernel", PRIORITY_KERNELS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dedup_priority_truncate_ranks_a_receiver_the_same_in_any_batch(kernel, data):
    """The result for any subset of receivers ≡ the whole-batch result
    restricted to them — what lets the Cyclon merge feed the kernel one
    receiver block at a time.  The load is shaped like that caller's:
    per receiver some held view slots (kept or sent out), then incoming
    entries whose order is their arrival index in the *whole* batch, so
    nothing bounds ``order_in`` by the length of a sub-batch."""
    n_recv = data.draw(st.integers(1, 5))
    cap = data.draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, 9), st.integers(0, 50))  # id, age
    rows = []  # (recv, id, age, prio, order_in)
    for r in range(n_recv):
        slots = data.draw(st.lists(st.integers(0, cap - 1), unique=True))
        for slot in slots:
            rows.append((r, *data.draw(entry), data.draw(st.sampled_from([0, 2])), slot))
    arrivals = data.draw(st.lists(st.integers(0, n_recv - 1), max_size=24))
    for k, r in enumerate(arrivals):
        rows.append((r, *data.draw(entry), 1, k))
    recv, ids, ages, prio, order_in = (
        np.asarray([row[c] for row in rows], dtype=np.int64) for c in range(5)
    )
    chosen = data.draw(st.sets(st.integers(0, n_recv - 1)))
    member = np.isin(recv, sorted(chosen))
    whole = kernel(recv, ids, prio, order_in, ages, cap)
    part = kernel(
        recv[member], ids[member], prio[member], order_in[member], ages[member], cap
    )
    restricted = member[whole[0]]
    np.testing.assert_array_equal(np.flatnonzero(member)[part[0]], whole[0][restricted])
    np.testing.assert_array_equal(part[1], whole[1][restricted])
    np.testing.assert_array_equal(part[2], whole[2][restricted])


@pytest.mark.parametrize("kernel", PRIORITY_KERNELS)
def test_dedup_priority_truncate_slot_past_the_batch_length(kernel):
    """A kept entry in view slot 4 and two incoming entries: with the
    priority key strided by the batch length (3) the first incoming
    entry (``1 * 3 + 0``) outranked the existing one (``0 * 3 + 4``)
    whenever this receiver was the whole batch."""
    recv = np.zeros(3, dtype=np.int64)
    ids = np.asarray([11, 12, 13])
    prio = np.asarray([0, 1, 1])
    order_in = np.asarray([4, 0, 1])
    ages = np.asarray([5, 0, 0])
    sel, slot, _ = kernel(recv, ids, prio, order_in, ages, 3)
    assert ids[sel].tolist() == [11, 12, 13]
    assert slot.tolist() == [0, 1, 2]


def _merge_model(space, pos, ids_pad, coords_pad, valid, cap, ages_pad):
    """Dict-model of the fused padded merge: per row keep the rightmost
    copy of each id, rank by sqrt(rank_sq) with id tie-break, truncate.
    Distances come from the same ``rank_sq_rows`` matrix the kernel
    uses, so the comparison isolates the dedup/rank/truncate logic."""
    n_rows, width = ids_pad.shape
    dsq = space.rank_sq_rows(pos, coords_pad)
    out_ids = np.full((n_rows, cap), -1, dtype=ids_pad.dtype)
    out_ages = np.zeros((n_rows, cap), dtype=np.int64)
    for r in range(n_rows):
        lastcol = {}
        for c in range(width):
            if valid[r, c]:
                lastcol[int(ids_pad[r, c])] = c
        ranked = sorted(
            lastcol.items(), key=lambda kv: (np.sqrt(dsq[r, kv[1]]), kv[0])
        )[:cap]
        for slot, (pid, c) in enumerate(ranked):
            out_ids[r, slot] = pid
            if ages_pad is not None:
                out_ages[r, slot] = ages_pad[r, c]
    if ages_pad is None:
        return out_ids, None
    return out_ids, out_ages


#: Coordinate lattices of the merge suite: axis steps per lattice; the
#: mixed lattice draws whole and half steps entry by entry, like a
#: reinjected network whose views mix both grids.
LATTICE_STEPS = {
    "int-grid": (1.0,),
    "half-step": (0.5,),
    "quarter-step": (0.25,),
    "mixed-int-half": (1.0, 0.5),
}


def _lattice_coord(steps):
    def axis(extent):
        return st.sampled_from(steps).flatmap(
            lambda step: st.integers(0, int(extent / step) - 1).map(
                lambda i: i * step
            )
        )

    return st.tuples(axis(16), axis(8))


@pytest.mark.parametrize("impl", MERGE_KERNELS)
@pytest.mark.parametrize("lattice", [*LATTICE_STEPS, "float"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_merge_rank_truncate_matches_dict_model(impl, lattice, data):
    """The fused padded merge ≡ a per-row dict model on the exact-key
    path (integer, half-step, quarter-step and mixed lattices) and the
    float sqrt path, with empty rows, duplicate ids and tied distances
    in the mix, ages on and off, and blocks where every row fills
    ``cap`` (the no-mask harvest) and where none does."""
    space = FlatTorus(16.0, 8.0)
    n_rows = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(1, 12))
    if lattice == "float":
        coord = st.tuples(
            st.floats(0, 15.99, allow_nan=False),
            st.floats(0, 7.99, allow_nan=False),
        )
    else:
        coord = _lattice_coord(LATTICE_STEPS[lattice])
    rows = data.draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), coord, st.integers(0, 30)),
                min_size=width,
                max_size=width,
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    ids = np.asarray([[e[0] for e in row] for row in rows], dtype=np.int64)
    fill = data.draw(st.sampled_from(["ragged", "every-row-full", "no-row-full"]))
    if fill == "ragged":
        cap = data.draw(st.integers(1, 6))
        valid = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=width, max_size=width),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=bool,
        )
    else:
        # All slots valid and ids distinct per row: each row keeps
        # exactly ``width`` entries, so ``cap`` decides fullness.
        shift = data.draw(st.integers(0, 5))
        ids = (np.arange(width) + np.arange(n_rows)[:, None] + shift) % (width + 3)
        valid = np.ones((n_rows, width), dtype=bool)
        if fill == "every-row-full":
            cap = data.draw(st.integers(1, width))
        else:
            cap = width + data.draw(st.integers(1, 3))
    pos = space.pack_batch([data.draw(coord) for _ in range(n_rows)])
    ids_pad = np.where(valid, ids, -1).astype(np.int32)
    coords_pad = np.asarray(
        [[e[1] for e in row] for row in rows], dtype=float
    )
    ages_pad = np.asarray([[e[2] for e in row] for row in rows], dtype=np.int64)
    if not data.draw(st.booleans()):
        ages_pad = None
    # Any bound above the ids is a valid stride (callers pass the
    # network-wide one).
    stride = int(ids_pad.max()) + 1 + data.draw(st.integers(0, 4))
    if lattice != "float":
        dsq = space.rank_sq_rows(pos, coords_pad)
        assert batch_kernels.exact_rank_key(dsq, max(stride, 1)) is not None
    want_ids, want_ages = _merge_model(
        space, pos, ids_pad, coords_pad, valid, cap, ages_pad
    )
    ids, ages = impl(space, pos, ids_pad, coords_pad, valid, cap, stride, ages_pad)
    assert ids.dtype == np.int32 and (ages is None) == (ages_pad is None)
    np.testing.assert_array_equal(ids, want_ids)
    if ages is not None:
        np.testing.assert_array_equal(ages, want_ages)
        assert ages.dtype == want_ages.dtype


# -- the exact rank key and the row-gather primitive ------------------------


def _same_ranking(key, dsq):
    """Ranking by ``key`` ≡ ranking by ``sqrt(dsq)``: same order, same
    ties (stable argsorts agree only then)."""
    return np.array_equal(
        np.argsort(key.ravel(), kind="stable"),
        np.argsort(np.sqrt(dsq).ravel(), kind="stable"),
    )


@pytest.mark.parametrize("lattice", list(LATTICE_STEPS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_rank_key_on_dyadic_lattices(lattice, data):
    """Dyadic squared distances always get a key; it fits the composite
    ``key * stride + id`` into int64 and ranks exactly like ``sqrt``."""
    space = FlatTorus(16.0, 8.0)
    coord = _lattice_coord(LATTICE_STEPS[lattice])
    n_rows = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 10))
    pos = space.pack_batch([data.draw(coord) for _ in range(n_rows)])
    block = np.asarray(
        [[data.draw(coord) for _ in range(width)] for _ in range(n_rows)], dtype=float
    )
    dsq = space.rank_sq_rows(pos, block)
    stride = data.draw(st.sampled_from([1, 7, 3200, 51_200, 1 << 31]))
    key = batch_kernels.exact_rank_key(dsq, stride)
    assert key is not None and key.dtype == np.int64 and key.shape == dsq.shape
    assert key.min() >= 0
    assert int(key.max()) * stride + stride < 1 << 62
    assert _same_ranking(key, dsq)


@given(
    dsq=st.lists(
        st.floats(0.0, 1e9, allow_nan=False, width=64), min_size=1, max_size=24
    ),
    stride=st.integers(-2, 1 << 40),
)
@settings(max_examples=150, deadline=None)
def test_exact_rank_key_is_sound_on_any_input(dsq, stride):
    """Whatever the values, a returned key is a correct one — and
    ``stride <= 0`` (a block without a single id) never gets one."""
    dsq = np.asarray([dsq], dtype=float)
    key = batch_kernels.exact_rank_key(dsq, stride)
    if stride <= 0:
        assert key is None
    if key is not None:
        assert int(key.max()) * stride + stride < 1 << 62
        assert _same_ranking(key, dsq)


def test_exact_rank_key_rejects_non_dyadic_and_exhausted_head_room():
    space = FlatTorus(16.0, 8.0)
    tenth = np.asarray(
        [[(0.1 * i, 0.1 * j) for i in range(12) for j in range(4)]], dtype=float
    )
    dsq = space.rank_sq_rows(tenth[:, 0], tenth)
    assert batch_kernels.exact_rank_key(dsq, 3200) is None
    whole = np.asarray([[0.0, 1.0, 4.0, 9.0]])
    assert batch_kernels.exact_rank_key(whole, 3200) is not None
    assert batch_kernels.exact_rank_key(whole, 0) is None
    assert batch_kernels.exact_rank_key(whole, -1) is None
    # Head-room: the key itself (2**51) and the composite (2**62).
    assert batch_kernels.exact_rank_key(whole * float(1 << 49), 1) is None
    assert batch_kernels.exact_rank_key(whole, 1 << 59) is None
    assert batch_kernels.exact_rank_key(whole, 1 << 58) is not None
    # A quarter-step block with no room to scale by four falls back.
    assert batch_kernels.exact_rank_key(whole + 0.25, 1 << 58) is None
    assert batch_kernels.exact_rank_key(np.asarray([[np.inf, 1.0]]), 8) is None
    assert batch_kernels.exact_rank_key(np.asarray([[np.nan, 1.0]]), 8) is None


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_take_rows_matches_take_along_axis_and_row_fancy_indexing(data):
    """``take_rows`` ≡ ``np.take_along_axis`` (2-D) / ``mat[rix, cols]``
    (3-D, trailing axes kept), including no picks at all, one row,
    1-D picks and non-contiguous operands."""
    n = data.draw(st.integers(1, 5))
    w = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(0, 6))
    dim = data.draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 16)))
    shape = (n, w) if dim is None else (n, w, dim)
    layout = data.draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":
        mat = rng.random((n, 2 * w) + shape[2:])[:, ::2]
    elif layout == "transposed":
        mat = np.swapaxes(rng.random((w, n) + shape[2:]), 0, 1)
    else:
        mat = rng.random(shape)
    assert mat.shape == shape
    cols = rng.integers(0, w, (n, k))
    if data.draw(st.booleans()):
        cols = cols[:, ::-1]  # a non-contiguous pick, like ``order[:, :k]``
    got = batch_kernels.take_rows(mat, cols)
    np.testing.assert_array_equal(got, mat[np.arange(n)[:, None], cols])
    if dim is None:
        np.testing.assert_array_equal(got, np.take_along_axis(mat, cols, axis=1))
    one = rng.integers(0, w, n)
    np.testing.assert_array_equal(
        batch_kernels.take_rows(mat, one), mat[np.arange(n), one]
    )


@pytest.mark.parametrize("kernel", PRIORITY_KERNELS)
def test_dedup_kernels_empty_load(kernel):
    """Empty flat loads (no bucket at all) return empty selections."""
    empty = np.zeros(0, dtype=np.int64)
    sel, slot, age = kernel(empty, empty, empty, empty, empty, 4)
    assert len(sel) == 0 and len(slot) == 0 and len(age) == 0


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_counting_partition_matches_stable_argsort(data):
    """The migration round's counting-based stable partition (valid
    candidates packed to the front, order preserved) ≡ the stable
    argsort on ``~valid`` it replaced."""
    n = data.draw(st.integers(1, 8))
    w = data.draw(st.integers(1, 10))
    cand = np.asarray(
        data.draw(
            st.lists(
                st.lists(st.integers(-1, 50), min_size=w, max_size=w),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    valid = cand >= 0
    run_v = np.cumsum(valid, axis=1)
    counts = run_v[:, -1]
    col = np.arange(w, dtype=np.int64)
    dest = np.where(valid, run_v - 1, counts[:, None] + col - run_v)
    packed = np.empty_like(cand)
    np.put_along_axis(packed, dest, cand, axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    want = np.take_along_axis(cand, order, axis=1)
    np.testing.assert_array_equal(packed, want)


# -- row-blocked topology merges ------------------------------------------
#
# ``_apply_merges`` cuts the receivers into budget-sized row blocks and
# ``keep_last_per_row`` always takes the dense last-writer scatter.  The
# retired alternatives live on here as oracles only: the per-row stable
# sort dedup, and one whole-network pad handed to a single kernel call.

import contextlib
from unittest import mock

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime import state_digest
from repro.sim.batch.topology import BatchTMan, BatchVicinity

from .topology_merge_oracle import MergeSim


def _keep_last_by_sort(ids_pad, valid):
    """Per-row stable sort by id: the last entry of each equal-id run is
    the rightmost copy (the dedup path the dense scatter replaced)."""
    n_rows, width = ids_pad.shape
    sentinel = np.iinfo(np.int64).max
    key = np.where(valid, ids_pad, sentinel)
    order = np.argsort(key, axis=1, kind="stable")
    k_s = np.take_along_axis(key, order, axis=1)
    last = np.empty((n_rows, width), dtype=bool)
    last[:, -1] = True
    last[:, :-1] = k_s[:, :-1] != k_s[:, 1:]
    last &= k_s != sentinel
    keep = np.zeros((n_rows, width), dtype=bool)
    np.put_along_axis(keep, order, last, axis=1)
    return keep


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_keep_last_per_row_matches_sort_oracle(data):
    n_rows = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, 14))
    cells = st.lists(
        st.lists(st.integers(-1, 9), min_size=width, max_size=width),
        min_size=n_rows,
        max_size=n_rows,
    )
    ids_pad = np.asarray(data.draw(cells), dtype=np.int64)
    valid = ids_pad >= 0
    stride = int(ids_pad.max()) + 1 + data.draw(st.integers(0, 3))
    np.testing.assert_array_equal(
        batch_kernels.keep_last_per_row(ids_pad, valid, stride),
        _keep_last_by_sort(ids_pad, valid),
    )


def _whole_network_merge(layer, sim, recv, msgs):
    """Expected ``(ids, ages)`` state: every addressed receiver's view
    and filtered incoming entries, in arrival order, in ONE pad handed
    to ONE kernel call."""
    table = sim.network.table
    C = layer.capacity
    incoming = {}
    for r, row in zip(recv.tolist(), msgs.tolist()):
        got = incoming.setdefault(r, [])
        for nid in row:
            if nid >= 0 and nid != table._nid_of[r] and nid not in sim._detected:
                got.append(nid)
    recv = np.asarray(sorted(incoming), dtype=np.int64)
    width = C + max(len(got) for got in incoming.values())
    pad = np.full((len(recv), width), -1, dtype=np.int32)
    pad[:, :C] = layer._ids[recv]
    ages_pad = None
    if layer._ages is not None:
        ages_pad = np.zeros((len(recv), width), dtype=np.int64)
        ages_pad[:, :C] = layer._ages[recv]
    for u, r in enumerate(recv.tolist()):
        pad[u, C : C + len(incoming[r])] = incoming[r]
    out = batch_kernels.merge_rank_truncate(
        layer.space, table.coords_rows()[recv], pad,
        table.coords_at(table.rows_of(pad)), pad >= 0, C,
        int(pad.max(initial=-1)) + 1, ages_pad,
    )
    want = [layer._ids.copy()]
    if ages_pad is not None:
        want.append(layer._ages.copy())
    for state, block in zip(want, out):
        state[recv] = block
    return want


@pytest.mark.parametrize("with_ages", [False, True], ids=("tman", "vicinity"))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_blocked_apply_merges_matches_whole_network_call(with_ages, data):
    """Blocked ``_apply_merges`` ≡ one whole-network call for block
    sizes {1, 3, U-1, U, >U}, with a flooded receiver, receivers whose
    incoming entries are all filtered (``-1`` pads, own id, detected
    peers) and the id gaps reinjection leaves (ids sparse in a range far
    wider than the row count)."""
    space = FlatTorus(16.0, 8.0)
    n_rows = data.draw(st.integers(2, 9))
    cap = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 4))
    nid_of = np.asarray(
        data.draw(
            st.lists(st.integers(0, 60), min_size=n_rows, max_size=n_rows, unique=True)
        ),
        dtype=np.int64,
    )
    detected = set(data.draw(st.lists(st.integers(0, 60), max_size=6)))
    coord = st.tuples(st.integers(0, 15).map(float), st.integers(0, 7).map(float))
    pos = np.asarray([data.draw(coord) for _ in range(n_rows)], dtype=float)
    peer_pos = np.asarray([data.draw(coord) for _ in range(61)], dtype=float)
    peer_pos[nid_of] = pos
    sim = MergeSim(nid_of, pos, detected, peer_pos)
    # Ids a view or a message may carry: live nodes, detected peers,
    # strangers — and the empty slot.
    any_id = st.one_of(st.just(-1), st.sampled_from(nid_of.tolist()), st.integers(0, 60))

    def grid(n, w, elem):
        return data.draw(
            st.lists(st.lists(elem, min_size=w, max_size=w), min_size=n, max_size=n)
        )

    if with_ages:
        layer = BatchVicinity(space, rps=None, view_size=cap)
    else:
        layer = BatchTMan(space, rps=None, view_cap=cap)
    layer._ensure_rows(sim.network.table)
    # Stored views hold each id at most once (every merge dedups).
    for r in range(n_rows):
        held = data.draw(st.lists(st.integers(0, 60), max_size=cap, unique=True))
        layer._ids[r, : len(held)] = held
    if with_ages:
        layer._ages[:n_rows] = np.asarray(grid(n_rows, cap, st.integers(0, 30)))

    flooded = data.draw(st.integers(0, n_rows - 1))
    recv_blocks, ids_blocks = [], []
    for _ in range(2):  # payloads, then replies
        rows = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=8))
        rows += [flooded] * data.draw(st.integers(0, 6))
        recv_blocks.append(np.asarray(rows, dtype=np.int64))
        ids = np.asarray(grid(len(rows), m, any_id), dtype=np.int32)
        for e in range(len(rows)):
            if data.draw(st.integers(0, 3)) == 0:  # nothing survives the filter
                ids[e] = data.draw(
                    st.sampled_from([-1, int(nid_of[rows[e]]), *sorted(detected)])
                )
        ids_blocks.append(ids)

    # Stacked as the layer stacks them: payloads above replies.
    recv = np.concatenate(recv_blocks)
    msgs = np.concatenate(ids_blocks)
    want = _whole_network_merge(layer, sim, recv, msgs)
    start = [layer._ids.copy()]
    if with_ages:
        start.append(layer._ages.copy())
    U = len(set(recv.tolist()))
    for rows_per_block in sorted({1, 3, max(U - 1, 1), U, U + 7}):
        layer._ids[:] = start[0]
        if with_ages:
            layer._ages[:] = start[1]
        with mock.patch.object(
            batch_kernels, "block_rows", lambda *_, n=rows_per_block: n
        ):
            layer._apply_merges(sim, recv, msgs.copy())
        got = [layer._ids] + ([layer._ages] if with_ages else [])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


@pytest.mark.slow
def test_blocked_run_matches_unblocked_at_160x80():
    """Chunked/unchunked parity at a paper shape: the Fig. 10a 160×80
    grid through the repair wave, budget-sized row blocks vs every
    stage in one whole-network block."""
    cfg = ScenarioConfig(
        engine="batch", width=160, height=80, metrics=(), seed=1,
        failure_round=2, reinjection_round=None, total_rounds=4,
    )

    def digest_after_run(rows_per_block=None):
        # Prepared at the budget either way: no stage runs before the
        # first round, and one whole-network block of the bootstrap
        # oracle would be 12,800 x 12,800 keys (2.6 GB).
        sim, *_ = prepare_scenario(cfg)
        whole = mock.patch.object(batch_kernels, "block_rows", lambda *_: rows_per_block)
        with whole if rows_per_block else contextlib.nullcontext():
            sim.run(cfg.total_rounds)
        return state_digest(sim)

    assert digest_after_run() == digest_after_run(1 << 30)


# -- blocked nearest-node kernel (the lost-point term of homogeneity) ------

import importlib

# (the package re-exports the ``homogeneity`` function under the
# module's own name, so the module has to be asked for by path)
homogeneity_mod = importlib.import_module("repro.metrics.homogeneity")

NEAREST_SPACES = [
    Euclidean(2),
    Euclidean(3),
    FlatTorus(80.0, 40.0),
    FlatTorus(1.5, 7.25),
    Ring(12.5),
    # Three axes: ``einsum`` sums the squares in another order than the
    # axis loop, so this torus checks that order.
    FlatTorus(4.0, 5.0, 6.0),
]


def _canonical_coords(data, space, n, grid):
    """``n`` canonical coordinates of ``space``: inside the period cell
    for the modular spaces, on the integer grid or fractional."""
    highs = getattr(space, "periods", (50.0,) * space.dim)
    if grid:
        axis = [st.integers(0, max(int(h) - 1, 0)).map(float) for h in highs]
    else:
        axis = [
            st.floats(0, h, exclude_max=True, allow_nan=False, allow_subnormal=False)
            for h in highs
        ]
    rows = data.draw(st.lists(st.tuples(*axis), min_size=n, max_size=n))
    return np.asarray(rows, dtype=float).reshape(n, space.dim)


@pytest.mark.parametrize("space", NEAREST_SPACES, ids=repr)
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "fractional"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_blocked_nearest_node_matches_pairwise_min(space, grid, data):
    """``_nearest_node`` ≡ the least of each query's distances to the
    positions, bit for bit, whatever the block size."""
    n = data.draw(st.integers(1, 9))
    queries = _canonical_coords(data, space, n, grid)
    positions = _canonical_coords(data, space, data.draw(st.integers(1, 12)), grid)
    want = np.asarray([space.distance_block(q, positions).min() for q in queries])
    for step in sorted({1, max(n - 1, 1), n, n + 5}):
        with mock.patch.object(homogeneity_mod, "block_rows", lambda *_, s=step: s):
            got = homogeneity_mod._nearest_node(space, queries, positions)
        assert got.tobytes() == want.tobytes()
