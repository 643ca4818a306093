"""Unit tests for the struct-of-arrays containers (repro.sim.arrays)."""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.gossip.ranking import rank_current
from repro.sim.arrays import OBJECT_DIM, NodeTable, ViewStore


class TestNodeTable:
    def test_vector_layout_from_first_coord(self):
        table = NodeTable()
        row = table.add(0, (1.0, 2.0))
        assert table.is_vector
        assert table.dim == 2
        assert table.pos(row) == (1.0, 2.0)
        assert np.array_equal(table.coords_rows()[row], [1.0, 2.0])

    def test_object_layout_for_set_coords(self):
        table = NodeTable()
        coord = frozenset({"a", "b"})
        row = table.add(0, coord)
        assert not table.is_vector
        assert table.dim == OBJECT_DIM
        assert table.pos(row) is coord
        assert table.coords_rows() is None
        assert table.gather(np.array([0])) == [coord]

    def test_pos_returns_canonical_tuple_object(self):
        table = NodeTable()
        coord = (3.0, 4.0)
        row = table.add(7, coord)
        assert table.pos(row) is coord
        newer = (5.0, 6.0)
        table.set_coord(row, newer)
        assert table.pos(row) is newer

    def test_alive_mask_and_gather(self):
        table = NodeTable()
        for nid in range(6):
            table.add(nid, (float(nid), 0.0))
        table.mark_dead(table.row(2), rnd=5)
        table.mark_dead(table.row(4), rnd=5)
        ids = np.array([0, 2, 3, 4, 5])
        assert table.alive_mask(ids).tolist() == [True, False, True, False, True]
        gathered = table.gather(np.array([3, 0]))
        assert gathered.tolist() == [[3.0, 0.0], [0.0, 0.0]]

    def test_reclaim_takes_dead_rows_only(self):
        table = NodeTable()
        for nid in range(3):
            table.add(nid, (float(nid), 0.0))
        with pytest.raises(SimulationError):
            table.reclaim(np.array([1]))  # alive
        with pytest.raises(SimulationError):
            table.reclaim(np.array([5]))  # no node's row
        assert table.n_rows == 3 and table.alive_mask(np.arange(3)).all()

    def test_duplicate_id_rejected(self):
        table = NodeTable()
        table.add(0, (0.0, 0.0))
        with pytest.raises(SimulationError):
            table.add(0, (1.0, 1.0))
        # The failed add must not have leaked a row.
        assert table.n_rows == 1
        assert table.spare_rows == table.capacity - 1
        assert table.add(1, (1.0, 1.0)) == 1

    def test_released_ids_report_dead_not_aliased(self):
        """A view that still references a reclaimed id must see it as
        dead — never alias whichever node takes (or neighbours) the row
        number it had."""
        table = NodeTable()
        for nid in range(3):
            table.add(nid, (float(nid), 0.0))
        table.mark_dead(table.row(1), rnd=2)
        table.reclaim(np.array([table.row(1)]))
        assert table.row(1) == -1 and table.row(2) == 1  # 2 took its row
        table.add(3, (9.0, 9.0))  # alive, in the next row
        mask = table.alive_mask(np.array([0, 1, 2, 3]))
        assert mask.tolist() == [True, False, True, True]
        assert table.gather(np.array([1])).tolist() == [[0.0, 0.0]]

    def test_growth_preserves_state(self):
        table = NodeTable()
        coords = [(float(i), float(i % 7)) for i in range(200)]
        for nid, coord in enumerate(coords):
            table.add(nid, coord)
        ids = np.arange(200)
        assert table.alive_mask(ids).all()
        assert table.gather(ids).tolist() == [list(c) for c in coords]


def assert_sentinel(table: NodeTable) -> None:
    """The last slot of every column is the never-allocated sentinel."""
    assert table._row_of[-1] == -1
    assert table.n_rows < len(table._alive)
    assert not table._alive[-1]
    assert not table._coords[-1].any()
    pads = np.array([[-1, -1]])
    rows = table.rows_of(pads)
    assert rows.tolist() == [[-1, -1]]
    assert not table.alive_at(rows).any()
    assert not table.coords_at(rows).any()


class TestNodeTableSentinel:
    def test_invariants_hold_across_growth_release_and_reuse(self):
        table = NodeTable()
        rng = random.Random(4)
        live, reclaimed, next_id = [], [], 0
        for step in range(400):
            # Adds dominate (they cross every row and id capacity
            # boundary); ids jump so ``_grow_ids`` outpaces ``_grow_rows``.
            # A crash's row is reclaimed at once, so later adds take the
            # row numbers it freed.
            if live and rng.random() < 0.35:
                nid = live.pop(rng.randrange(len(live)))
                table.mark_dead(table.row(nid), rnd=step)
                table.reclaim(np.array([table.row(nid)]))
                reclaimed.append(nid)
            else:
                next_id += rng.choice((1, 1, 1, 9))
                table.add(next_id, (float(next_id), float(step)))
                live.append(next_id)
            assert_sentinel(table)
            block = np.array([live[-3:] + reclaimed[-3:] + [-1]])
            rows = table.rows_of(block)
            n_live = len(live[-3:])
            assert table.alive_at(rows)[0].tolist() == [True] * n_live + [False] * (
                block.shape[1] - n_live
            )
            coords = table.coords_at(rows)[0]
            assert coords[:n_live, 0].tolist() == [float(n) for n in live[-3:]]
            assert not coords[n_live:].any()

    def test_full_row_and_id_capacity_keep_the_sentinel_free(self):
        """Filling exactly to a capacity boundary must grow, not hand
        the sentinel slot out."""
        table = NodeTable()
        for nid in range(64):
            table.add(nid, (1.0 + nid, 1.0))
            assert_sentinel(table)
        assert table.alive_mask(np.arange(64)).all()

    def test_padded_reads_take_any_shape(self):
        table = NodeTable()
        for nid in range(5):
            table.add(nid, (float(nid + 1), 2.0))
        table.mark_dead(table.row(3), rnd=1)
        ids = np.array([[[0, -1], [3, 4]]])
        assert table.alive_mask(ids).tolist() == [[[True, False], [False, True]]]
        assert table.gather(ids).shape == (1, 2, 2, 2)
        assert table.gather(ids)[0, 0].tolist() == [[1.0, 2.0], [0.0, 0.0]]
        flags = table.row_flags(table.rows_of(np.array([3])), sentinel=True)
        assert flags.take(table.rows_of(ids)).tolist() == [[[False, True], [True, False]]]

    def test_pickle_and_deepcopy_keep_the_sentinel(self):
        table = NodeTable()
        for nid in range(20):
            table.add(nid, (float(nid), 1.0))
        table.mark_dead(table.row(7), rnd=2)
        table.reclaim(np.array([table.row(7)]))
        for clone in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert_sentinel(clone)
            ids = np.array([0, 7, 19, -1])
            assert clone.alive_mask(ids).tolist() == table.alive_mask(ids).tolist()
            assert clone.gather(ids).tolist() == table.gather(ids).tolist()

class _Store(ViewStore):
    """A bare view store: one row per table row, ``width`` slots."""

    name = "probe"

    def __init__(self, width, **kwargs):
        self._init_views(width, **kwargs)


def _table(n, coord=lambda nid: (float(nid), 0.0)):
    table = NodeTable()
    for nid in range(n):
        table.add(nid, coord(nid))
    return table


class TestViewBuffer:
    """A view is a row of one layer's :class:`ViewStore`: int32 peer ids
    packed in front of ``-1`` slots, read in slot order with dict key
    semantics, the row arrays following the node table, no coordinate
    held."""

    def test_mapping_protocol_matches_dict(self):
        store = _Store(5)
        store._ensure_rows(_table(2))
        ref = dict.fromkeys([3, 1, 7, 1])
        store._put(0, list(ref))
        assert store.row_ids(0).tolist() == list(ref)
        assert len(store.row_ids(0)) == 3 and 3 in store.row_ids(0) and 4 not in store.row_ids(0)
        assert not hasattr(store, "items") and not hasattr(store, "__getitem__")

    def test_randomised_mutations_match_dict_semantics(self):
        rng = random.Random(42)
        store = _Store(8)
        store._ensure_rows(_table(2))
        model: dict = {}
        for step in range(300):
            key = rng.randrange(30)
            op = rng.choice(["merge", "merge", "del", "keep"])
            if op == "merge":
                new = dict.fromkeys(model)
                new.update(dict.fromkeys([key, key + 1]))
                if len(new) <= 8:
                    model = new
            elif op == "del":
                model.pop(key, None)
            else:
                model = dict.fromkeys(sorted(model)[: max(1, len(model) // 2)])
            store._put(1, list(model))
            assert store.row_ids(1).tolist() == list(model), f"order diverged at step {step}"
            assert (store._ids[1, len(model) :] == -1).all()

    def test_arrays_cache_invalidation(self):
        """The id array is the state: a write is what the next read
        sees, with no cached copy to invalidate, and a read is a copy
        that a later write does not change."""
        store = _Store(4)
        store._ensure_rows(_table(2))
        store._put(0, [1, 2])
        before = store.row_ids(0)
        store._put(0, [1, 2, 3])
        assert store.row_ids(0).tolist() == [1, 2, 3] and before.tolist() == [1, 2]
        assert store.ids_rows(np.array([0]))[0].tolist() == [1, 2, 3, -1]

    def test_set_ranked_installs_clean_arrays(self):
        """The rank memo is one column beside the ids: a rewrite of the
        row keeps it (an order-preserving eviction), it follows the
        table, and a fresh row reads not ranked."""
        table = _table(3)
        store = _Store(5, ranked=True)
        store._ensure_rows(table)
        assert (store._ranked_at == -1).all()
        store._put(1, [2, 0])
        store._ranked_at[1] = 7
        store._put(1, [2])
        assert store._ranked_at[1] == 7 and store.row_ids(1).tolist() == [2]
        table.mark_dead(0, rnd=0)
        table.reclaim(np.array([0]))
        store._ensure_rows(table)
        assert store._ranked_at[:3].tolist() == [7, -1, -1]

    def test_object_coords_mode(self):
        """An id row ranks over a table of coordinate objects (the
        Jaccard space) as it does over a float column."""
        from repro.spaces import JaccardSpace

        sets = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"z"})]
        table = _table(3, coord=sets.__getitem__)
        store = _Store(3)
        store._ensure_rows(table)
        store._put(0, [2, 1, 0])
        got = rank_current(JaccardSpace(), table, frozenset({"x"}), store.row_ids(0))
        assert got.tolist() == [0, 1, 2]

    def test_evict(self):
        store = _Store(6)
        store._ensure_rows(_table(1))
        store._put(0, list(range(6)))
        row = store.row_ids(0)
        store._put(0, row[~np.isin(row, [1, 4])])
        assert store.row_ids(0).tolist() == [0, 2, 3, 5]

    def test_pickle_and_deepcopy_roundtrip(self):
        store = _Store(2, ranked=True)
        store._ensure_rows(_table(2))
        store._put(0, [1, 0])
        store._ranked_at[0] = 3
        for clone in (pickle.loads(pickle.dumps(store)), copy.deepcopy(store)):
            assert clone.row_ids(0).tolist() == [1, 0] and clone._ranked_at[0] == 3
            assert clone._ids.dtype == np.int32

    def test_empty_buffer(self):
        store = _Store(3, ages=True)
        assert store.view_shape == (0, 3) and store.nbytes == 0
        store._ensure_rows(_table(2))
        assert store.row_ids(0).tolist() == [] and store.row_ids(0).dtype == np.int32
        # A node without a row (a reclaimed one) reads empty, not
        # the store's last row.
        store._put(store.view_shape[0] - 1, [1, 0], [0, 0])
        assert store.row_ids(-1).tolist() == []

    def test_put_packs_a_row_and_ages_ride_beside_it(self):
        store = _Store(4, ages=True)
        store._ensure_rows(_table(3))
        store._put(1, [2, 0], [5, 6])
        assert store._ids[1].tolist() == [2, 0, -1, -1]
        assert store._ages[1].tolist() == [5, 6, 0, 0]
        store._put(1, [7])
        assert store.row_ids(1).tolist() == [7] and store._ages[1, 0] == 5

    def test_rows_follow_growth_and_reclaim(self):
        table = _table(4)
        store = _Store(2, ages=True, ranked=True)
        store._ensure_rows(table)
        assert store.view_shape == (table.capacity, 2)
        for row in range(4):
            store._put(row, [row + 10], [row])
            store._ranked_at[row] = row
        table.mark_dead(1, rnd=0)
        table.reclaim(np.array([1]))
        store._ensure_rows(table)
        assert [store.row_ids(r).tolist() for r in range(4)] == [[10], [12], [13], []]
        assert store._ages[:4, 0].tolist() == [0, 2, 3, 0]
        assert store._ranked_at[:4].tolist() == [0, 2, 3, -1]
        for nid in range(4, 40):
            table.add(nid, (0.0, 0.0))
        store._ensure_rows(table)
        assert store.view_shape == (table.capacity, 2)
        assert store.row_ids(1).tolist() == [12]
        assert store.nbytes == table.capacity * (2 * 4 + 2 * 8 + 8)


def test_object_gather_resolves_pads_and_released_ids_to_no_node():
    """In object-coordinate mode a ``-1`` pad and a reclaimed id read
    ``None``, never another node's coordinate (the vector mode's zero
    sentinel has no object counterpart)."""
    table = _table(4, coord=lambda nid: frozenset({"abcd"[nid]}))
    assert table.gather(np.array([-1, 0])) == [None, frozenset({"a"})]
    table.mark_dead(2, rnd=0)
    table.mark_dead(1, rnd=0)
    table.reclaim(np.array([1, 2]))
    got = table.gather(np.array([2, 1, 3, -1]))
    assert got == [None, None, frozenset({"d"}), None]


#: One mutation of the model test: an op name plus the raw draws it
#: reads (ids, a coordinate seed, a subset / order of the held ids).
_OPS = st.tuples(
    st.sampled_from(["put", "evict", "move", "pickle"]),
    st.lists(st.integers(0, 24), max_size=8, unique=True),
    st.integers(0, 9),
    st.randoms(use_true_random=False),
)


def _coord(dim, nid, seed):
    if dim == OBJECT_DIM:
        return frozenset({nid % 5, seed})
    return (float(seed), float(nid) / 4.0)


def _step(store, model, table, dim, op, ids, seed, rng):
    """Apply one mutation to row 3 of the store, its plain-dict model and
    the node table the view's peers live in."""
    held = list(model)
    if op == "put":
        keep = rng.sample(held, rng.randint(0, len(held)))
        new = [nid for nid in ids if nid not in keep][: 8 - len(keep)]
        store._put(3, keep + new)
        model.clear()
        model.update(dict.fromkeys(keep + new))
    elif op == "evict":
        stale = [nid for nid in held if rng.random() < 0.4]
        row = store.row_ids(3)
        store._put(3, row[~np.isin(row, stale)])
        for nid in stale:
            del model[nid]
    elif op == "move":
        for nid in ids[:2]:
            table.set_coord(table.row(nid), _coord(dim, nid, seed))
    else:
        store = pickle.loads(pickle.dumps(store))
    return store


@pytest.mark.parametrize("dim", [2, OBJECT_DIM])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=25))
def test_view_buffer_matches_a_dict_model(dim, ops):
    """Random sequences of the row writes the layers make: after each
    step a store row is the dict model's keys in order, packed in front
    of its ``-1`` slots, and ranking it reads the peers' *current* table
    positions — the order a scalar sort by distance to those positions
    gives — for a vector and an object-coordinate table alike."""
    from repro.spaces import FlatTorus, JaccardSpace

    space = FlatTorus(10.0, 10.0) if dim == 2 else JaccardSpace()
    table = NodeTable()
    for nid in range(25):
        table.add(nid, _coord(dim, nid, 0))
    store, model = _Store(8), {}
    store._ensure_rows(table)
    for op, ids, seed, rng in ops:
        store = _step(store, model, table, dim, op, ids, seed, rng)
        row = store.row_ids(3)
        assert row.dtype == np.int32 and row.tolist() == list(model)
        assert (store._ids[3, len(model) :] == -1).all()
        origin = _coord(dim, 3, seed)
        want = sorted(
            model, key=lambda nid: (space.distance_sq(origin, table.pos(table.row(nid))), nid)
        )
        assert rank_current(space, table, origin, row).tolist() == want
