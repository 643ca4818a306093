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
from repro.sim.arrays import OBJECT_DIM, NodeTable, ViewBuffer
from repro.sim.network import Network


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

    def test_release_requires_dead_node(self):
        table = NodeTable()
        table.add(0, (0.0, 0.0))
        with pytest.raises(SimulationError):
            table.release(0)

    def test_free_list_reuse(self):
        table = NodeTable()
        for nid in range(4):
            table.add(nid, (float(nid), 0.0))
        table.mark_dead(table.row(1), rnd=3)
        freed = table.release(1)
        assert freed in table.free_rows
        # The next node added reuses the freed row; the table does not
        # grow.
        rows_before = table.n_rows
        row = table.add(99, (9.0, 9.0))
        assert row == freed
        assert table.n_rows == rows_before
        assert table.pos(table.row(99)) == (9.0, 9.0)
        assert table.alive_mask(np.array([99])).tolist() == [True]

    def test_duplicate_id_rejected(self):
        table = NodeTable()
        table.add(0, (0.0, 0.0))
        with pytest.raises(SimulationError):
            table.add(0, (1.0, 1.0))
        # The failed add must not have leaked a row or free-list slot.
        assert table.n_rows == 1
        assert table.free_rows == []

    def test_released_ids_report_dead_not_aliased(self):
        """A view that still references a pruned id must see it as dead
        — never alias whichever node reuses (or neighbours) the row."""
        table = NodeTable()
        for nid in range(3):
            table.add(nid, (float(nid), 0.0))
        table.mark_dead(table.row(1), rnd=2)
        table.release(1)
        table.add(3, (9.0, 9.0))  # reuses row of 1, and is alive
        mask = table.alive_mask(np.array([0, 1, 2, 3]))
        assert mask.tolist() == [True, False, True, True]

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
        live, released, next_id = [], [], 0
        for step in range(400):
            # Adds dominate (they cross every row and id capacity
            # boundary); ids jump so ``_grow_ids`` outpaces ``_grow_rows``.
            if live and rng.random() < 0.35:
                nid = live.pop(rng.randrange(len(live)))
                table.mark_dead(table.row(nid), rnd=step)
                table.release(nid)
                released.append(nid)
            else:
                next_id += rng.choice((1, 1, 1, 9))
                table.add(next_id, (float(next_id), float(step)))
                live.append(next_id)
            assert_sentinel(table)
            block = np.array([live[-3:] + released[-3:] + [-1]])
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
        table.release(7)
        for clone in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert_sentinel(clone)
            ids = np.array([0, 7, 19, -1])
            assert clone.alive_mask(ids).tolist() == table.alive_mask(ids).tolist()
            assert clone.gather(ids).tolist() == table.gather(ids).tolist()

    def test_tables_pickled_before_the_sentinel_are_upgraded(self):
        """The old layout could have its last row and last id slot in
        use, and left coordinates past ``n_rows`` uninitialised."""
        table = NodeTable()
        for nid in range(8):
            table.add(nid, (float(nid + 1), 3.0))
        state = dict(table.__dict__)
        for column in ("_alive", "_death", "_nid_of", "_row_of"):
            state[column] = state[column][:8].copy()  # every slot in use
        state["_coords"] = state["_coords"][:8].copy()
        old = NodeTable.__new__(NodeTable)
        old.__setstate__(state)
        assert_sentinel(old)
        ids = np.array([0, 7, -1])
        assert old.alive_mask(ids).tolist() == [True, True, False]
        assert old.gather(ids).tolist() == [[1.0, 3.0], [8.0, 3.0], [0.0, 0.0]]
        assert old.add(8, (9.0, 3.0)) == 8
        assert_sentinel(old)


class TestNetworkRemoveNode:
    def test_remove_node_recycles_row_for_reinjection(self):
        network = Network()
        for i in range(5):
            network.add_node((float(i), 0.0))
        network.fail([2], rnd=1)
        network.remove_node(2)
        assert 2 not in network.nodes
        assert network.dead_ids() == []
        assert network.death_round(2) is None
        # A fresh (reinjected) node reuses the released row.
        fresh = network.add_node((9.0, 9.0))
        assert fresh.nid == 5
        assert network.table.n_rows == 5
        assert network.node(5).pos == (9.0, 9.0)

    def test_remove_alive_node_refused(self):
        network = Network()
        network.add_node((0.0, 0.0))
        with pytest.raises(Exception):
            network.remove_node(0)


def _apply(model, buf, op, key):
    """Apply one mutation to both the dict-of-keys model and the buffer."""
    if op == "merge":
        incoming = [key, key + 1]
        buf.merge(np.array(incoming), own=-1, detected=frozenset())
        model.update(dict.fromkeys(incoming))
    elif op == "del" and key in model:
        del model[key]
        buf.evict_ids([key])
    elif op == "keep":
        keep = sorted(model)[: max(1, len(model) // 2)]
        model.clear()
        model.update(dict.fromkeys(keep))
        buf.set_ranked(np.array(keep, dtype=np.int64))


class TestViewBuffer:
    """A view is an id column: ``in`` / ``len`` / iteration read it with
    dict key semantics, and no coordinate is held."""

    def test_mapping_protocol_matches_dict(self):
        buf = ViewBuffer([3, 1, 7, 1])
        ref = dict.fromkeys([3, 1, 7])
        assert list(buf) == list(ref)
        assert len(buf) == 3 and 3 in buf and 4 not in buf
        assert not hasattr(buf, "items") and not hasattr(buf, "__getitem__")

    def test_randomised_mutations_match_dict_semantics(self):
        rng = random.Random(42)
        model: dict = {}
        buf = ViewBuffer()
        for step in range(300):
            op = rng.choice(["merge", "merge", "del", "keep"])
            _apply(model, buf, op, rng.randrange(30))
            assert list(buf) == list(model), f"order diverged at step {step}"
            assert buf.ids.tolist() == list(model)

    def test_arrays_cache_invalidation(self):
        buf = ViewBuffer([1, 2])
        # No mutation: the same column is returned.
        assert buf.ids is buf.ids
        buf.merge(np.array([3]), own=-1, detected=frozenset())
        assert buf.ids.tolist() == [1, 2, 3]

    def test_set_ranked_installs_clean_arrays(self):
        buf = ViewBuffer(range(5))
        buf.set_ranked(buf.ids[np.array([3, 1, 0])], ranked_at=7)
        assert list(buf) == [3, 1, 0]
        assert buf.ranked_at == 7
        # Order-preserving eviction keeps the ranked marker ...
        buf.evict_ids([1])
        assert buf.ranked_at == 7
        assert list(buf) == [3, 0]
        # ... but any merge clears it.
        buf.merge(np.array([9]), own=-1, detected=frozenset())
        assert buf.ranked_at == -1

    def test_object_coords_mode(self):
        """An id view ranks over a table of coordinate objects (the
        Jaccard space) as it does over a float column."""
        from repro.spaces import JaccardSpace

        table = NodeTable()
        sets = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"z"})]
        for nid, coord in enumerate(sets):
            table.add(nid, coord)
        buf = ViewBuffer([2, 1, 0])
        got = rank_current(JaccardSpace(), table, frozenset({"x"}), buf.ids)
        assert got.tolist() == [0, 1, 2]

    def test_evict(self):
        buf = ViewBuffer(range(6))
        buf.evict_ids([1, 4])
        assert list(buf) == [0, 2, 3, 5]

    def test_pickle_and_deepcopy_roundtrip(self):
        buf = ViewBuffer([1, 9])
        buf.set_ranked(buf.ids, ranked_at=3)
        for clone in (pickle.loads(pickle.dumps(buf)), copy.deepcopy(buf)):
            assert list(clone) == [1, 9] and clone.ranked_at == 3
            assert clone.ids.dtype == np.int64

    def test_empty_buffer(self):
        buf = ViewBuffer()
        assert not buf and len(buf) == 0
        assert buf.ids.shape == (0,) and buf.nbytes == 0


#: One mutation of the model test: an op name plus the raw draws it
#: reads (ids, a coordinate seed, a subset / order of the held ids).
_OPS = st.tuples(
    st.sampled_from(["merge", "evict", "set_ranked", "move", "pickle"]),
    st.lists(st.integers(0, 24), max_size=8, unique=True),
    st.integers(0, 9),
    st.randoms(use_true_random=False),
)


def _coord(dim, nid, seed):
    if dim == OBJECT_DIM:
        return frozenset({nid % 5, seed})
    return (float(seed), float(nid) / 4.0)


def _step(buf, model, table, dim, op, ids, seed, rng):
    """Apply one mutation to the buffer, its plain-dict model and the
    node table the view's peers live in."""
    held = list(model)
    if op == "merge":
        own, detected = seed, frozenset(ids[::3])
        adopted = buf.merge(np.array(ids, dtype=np.int64), own, detected)
        want = [nid for nid in ids if nid != own and nid not in detected]
        assert adopted == want
        assert buf.ranked_at == -1 or not want
        model.update(dict.fromkeys(want))
    elif op == "evict":
        stale = [nid for nid in held if rng.random() < 0.4]
        buf.evict_ids(stale)
        for nid in stale:
            del model[nid]
    elif op == "set_ranked":
        keep = rng.sample(held, rng.randint(0, len(held)))
        buf.set_ranked(np.array(keep, dtype=np.int64), ranked_at=seed)
        assert buf.ranked_at == seed
        model.clear()
        model.update(dict.fromkeys(keep))
    elif op == "move":
        for nid in ids[:2]:
            table.set_coord(table.row(nid), _coord(dim, nid, seed))
    else:
        buf = pickle.loads(pickle.dumps(buf))
    return buf


@pytest.mark.parametrize("dim", [2, OBJECT_DIM])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=25))
def test_view_buffer_matches_a_dict_model(dim, ops):
    """Random sequences of every mutation the layers make: after each
    step the id column is the dict model's keys, 8 bytes an id, and
    ranking it reads the peers' *current* table positions — the order a
    scalar sort by distance to those positions gives — for a vector
    and an object-coordinate table alike."""
    from repro.spaces import FlatTorus, JaccardSpace

    space = FlatTorus(10.0, 10.0) if dim == 2 else JaccardSpace()
    table = NodeTable()
    for nid in range(25):
        table.add(nid, _coord(dim, nid, 0))
    buf, model = ViewBuffer(), {}
    for op, ids, seed, rng in ops:
        buf = _step(buf, model, table, dim, op, ids, seed, rng)
        assert list(buf) == list(model) and len(buf) == len(model)
        assert all(nid in buf for nid in model) and 25 not in buf
        assert buf.ids.dtype == np.int64 and buf.ids.tolist() == list(model)
        assert buf.nbytes == len(model) * 8
        origin = _coord(dim, 3, seed)
        want = sorted(
            model, key=lambda nid: (space.distance_sq(origin, table.pos(table.row(nid))), nid)
        )
        assert rank_current(space, table, origin, buf.ids).tolist() == want
