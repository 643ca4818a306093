"""Unit tests for the struct-of-arrays containers (repro.sim.arrays)."""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.arrays import OBJECT_DIM, NodeTable, ViewBuffer, take_coords
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


def _apply(model, buf, op, key, coord):
    """Apply one mutation to both the dict model and the buffer."""
    if op == "set":
        model[key] = coord
        buf[key] = coord
    elif op == "del" and key in model:
        del model[key]
        del buf[key]
    elif op == "merge":
        incoming = {key: coord, key + 1: coord}
        for nid, c in incoming.items():
            model[nid] = c
        buf.merge(
            np.array(list(incoming)), np.array(list(incoming.values())),
            own=-1, detected=frozenset(),
        )
    elif op == "keep":
        keep = sorted(model)[: max(1, len(model) // 2)]
        for nid in list(model):
            if nid not in keep:
                del model[nid]
        # keep insertion-order semantics of the dict rebuild
        reordered = {nid: model[nid] for nid in keep}
        model.clear()
        model.update(reordered)
        buf.keep_ranked(keep)


class TestViewBuffer:
    def test_mapping_protocol_matches_dict(self):
        entries = [(3, (1.0, 2.0)), (1, (0.0, 0.0)), (7, (5.0, 5.0))]
        buf = ViewBuffer(2, entries)
        ref = dict(entries)
        assert dict(buf) == ref
        assert list(buf) == list(ref)
        assert len(buf) == 3 and 3 in buf and 4 not in buf
        assert buf[7] == (5.0, 5.0)
        assert buf.get(4, "x") == "x"
        assert sorted(buf.items()) == sorted(ref.items())

    def test_randomised_mutations_match_dict_semantics(self):
        rng = random.Random(42)
        model: dict = {}
        buf = ViewBuffer(2)
        for step in range(300):
            op = rng.choice(["set", "set", "merge", "del", "keep"])
            key = rng.randrange(30)
            coord = (float(rng.randrange(10)), float(rng.randrange(10)))
            _apply(model, buf, op, key, coord)
            assert list(buf) == list(model), f"order diverged at step {step}"
            assert dict(buf) == model
            ids, coords = buf.arrays()
            assert ids.tolist() == list(model)
            if len(model):
                assert coords.tolist() == [list(c) for c in model.values()]

    def test_arrays_cache_invalidation(self):
        buf = ViewBuffer(2, [(1, (0.0, 0.0)), (2, (1.0, 1.0))])
        ids1, coords1 = buf.arrays()
        # No mutation: identical objects returned.
        ids2, coords2 = buf.arrays()
        assert ids1 is ids2 and coords1 is coords2
        buf[3] = (2.0, 2.0)
        ids3, _ = buf.arrays()
        assert ids3.tolist() == [1, 2, 3]

    def test_set_ranked_installs_clean_arrays(self):
        buf = ViewBuffer(2, [(i, (float(i), 0.0)) for i in range(5)])
        ids, coords = buf.arrays()
        order = np.array([3, 1, 0])
        pos = (0.0, 0.0)
        buf.set_ranked(ids[order], coords[order], ranked_for=pos)
        assert list(buf) == [3, 1, 0]
        assert buf.ranked_pos is pos
        ids2, coords2 = buf.arrays()
        assert ids2.tolist() == [3, 1, 0]
        assert coords2.tolist() == [[3.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        # Order-preserving eviction keeps the ranked marker ...
        buf.evict_ids([1])
        assert buf.ranked_pos is pos
        assert list(buf) == [3, 0]
        # ... but any merge clears it.
        buf.merge(np.array([9]), np.array([[9.0, 9.0]]), own=-1, detected=frozenset())
        assert buf.ranked_pos is None

    def test_object_coords_mode(self):
        a, b = frozenset({"x"}), frozenset({"y", "z"})
        buf = ViewBuffer(OBJECT_DIM, [(1, a), (2, b)])
        ids, coords = buf.arrays()
        assert ids.tolist() == [1, 2]
        assert coords == [a, b]
        assert buf[2] is b

    def test_evict(self):
        buf = ViewBuffer(2, [(i, (float(i), 0.0)) for i in range(6)])
        buf.evict_ids([1, 4])
        assert list(buf) == [0, 2, 3, 5]

    def test_pickle_and_deepcopy_roundtrip(self):
        buf = ViewBuffer(2, [(1, (0.5, 0.25)), (9, (3.0, 4.0))])
        for clone in (pickle.loads(pickle.dumps(buf)), copy.deepcopy(buf)):
            assert dict(clone) == dict(buf)
            assert list(clone) == list(buf)
            ids, coords = clone.arrays()
            assert ids.tolist() == [1, 9]
            assert coords.tolist() == [[0.5, 0.25], [3.0, 4.0]]

    def test_empty_buffer(self):
        buf = ViewBuffer(2)
        assert not buf and len(buf) == 0
        ids, coords = buf.arrays()
        assert len(ids) == 0 and coords.shape == (0, 2)


#: One mutation of the model test: an op name plus the raw draws it
#: reads (ids, a coordinate seed, a subset / order of the held ids).
_OPS = st.tuples(
    st.sampled_from(
        ["merge", "evict", "set_ranked", "keep_ranked", "set", "del", "pickle"]
    ),
    st.lists(st.integers(0, 24), max_size=8, unique=True),
    st.integers(0, 9),
    st.randoms(use_true_random=False),
)


def _coord(dim, nid, seed):
    if dim == OBJECT_DIM:
        return frozenset({nid % 5, seed})
    return (float(seed), float(nid) / 4.0)


def _step(buf, model, dim, op, ids, seed, rng):
    """Apply one mutation to the buffer and its plain-dict model."""
    held = list(model)
    if op == "merge":
        own, detected = seed, frozenset(ids[::3])
        coords = [_coord(dim, nid, seed) for nid in ids]
        batch = coords if dim == OBJECT_DIM else np.array(coords).reshape(-1, dim)
        adopted = buf.merge(np.array(ids, dtype=np.int64), batch, own, detected)
        want = [nid for nid in ids if nid != own and nid not in detected]
        assert adopted == want
        assert buf.ranked_pos is None or not want
        for nid, coord in zip(ids, coords):
            if nid in want:
                model[nid] = coord
    elif op == "evict":
        stale = [nid for nid in held if rng.random() < 0.4]
        buf.evict_ids(stale)
        for nid in stale:
            del model[nid]
    elif op in ("set_ranked", "keep_ranked"):
        keep = rng.sample(held, rng.randint(0, len(held)))
        if op == "keep_ranked":
            buf.keep_ranked(keep, ranked_for=seed)
        else:
            slots = np.array([held.index(nid) for nid in keep], dtype=np.intp)
            got_ids, got_coords = buf.arrays()
            buf.set_ranked(got_ids[slots], take_coords(got_coords, slots), seed)
        assert buf.ranked_pos == seed
        kept = {nid: model[nid] for nid in keep}
        model.clear()
        model.update(kept)
    elif op == "set":
        for nid in ids[:2]:
            buf[nid] = model[nid] = _coord(dim, nid, seed)
            assert buf.ranked_pos is None
    elif op == "del":
        for nid in [nid for nid in ids if nid in model]:
            del buf[nid]
            del model[nid]
    else:
        buf = pickle.loads(pickle.dumps(buf))
    return buf


@pytest.mark.parametrize("dim", [2, OBJECT_DIM])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=25))
def test_view_buffer_matches_a_dict_model(dim, ops):
    """Random sequences of every mutation the layers and tests make: after
    each step order, values and ``arrays()`` are the dict model's, and a
    vector view holds exactly its ids and coordinates."""
    buf, model = ViewBuffer(dim), {}
    for op, ids, seed, rng in ops:
        buf = _step(buf, model, dim, op, ids, seed, rng)
        assert list(buf) == list(model) and len(buf) == len(model)
        assert buf.items() == list(model.items())
        assert all(nid in buf for nid in model) and 25 not in buf
        got_ids, got_coords = buf.arrays()
        assert got_ids.dtype == np.int64 and got_ids.tolist() == list(model)
        if dim == OBJECT_DIM:
            assert got_coords == list(model.values())
        else:
            assert got_coords.shape == (len(model), dim)
            assert [tuple(row) for row in got_coords.tolist()] == list(model.values())
            assert buf.nbytes == len(model) * 8 * (1 + dim)
