"""The message-granular topology merge ≡ its entry-granular oracle.

``_BatchTopologyBase._apply_merges`` buckets whole messages per receiver
and leaves what a receiver refuses as ``-1`` holes;
``tests/topology_merge_oracle.entry_merge`` is the merge as it was —
every entry flattened, filtered entries packed out.  Both must leave
byte-identical view ids / Vicinity ``ages`` and charge the meter the
same, on both ranking branches of ``merge_rank_truncate``
(``exact_rank_key`` on a dyadic lattice, the float cascade off it).

The last tests are the check's own teeth: two wrong merges — filter
before metering, the first copy of an id winning over the last (so a
Vicinity entry heard of again keeps its old age) — must each fail it.
Arrival order among messages is no longer observable: a message carries
ids only, and every copy of an id ranks at the peer's table position.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.batch import kernels
from repro.sim.batch.topology import BatchTMan, BatchVicinity
from repro.spaces import FlatTorus

from .topology_merge_oracle import MergeSim, entry_merge

SPACE = FlatTorus(16.0, 8.0)
MAX_ID = 60

#: Quarter steps have an exact integer rank key; thirds never do.
LATTICES = {
    "dyadic": st.tuples(
        st.integers(0, 63).map(lambda i: i / 4), st.integers(0, 31).map(lambda i: i / 4)
    ),
    "thirds": st.tuples(
        st.integers(0, 47).map(lambda i: i / 3), st.integers(0, 23).map(lambda i: i / 3)
    ),
}
LAYERS = {
    "tman": lambda cap: BatchTMan(SPACE, rps=None, view_cap=cap),
    "vicinity": lambda cap: BatchVicinity(SPACE, rps=None, view_size=cap),
}


def make_layer(kind, cap, nid_of, pos, detected, views, peer_pos, ages=None):
    """A layer holding ``views`` (one id list per row) and its sim stub;
    ``peer_pos`` places every id, the receivers at their own ``pos``."""
    peer_pos = np.array(peer_pos, float)
    peer_pos[np.asarray(nid_of)] = pos
    sim = MergeSim(np.asarray(nid_of, np.int64), np.asarray(pos, float), detected, peer_pos)
    layer = LAYERS[kind](cap)
    layer._ensure_rows(sim.network.table)
    for r, held in enumerate(views):
        layer._ids[r, : len(held)] = held
    if layer._ages is not None and ages is not None:
        layer._ages[:] = ages
    return layer, sim


def assert_merges_agree(layer, sim, recv, ids, merge=None):
    """Run the shipped merge (or ``merge``, a stand-in for it) and the
    oracle from the same state on the messages ``ids``; compare state
    and metering."""
    msgs = ids.astype(np.int32)
    table = sim.network.table
    want_layer, want_sim = copy.deepcopy(layer), MergeSim(
        table._nid_of, table.coords_rows(), sim._detected, sim.peer_pos
    )
    entry_merge(want_layer, want_sim, recv, msgs)
    got_layer = copy.deepcopy(layer)
    (merge or type(layer)._apply_merges)(got_layer, sim, recv, msgs.copy())
    np.testing.assert_array_equal(got_layer._ids, want_layer._ids)
    if layer._ages is not None:
        np.testing.assert_array_equal(got_layer._ages, want_layer._ages)
    assert sim.charged == want_sim.charged


def draw_case(data, kind, coord):
    """A receiver population and one round of stacked messages holding
    every shape the merge has to survive."""
    n_rows = data.draw(st.integers(3, 9))
    cap = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 4))
    nid_of = data.draw(
        st.lists(st.integers(0, MAX_ID), min_size=n_rows, max_size=n_rows, unique=True)
    )
    detected = sorted(set(data.draw(st.lists(st.integers(0, MAX_ID), max_size=6))))
    pos = [data.draw(coord) for _ in range(n_rows)]

    def grid(n, w, elem):
        return data.draw(
            st.lists(st.lists(elem, min_size=w, max_size=w), min_size=n, max_size=n)
        )

    # Stored views hold each id at most once (every merge dedups):
    # empty, short and full rows.
    views = [
        data.draw(st.lists(st.integers(0, MAX_ID), max_size=cap, unique=True))
        for _ in range(n_rows)
    ]
    ages = np.asarray(grid(n_rows, cap, st.integers(0, 30))) if kind == "vicinity" else None
    peer_pos = [data.draw(coord) for _ in range(MAX_ID + 1)]
    layer, sim = make_layer(kind, cap, nid_of, pos, detected, views, peer_pos, ages)

    # Ids a message may carry: live nodes (the receiver's own among
    # them), detected peers, strangers — and the empty slot.
    any_id = st.one_of(st.just(-1), st.sampled_from(nid_of), st.integers(0, MAX_ID))
    flooded, starved = data.draw(
        st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=2, unique=True)
    )
    others = [r for r in range(n_rows) if r != starved]
    recv = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=8))
    recv += [flooded] * data.draw(st.integers(8, 10))
    n_open = len(recv)
    recv += [starved] * data.draw(st.integers(1, 2))
    ids = np.asarray(grid(len(recv), k, any_id), dtype=np.int64)
    # The starved receiver: nothing addressed to it survives the filter,
    # and it must still be re-ranked.
    refused = [-1, nid_of[starved], *detected]
    ids[n_open:] = grid(len(recv) - n_open, k, st.sampled_from(refused))
    # One id in several of the flooded receiver's messages (and twice in
    # one, where a message has room).
    dup = data.draw(st.integers(0, MAX_ID))
    first = n_open - 8
    for j in data.draw(st.lists(st.integers(first, n_open - 1), min_size=2, max_size=5)):
        ids[j, data.draw(st.integers(0, k - 1))] = dup
    ids[first, 0] = ids[first, -1] = dup
    # Arrival order interleaves the receivers.
    perm = np.asarray(data.draw(st.permutations(range(len(recv)))))
    return layer, sim, np.asarray(recv, np.int64)[perm], ids[perm]


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("kind", sorted(LAYERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_message_merge_matches_entry_oracle(kind, lattice, data):
    assert_merges_agree(*draw_case(data, kind, LATTICES[lattice]))


# -- a fixed case: both kernel branches are reached, the mutants die --------


def fixed_case(kind="vicinity", step=0.25):
    """Row 0 (node 10, its view entries aged 5) is sent two payloads and
    then a reply that all carry node 7; they also carry row 0's own id
    and its view entry 11.  Row 1 gets one payload in between, carrying
    the detected node 9."""
    nid_of, detected = [10, 11, 12], [9]
    pos = [(1 * step, 1 * step), (8 * step, 4 * step), (3 * step, 9 * step)]
    views = [[11, 12], [10], []]
    peer_pos = step * np.asarray([(i % 7, i // 7) for i in range(MAX_ID + 1)], dtype=float)
    ages = np.zeros((3, 3), dtype=np.int64)
    ages[0, :2] = 5
    layer, sim = make_layer(kind, 3, nid_of, pos, detected, views, peer_pos, ages)
    recv = np.asarray([0, 1, 0, 0], dtype=np.int64)
    ids = np.asarray([[7, 10], [12, 9], [11, 7], [20, 7]], dtype=np.int64)
    return layer, sim, recv, ids


@pytest.mark.parametrize("kind", sorted(LAYERS))
@pytest.mark.parametrize("step, exact", [(0.25, True), (1 / 3, False)])
def test_fixed_case_agrees_on_both_ranking_branches(kind, step, exact):
    keys = []
    real = kernels.exact_rank_key

    def spy(dsq, stride):
        keys.append(real(dsq, stride))
        return keys[-1]

    with mock.patch.object(kernels, "exact_rank_key", spy):
        assert_merges_agree(*fixed_case(kind, step))
    assert keys and all((key is not None) == exact for key in keys)


def test_fixed_case_keeps_the_last_copy_and_meters_before_filtering():
    """Node 7, in three messages to row 0, is held once; view entry 11,
    heard of again, keeps the last copy's age 0 on Vicinity; own id 10
    and the detected 9 are refused; every descriptor sent is paid
    for."""
    for kind in ("tman", "vicinity"):
        layer, sim, recv, ids = fixed_case(kind)
        layer._apply_merges(sim, recv, ids.astype(np.int32))
        row0 = layer._ids[0].tolist()
        assert row0.count(7) == 1 and 10 not in row0 and 9 not in layer._ids[1]
        if kind == "vicinity":
            assert layer._ages[0][row0.index(11)] == 0
        assert sim.charged == [(kind, 8, 2)]


def test_messages_site_is_the_stacked_messages_and_four_index_columns():
    from repro.obs import mem as obs_mem

    layer, sim, recv, ids = fixed_case("vicinity")
    msgs = ids.astype(np.int32)
    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        layer._apply_merges(sim, recv, msgs)
        site = obs_mem.snapshot()["sites"]["vicinity.messages"]
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()
    # An int32 id a descriptor, four int64 message columns.
    assert site["peak"] == 4 * msgs.size + 4 * 8 * len(recv)
    assert site["family"] == "topology_pads" and site["cur"] == 0


def _filter_before_metering(layer, sim, recv, msgs):
    msgs[msgs == sim.network.table._nid_of[recv][:, None]] = -1
    msgs[sim.detected_entry_mask(msgs)] = -1
    type(layer)._apply_merges(layer, sim, recv, msgs)


def _first_copy_wins(layer, sim, recv, msgs):
    keep_last = kernels.keep_last_per_row

    def keep_first(ids_pad, valid, stride):
        flipped = keep_last(ids_pad[:, ::-1], valid[:, ::-1], stride)
        return flipped[:, ::-1]

    with mock.patch.object(kernels, "keep_last_per_row", keep_first):
        type(layer)._apply_merges(layer, sim, recv, msgs)


@pytest.mark.parametrize("mutant", [_filter_before_metering, _first_copy_wins])
def test_the_check_fails_a_wrong_merge(mutant):
    assert_merges_agree(*fixed_case())
    with pytest.raises(AssertionError):
        assert_merges_agree(*fixed_case(), merge=mutant)
