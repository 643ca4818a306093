"""The message-granular topology merge ≡ its entry-granular oracle.

``_BatchTopologyBase._apply_merges`` buckets whole messages per receiver
and leaves what a receiver refuses as ``-1`` holes;
``tests/topology_merge_oracle.entry_merge`` is the merge as it was —
every entry flattened, filtered entries packed out.  Both must leave
byte-identical descriptor versions / Vicinity ``ages`` and charge the
meter the same, on both ranking branches of ``merge_rank_truncate``
(``exact_rank_key`` on a dyadic lattice, the float cascade off it).

The last tests are the check's own teeth: three wrong merges — filter
before metering, replies before payloads, a later message packed left of
an earlier one — must each fail it.
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

from .helpers import put_descriptors, topology_views
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


def make_layer(kind, cap, nid_of, pos, detected, views, view_coords, ages=None):
    """A layer holding ``views`` (one id list per row) and its sim stub."""
    sim = MergeSim(np.asarray(nid_of, np.int64), np.asarray(pos, float), detected)
    layer = LAYERS[kind](cap)
    layer._ensure_rows(sim.network.table)
    ids = np.full(layer._ver.shape, -1, dtype=np.int64)
    for r, held in enumerate(views):
        ids[r, : len(held)] = held
    layer._ver[:] = put_descriptors(layer, ids, view_coords)
    if layer._ages is not None and ages is not None:
        layer._ages[:] = ages
    return layer, sim


def assert_merges_agree(layer, sim, recv, ids, coords, merge=None):
    """Run the shipped merge (or ``merge``, a stand-in for it) and the
    oracle from the same state on the messages ``(ids, coords)``, issued
    as descriptor versions; compare state and metering."""
    vers = put_descriptors(layer, ids, coords)
    want_layer, want_sim = copy.deepcopy(layer), MergeSim(
        sim.network.table._nid_of, sim.network.table.coords_rows(), sim._detected
    )
    entry_merge(want_layer, want_sim, recv, vers)
    got_layer = copy.deepcopy(layer)
    (merge or type(layer)._apply_merges)(got_layer, sim, recv, vers.copy())
    np.testing.assert_array_equal(got_layer._ver, want_layer._ver)
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
    layer, sim = make_layer(
        kind, cap, nid_of, pos, detected, views, grid(n_rows, cap, coord), ages
    )

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
    # one, where a message has room), each copy with its own coordinate.
    dup = data.draw(st.integers(0, MAX_ID))
    first = n_open - 8
    for j in data.draw(st.lists(st.integers(first, n_open - 1), min_size=2, max_size=5)):
        ids[j, data.draw(st.integers(0, k - 1))] = dup
    ids[first, 0] = ids[first, -1] = dup
    coords = np.asarray(grid(len(recv), k, coord), dtype=float)
    # Arrival order interleaves the receivers.
    perm = np.asarray(data.draw(st.permutations(range(len(recv)))))
    return layer, sim, np.asarray(recv, np.int64)[perm], ids[perm], coords[perm]


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("kind", sorted(LAYERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_message_merge_matches_entry_oracle(kind, lattice, data):
    assert_merges_agree(*draw_case(data, kind, LATTICES[lattice]))


# -- a fixed case: both kernel branches are reached, the mutants die --------


def fixed_case(kind="tman", step=0.25):
    """Row 0 (node 10) is sent two payloads and then a reply that
    disagree about node 7's position; they also carry row 0's own id
    and the detected node 9.  Row 1 gets one payload in between."""
    nid_of, detected = [10, 11, 12], [9]
    pos = [(1 * step, 1 * step), (8 * step, 4 * step), (3 * step, 9 * step)]
    views = [[11, 12], [10], []]
    view_coords = [[pos[1], pos[2], (0, 0)], [pos[0], (0, 0), (0, 0)], [(0, 0)] * 3]
    layer, sim = make_layer(kind, 3, nid_of, pos, detected, views, view_coords)
    recv = np.asarray([0, 1, 0, 0], dtype=np.int64)
    ids = np.asarray([[7, 10], [12, 9], [9, 7], [20, 7]], dtype=np.int64)
    coords = step * np.asarray(
        [[(2, 2), (1, 1)], [(3, 9), (2, 2)], [(2, 2), (2, 1)], [(40, 20), (1, 2)]],
        dtype=float,
    )
    return layer, sim, recv, ids, coords


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
    layer, sim, recv, ids, coords = fixed_case()
    layer._apply_merges(sim, recv, put_descriptors(layer, ids, coords))
    # node 7 where the last message to row 0 (the reply) placed it; own
    # id 10 and the detected 9 refused; every descriptor sent paid for.
    view_ids, view_coords = topology_views(layer)
    row0 = dict(zip(view_ids[0].tolist(), view_coords[0].tolist()))
    assert row0[7] == [0.25, 0.5] and 10 not in row0 and 9 not in row0
    assert sim.charged == [("tman", 8, 2)]


def test_messages_site_is_the_stacked_messages_and_four_index_columns():
    from repro.obs import mem as obs_mem

    layer, sim, recv, ids, coords = fixed_case("vicinity")
    vers = put_descriptors(layer, ids, coords)
    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        layer._apply_merges(sim, recv, vers)
        site = obs_mem.snapshot()["sites"]["vicinity.messages"]
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()
    # An int32 version a descriptor, four int64 message columns.
    assert site["peak"] == 4 * vers.size + 4 * 8 * len(recv)
    assert site["family"] == "topology_pads" and site["cur"] == 0


def _filter_before_metering(layer, sim, recv, vers):
    ids = layer._vnid.take(vers)
    vers[ids == sim.network.table._nid_of[recv][:, None]] = -1
    vers[sim.detected_entry_mask(ids)] = -1
    type(layer)._apply_merges(layer, sim, recv, vers)


def _replies_before_payloads(layer, sim, recv, vers):
    first = np.asarray([3, 0, 1, 2])  # the reply to row 0 is message 3
    type(layer)._apply_merges(layer, sim, recv[first], vers[first])


def _later_message_packed_first(layer, sim, recv, vers):
    def unstable(a):  # equal keys in reverse input order
        return np.lexsort((-np.arange(len(a)), a))

    with mock.patch.object(kernels, "radix_argsort", unstable):
        type(layer)._apply_merges(layer, sim, recv, vers)


@pytest.mark.parametrize(
    "mutant",
    [_filter_before_metering, _replies_before_payloads, _later_message_packed_first],
)
def test_the_check_fails_a_wrong_merge(mutant):
    assert_merges_agree(*fixed_case())
    with pytest.raises(AssertionError):
        assert_merges_agree(*fixed_case(), merge=mutant)
