"""The entry-granular topology merge, kept as the oracle of the
message-granular one.

This is ``repro.sim.batch.topology._BatchTopologyBase._apply_merges`` as
it stood before messages stayed stacked: every descriptor of the round
is flattened into entry-length columns (receiver row, id, coordinate),
filtered entries are *packed out*, the survivors are bucketed by
receiver with a stable radix pass over entries, and each row block is
padded to its widest packed row.  The shipped merge buckets whole
messages and leaves filtered entries behind as ``-1`` holes; both feed
the same :func:`~repro.sim.batch.kernels.merge_rank_truncate`, so on any
input they must leave byte-identical ``ids`` / ``coords`` / ``ages`` and
charge the meter the same (``tests/test_topology_merge``).

Not shipped: the topology merge has one implementation under ``src/``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.sim.batch import kernels


class MergeSim:
    """The slice of ``BatchSimulation`` that ``_apply_merges`` reads: a
    node table (``_nid_of``, positions, capacity), the detector's mask,
    and a meter that records what it was charged."""

    def __init__(self, nid_of, pos, detected):
        table = SimpleNamespace(
            _nid_of=nid_of, coords_rows=lambda: pos, capacity=len(nid_of)
        )
        self.network = SimpleNamespace(table=table)
        self._detected = np.asarray(sorted(detected), dtype=np.int64)
        self.charged = []
        self.meter = SimpleNamespace(
            charge_descriptors=lambda name, n, dim: self.charged.append((name, n, dim))
        )

    def detected_entry_mask(self, ids):
        return np.isin(ids, self._detected)


def entry_merge(layer, sim, recv, ids, coords) -> None:
    """Merge the stacked messages into ``layer``'s views one *entry* at
    a time; ``ids`` is not modified."""
    table = sim.network.table
    pos = table.coords_rows()
    C = layer.capacity
    dim = layer._coord_dim

    sim.meter.charge_descriptors(layer.name, int(np.count_nonzero(ids >= 0)), dim)
    inc_rows = np.repeat(recv, ids.shape[1])
    inc_ids = ids.ravel()
    inc_coords = coords.reshape(-1, dim)
    keep = inc_ids >= 0
    keep &= inc_ids != table._nid_of[inc_rows]
    keep &= ~sim.detected_entry_mask(inc_ids)
    kept = np.flatnonzero(keep)
    inc_rows = inc_rows[kept]

    # Receivers: every row addressed by a message gets re-ranked, even
    # if all its incoming entries were filtered out above.  Fullest
    # first, so a block's first row is its widest.
    cnt_in = np.bincount(inc_rows, minlength=len(layer._ids))
    touched = np.zeros(len(layer._ids), dtype=bool)
    touched[recv] = True
    recv_rows = np.flatnonzero(touched)
    recv_rows = recv_rows[kernels.radix_argsort(cnt_in[recv_rows])[::-1]]
    cnt_in = cnt_in[recv_rows]
    U = len(recv_rows)
    slot_of = np.zeros(len(layer._ids), dtype=np.int64)
    slot_of[recv_rows] = np.arange(U)

    # Per-receiver incoming columns in flat arrival order: a stable
    # radix grouping by receiver slot keeps equal-receiver entries in
    # input order, so a block's entries are one contiguous run and the
    # position within a receiver's run is the column offset.
    slot = slot_of[inc_rows]
    order = kernels.radix_argsort(slot)
    slot = slot[order]
    src = kept[order]
    inc_ids = inc_ids[src]
    inc_coords = inc_coords[src]
    ends = np.cumsum(cnt_in)
    col = C + np.arange(len(slot)) - (ends - cnt_in)[slot]

    stride = 1 + max(int(layer._ids.max(initial=-1)), int(inc_ids.max(initial=-1)))
    a = 0
    while a < U:
        width = C + int(cnt_in[a])
        b = min(U, a + kernels.block_rows(stride, width, dim))
        rows = recv_rows[a:b]
        lo = int(ends[a] - cnt_in[a])
        hi = int(ends[b - 1])
        ids_pad = np.full((b - a, width), -1, dtype=np.int64)
        coords_pad = np.zeros((b - a, width, dim))
        ids_pad[:, :C] = layer._ids[rows]
        coords_pad[:, :C] = layer._coords[rows]
        ids_pad[slot[lo:hi] - a, col[lo:hi]] = inc_ids[lo:hi]
        coords_pad[slot[lo:hi] - a, col[lo:hi]] = inc_coords[lo:hi]
        valid = ids_pad >= 0
        ages_pad = None
        if layer._ages is not None:
            # Incoming descriptors are freshly heard of: age 0.
            ages_pad = np.zeros((b - a, width), dtype=np.int64)
            ages_pad[:, :C] = layer._ages[rows]
        out = kernels.merge_rank_truncate(
            layer.space, pos[rows], ids_pad, coords_pad, valid, C, stride, ages_pad
        )
        layer._ids[rows] = out[0]
        layer._coords[rows] = out[1]
        if ages_pad is not None:
            layer._ages[rows] = out[2]
        a = b
