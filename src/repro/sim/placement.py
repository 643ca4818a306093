"""Placement state of both engines, as row-indexed arrays.

Table I of the paper gives every node ``guests``, ``ghosts`` and
``backups`` (``pos`` lives in the node table).  Both engines keep them
here, in four padded blocks indexed by node-table row: the batch engine
gathers and scatters whole blocks, the event engine reads and writes one
row at a time (:meth:`PlacementStore.guests`, :meth:`PlacementStore.copy`
and their setters).

* ``guest_ids`` ``(rows, G)`` + ``guest_n`` — the point ids a node is
  primary holder of, **in insertion order** (``-1`` pads).  The order is
  protocol state: the medoid of two points is the first, a migration
  pool lists q's guests before p's, and recovery appends a copy in the
  copy's order;
* ``backup_ids`` ``(rows, K)`` — the node *ids* a node replicates to, one
  per slot (``-1`` = free slot; slot order carries no meaning);
* ``sent_ids`` ``(rows, K, G)`` + ``sent_n`` — the copy pushed through
  each backup slot, in the order its target holds it: a full push is
  the origin's guest row; the event engine applies an incremental push
  in place (the old copy minus the removed ids, then the added ones),
  where the batch engine copies the guest row over (semantics v2).
  ``sent_n == -1`` means nothing was ever pushed (an *empty* copy,
  ``sent_n == 0``, is a real push: it was metered and it is a ghost
  entry).  This block is ``backup_sent`` read by origin and ``ghosts``
  read by target: ``h.ghosts[o]`` is ``sent_ids[o, s]`` for the slot with
  ``backup_ids[o, s] == h`` — one store, no second copy to keep in step.

``owner`` ``(rows,)`` is the node id each row's placement belongs to, so
a row the table has handed to a later node is told from its former
owner without a hook on reclaim.

Point ids are stored as int32 and node ids / counts as the table stores
them; rows follow the node table — its capacity and its renumbering
(``arrays.follow``) — and the width ``G`` grows by the rule the table's
rows do (``arrays._grown``).  Every block is
registered on the memory ledger as family ``protocol_placement``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import mem as obs_mem
from .arrays import _grown, follow, resized

_MIN_WIDTH = 8


class PlacementStore:
    """Guests, backups and pushed copies of every node, by table row."""

    #: The row blocks and the value of a fresh row in each.
    _ROWS = {
        "guest_ids": -1,
        "guest_n": 0,
        "backup_ids": -1,
        "sent_ids": -1,
        "sent_n": -1,
        "owner": -1,
    }

    def __init__(self, replication: int) -> None:
        self.replication = K = int(replication)
        self.width = G = _MIN_WIDTH
        self.guest_ids = np.full((0, G), -1, dtype=np.int32)
        self.guest_n = np.zeros(0, dtype=np.int32)
        self.backup_ids = np.full((0, K), -1, dtype=np.int64)
        self.sent_ids = np.full((0, K, G), -1, dtype=np.int32)
        self.sent_n = np.full((0, K), -1, dtype=np.int32)
        self.owner = np.full(0, -1, dtype=np.int64)

    # -- storage -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return (
            self.guest_ids.nbytes
            + self.guest_n.nbytes
            + self.backup_ids.nbytes
            + self.sent_ids.nbytes
            + self.sent_n.nbytes
            + self.owner.nbytes
        )

    def _booked(self, before: int) -> None:
        """Book the blocks' growth since they held ``before`` bytes."""
        if obs_mem.ENABLED and self.nbytes != before:
            obs_mem.add(
                "protocol_placement", "PlacementStore.blocks", self.nbytes - before
            )

    def __getstate__(self):
        """Pickle what is occupied, not what is allocated: the two wide
        blocks are mostly ``-1`` pads (a guest row holds ~3 ids in a
        width-16 block), so they travel as flat runs beside their
        counts.  Restored arrays are bit-identical, capacity included."""
        state = self.__dict__.copy()
        for name in ("guest_ids", "sent_ids"):
            block = state.pop(name)
            state[name + "_flat"] = block[block >= 0]
        state["rows"] = len(self.guest_n)
        return state

    def __setstate__(self, state) -> None:
        rows, width = state.pop("rows"), state["width"]
        guests = state.pop("guest_ids_flat")
        sent = state.pop("sent_ids_flat")
        self.__dict__.update(state)
        col = np.arange(width)
        self.guest_ids = np.full((rows, width), -1, dtype=guests.dtype)
        self.guest_ids[col < self.guest_n[:, None]] = guests
        self.sent_ids = np.full(
            (rows, self.replication, width), -1, dtype=sent.dtype
        )
        self.sent_ids[col < self.sent_n[:, :, None]] = sent

    def ensure_rows(self, table) -> Optional[np.ndarray]:
        """Follow the node table: every block sized to its capacity and
        numbered as its rows are (:func:`~repro.sim.arrays.follow`,
        whose remap it returns)."""
        before = self.nbytes if obs_mem.ENABLED else 0
        remap = follow(self, table, self._ROWS)
        self._booked(before)
        return remap

    def ensure_width(self, g: int) -> None:
        if g > self.width:
            before, rows = self.nbytes, len(self.guest_n)
            self.width = width = _grown(self.width, g)
            resized(self, "guest_ids", (rows, width), -1)
            resized(self, "sent_ids", (rows, self.replication, width), -1)
            self._booked(before)

    def reset_row(self, row: int, nid: int, pid: int = -1) -> None:
        """Hand ``row`` to node ``nid`` holding ``pid`` (or nothing)."""
        self.guest_ids[row] = -1
        self.backup_ids[row] = -1
        self.sent_ids[row] = -1
        self.sent_n[row] = -1
        self.owner[row] = nid
        if pid >= 0:
            self.guest_ids[row, 0] = pid
        self.guest_n[row] = pid >= 0

    # -- one row at a time ---------------------------------------------------

    def guests(self, row: int) -> List[int]:
        """Row ``row``'s guest ids, in order."""
        return self.guest_ids[row, : self.guest_n[row]].tolist()

    def set_guests(self, row: int, pids: Sequence[int]) -> None:
        n = len(pids)
        self.ensure_width(n)
        self.guest_ids[row, :n] = pids
        self.guest_ids[row, n:] = -1
        self.guest_n[row] = n

    def copy(self, row: int, slot: int) -> Optional[List[int]]:
        """The copy pushed through ``slot`` of ``row``, in its target's
        order, or ``None`` when nothing was pushed there."""
        n = self.sent_n[row, slot]
        return None if n < 0 else self.sent_ids[row, slot, :n].tolist()

    def set_copy(self, row: int, slot: int, pids: Sequence[int]) -> None:
        n = len(pids)
        self.ensure_width(n)
        self.sent_ids[row, slot, :n] = pids
        self.sent_ids[row, slot, n:] = -1
        self.sent_n[row, slot] = n

    def drop_copy(self, row: int, slot: int) -> None:
        self.sent_ids[row, slot] = -1
        self.sent_n[row, slot] = -1

    # -- reads -------------------------------------------------------------

    def holder_pairs(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(pids, rows)`` of every guest entry of ``rows``, flat: the
        inverse image ``guests⁻¹`` the homogeneity kernel scores."""
        block = self.guest_ids[rows]
        held = block >= 0
        return (
            block[held].astype(np.int64),
            np.repeat(rows, self.guest_n[rows]),
        )

    def copies(self, table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(origin rows, slots, target rows)`` of every pushed copy
        whose origin row is still its owner's — ``ghosts``, inverted.
        A target that has left the table reads as the sentinel row."""
        n = min(table.n_rows, len(self.guest_n))
        mine = self._owned(table, n)
        o_rows, slots = np.nonzero((self.sent_n[:n] >= 0) & mine[:, None])
        return o_rows, slots, table.rows_of(self.backup_ids[o_rows, slots])

    def _owned(self, table, n: int) -> np.ndarray:
        """Bool over the first ``n`` rows: still its owner's row."""
        return table._row_of.take(self.owner[:n]) == np.arange(n)

    def _copies_on(self, table, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(origin rows, slots)`` of the copies held on ``rows``."""
        o_rows, slots, targets = self.copies(table)
        keep = table.row_flags(rows, sentinel=False)[targets]
        return o_rows[keep], slots[keep]

    def stored_points(self, table, rows: np.ndarray) -> int:
        """Guests plus ghost copies stored on ``rows`` (Fig. 7a)."""
        ghosts = self.sent_n[self._copies_on(table, rows)]
        return int(self.guest_n[rows].sum()) + int(ghosts.sum())

    def held_mask(self, table, rows: np.ndarray, n_points: int) -> np.ndarray:
        """Bool over point ids (at least ``n_points`` of them): held on
        ``rows`` as guest or ghost."""
        blocks = (self.guest_ids[rows], self.sent_ids[self._copies_on(table, rows)])
        pids = np.concatenate([block[block >= 0] for block in blocks])
        held = np.zeros(max(n_points, int(pids.max(initial=-1)) + 1), dtype=bool)
        held[pids] = True
        return held

    # -- canonical form ----------------------------------------------------

    def canonical(self, table, blocks: Iterable[np.ndarray]) -> Iterator[List[tuple]]:
        """For each block of table rows in ``blocks``, the placement
        summary of each of its rows that
        :func:`repro.runtime.checkpoint.state_digest` feeds: ``(sorted
        guests, sorted (origin, sorted copy), sorted backups, sorted
        (backup, sorted copy))`` — a pure read, one block at a time; rows
        past the allocation read empty."""
        n = min(table.n_rows, len(self.guest_n))

        def runs(block: np.ndarray) -> List[list]:
            """Each row's non-pad entries, ascending."""
            pads = (block < 0).sum(axis=1).tolist()
            return [r[k:] for r, k in zip(np.sort(block, axis=1).tolist(), pads)]

        def spans(keys: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, List[int]]:
            """Where each of ``rows`` sits in the sorted ``keys``: the
            positions, flat, and how many each row has."""
            lo = np.searchsorted(keys, rows)
            cnt = np.searchsorted(keys, rows, side="right") - lo
            at = np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
            return at, cnt.tolist()

        # Each pushed copy once (it sits in a named slot), located once
        # for every block: what its origin row last sent (copies come in
        # origin-row order) and, while that row is still its owner's and
        # the target is in the table, a ghost on the target's row.
        o_rows, slots = np.nonzero(self.sent_n[:n] >= 0)
        named = self.backup_ids[o_rows, slots]
        targets = np.where(self._owned(table, n)[o_rows], table.rows_of(named), -1)
        by_target = np.argsort(targets, kind="stable")
        target_keys = targets[by_target]

        def copies(at: np.ndarray):
            return map(tuple, runs(self.sent_ids[o_rows[at], slots[at]]))

        for rows in blocks:
            held = rows[rows < n]
            sent, sent_n = spans(o_rows, held)
            ghost, ghost_n = spans(target_keys, held)
            ghost = by_target[ghost]
            sent_pairs = zip(named[sent].tolist(), copies(sent))
            ghost_pairs = zip(self.owner[o_rows[ghost]].tolist(), copies(ghost))
            summary = {
                row: (
                    guests,
                    sorted(islice(ghost_pairs, g)),
                    backups,
                    sorted(islice(sent_pairs, s)),
                )
                for row, guests, backups, s, g in zip(
                    held.tolist(),
                    runs(self.guest_ids[held]),
                    runs(self.backup_ids[held]),
                    sent_n,
                    ghost_n,
                )
            }
            yield [summary.get(row, ([], [], [], [])) for row in rows.tolist()]
