"""Grouped flat-array kernels shared by the batch gossip layers.

The batch engine computes every exchange of a round from the
round-start snapshot, then applies all merges at once.  A merge round
is naturally *ragged* — each receiver gets its old view entries plus
the entries of however many messages reached it — so the layers group
everything by receiver row and use the kernels here to deduplicate per
``(receiver, id)`` pair, rank within each receiver group, and truncate
each group to the view capacity.

Receiver rows and descriptor ids are dense small non-negative ints, so
grouping is *counting/radix bucketing*, not comparison sorting: NumPy's
``kind="stable"`` argsort lowers to an O(n) LSD radix pass for 16-bit
integers, and :func:`radix_argsort` cascades two such passes for wider
keys.  Dedup and ranking then run per bucket on short padded segments
(one small ``axis=1`` sort over ~hundreds of columns) instead of one
global composite-key sort over every entry of the round.  The fused
:func:`merge_rank_truncate` goes further for the topology merge: the
receivers' views are *already* padded ``(rows, cap)`` matrices, so the
whole dedup → distance → rank → truncate chain runs in padded form —
no flattening, no ``np.unique``, and (wherever the squared distances
have an :func:`exact_rank_key`, which every dyadic-grid scenario
produces) a single non-stable integer ``argsort`` per merge.  Per-row
picks are read back through :func:`take_rows`, the layers' one row
gather.  Callers feed the padded kernels one
:func:`block_rows`-sized row block at a time, which keeps every
temporary inside the array core's one scratch budget
(:data:`repro.sim.arrays._SCRATCH_BYTES`, re-exported here).

Every kernel is a plain module-level function and *is* its
implementation — there is one code path.  The layers call them through
the module attribute (``kernels.merge_rank_truncate(...)``, never a
``from``-import), which is what lets ``bench/child.py`` time them by
replacing the module globals.  The ``*_reference`` functions keep the
original global-sort implementations as the oracles of the equivalence
suites and the ``perf_smoke.py kernel`` micro-benchmark gate.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...obs import mem as _mem
from ...obs.trace import timed
from ..arrays import _SCRATCH_BYTES, block_rows  # re-exported: the one scratch budget

#: Sort sentinel pushing invalid entries past every real key.
_SENTINEL = np.iinfo(np.int64).max

#: Integer rank keys must stay below 2**51: ``sqrt`` is injective on
#: distinct exactly-representable integers up to that bound, which is
#: what makes ranking by the integer key bit-identical to the reference
#: ranking by float distance (:func:`exact_rank_key`).
_MAX_EXACT_SQ = float(1 << 51)

#: The composite ``key * stride + id`` must stay inside int64.
_MAX_EXACT_KEY = float(1 << 62)


def take_rows(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row gather ``out[i, ...] = mat[i, cols[i, ...]]`` with ``mat``'s
    trailing axes kept — the one way a batch layer reads per-row picked
    columns.  One ``take`` on the row-flattened operand through a flat
    ``cols + i * width`` index: no index broadcasting (``mat[rix,
    cols]``) and no python-level shape checks (``np.take_along_axis``),
    which dominate at block shapes.  Columns must be non-negative."""
    n, width = mat.shape[:2]
    offset = np.arange(n, dtype=np.int64) * width
    flat = cols + offset.reshape((n,) + (1,) * (cols.ndim - 1))
    if _mem.ENABLED:
        _mem.scratch("kernel_pads", "take_rows.index", flat.nbytes)
    return mat.reshape((n * width,) + mat.shape[2:]).take(flat, axis=0)


def exact_rank_key(dsq: np.ndarray, stride: int) -> Optional[np.ndarray]:
    """Squared distances as an exact int64 rank key, or ``None`` when
    they have no such key.

    ``dsq`` is scaled by the largest power of four that keeps the key
    below ``2**51`` and the composite ``key * stride + id`` inside
    int64, and qualifies when every scaled value is an integer — any
    dyadic lattice (integer, half-step, quarter-step grids and their
    mixes), not only the integer one.  ``sqrt`` of an exact
    ``n / 4**s`` is ``sqrt(n) / 2**s`` exactly, and ``sqrt`` is
    injective and monotone on integers below ``2**51``, so ranking by
    ``(key, id)`` is bit-identical to the reference ranking by
    ``(sqrt(dsq), id)``.  Distances below one unit get the head-room
    of one unit, which keeps every ``sqrt`` far from the subnormals.
    """
    if stride <= 0:
        return None
    dmax = max(float(dsq.max(initial=0.0)), 1.0)
    scale, nxt = 0.0, 1.0
    while (
        dmax * nxt < _MAX_EXACT_SQ
        and dmax * nxt * stride + stride < _MAX_EXACT_KEY
    ):
        scale, nxt = nxt, nxt * 4.0
    if not scale:
        return None
    scaled = dsq * scale
    # The truncating ``astype`` equals ``floor`` on this non-negative
    # range, so comparing the cast back doubles as the integrality test.
    key = scaled.astype(np.int64)
    return key if np.array_equal(key, scaled) else None


def cumcount(sorted_keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``sorted_keys``
    (the input must already be group-sorted)."""
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idx = np.arange(n, dtype=np.int64)
    start_idx = idx[starts]
    group = np.cumsum(starts) - 1
    return idx - start_idx[group]


def radix_argsort(a: np.ndarray) -> np.ndarray:
    """Stable ascending argsort for small non-negative integer keys.

    NumPy's ``kind="stable"`` is an O(n) LSD radix sort for 16-bit
    integers (and timsort for wider types), so keys below ``2**16`` sort
    in one counting pass and keys below ``2**32`` in two cascaded passes
    (low half, then high half) — several times faster than a comparison
    sort on the shuffled composite keys the merge kernels group by.
    """
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(a.max())
    if hi < (1 << 16):
        return np.argsort(a.astype(np.uint16), kind="stable")
    if hi < (1 << 32):
        order = np.argsort((a & 0xFFFF).astype(np.uint16), kind="stable")
        high = (a >> 16).astype(np.uint16)
        return order[np.argsort(high[order], kind="stable")]
    return np.argsort(a, kind="stable")


# -- dedup_rank_truncate (reference only) --------------------------------


def _empty_rank_result(ages):
    empty = np.zeros(0, dtype=np.int64)
    return (empty, empty) if ages is None else (empty, empty, empty)


def dedup_rank_truncate_reference(
    recv: np.ndarray,
    ids: np.ndarray,
    dist_of,
    cap: int,
    ages: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """The original global-sort implementation (composite-key stable
    argsort + lexsort), kept as the equivalence/benchmark reference."""
    if len(recv) == 0:
        return _empty_rank_result(ages)
    stride = int(ids.max(initial=0)) + 1
    key = recv.astype(np.int64) * stride + ids
    order = np.argsort(key, kind="stable")
    k_s = key[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = k_s[1:] != k_s[:-1]
    kept = order[last]  # sorted by (recv, id)
    dist = dist_of(kept)
    # lexsort is stable: equal (recv, dist) pairs keep their (recv, id)
    # order, which *is* the id tie-break.
    order2 = np.lexsort((dist, recv[kept]))
    slot = cumcount(recv[kept][order2])
    fit = slot < cap
    sel = kept[order2][fit]
    slot = slot[fit]
    if ages is None:
        return sel, slot
    return sel, slot, ages[sel]


# -- dedup_priority_truncate ---------------------------------------------


def _priority_key(prio: np.ndarray, order_in: np.ndarray) -> np.ndarray:
    """``(prio, order_in)`` as one sortable int64.  The stride comes
    from ``order_in`` itself, never from the batch length: callers feed
    the kernel receiver *blocks*, and a receiver must rank the same in
    any batch it is part of."""
    return prio.astype(np.int64) * (int(order_in.max()) + 1) + order_in


def dedup_priority_truncate_reference(
    recv: np.ndarray,
    ids: np.ndarray,
    prio: np.ndarray,
    order_in: np.ndarray,
    ages: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original three-stable-argsort implementation, kept as the
    equivalence/benchmark reference."""
    empty = np.zeros(0, dtype=np.int64)
    if len(recv) == 0:
        return empty, empty, empty
    n = len(recv)
    sel_key = _priority_key(prio, order_in)
    pre = np.argsort(sel_key, kind="stable")
    stride = int(ids.max(initial=0)) + 1
    pair_key = recv[pre].astype(np.int64) * stride + ids[pre]
    order = np.argsort(pair_key, kind="stable")
    k_s = pair_key[order]
    first = np.ones(n, dtype=bool)
    first[1:] = k_s[1:] != k_s[:-1]
    starts = np.flatnonzero(first)
    min_age = np.minimum.reduceat(ages[pre][order], starts)
    kept = pre[order[first]]
    final_key = recv[kept].astype(np.int64) * (int(sel_key.max()) + 1) + sel_key[kept]
    order2 = np.argsort(final_key, kind="stable")
    slot = cumcount(recv[kept][order2])
    fit = slot < cap
    sel = kept[order2][fit]
    return sel, slot[fit], min_age[order2][fit]


@timed("kernel.dedup_priority_truncate")
def dedup_priority_truncate(
    recv: np.ndarray,
    ids: np.ndarray,
    prio: np.ndarray,
    order_in: np.ndarray,
    ages: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-priority merge (the batch Cyclon rule): dedup per
    ``(recv, id)`` keeping the *lowest* ``(prio, order_in)`` entry with
    the group-minimum age, then keep the first ``cap`` entries per
    receiver in ``(prio, order_in)`` order.

    Priority classes encode "existing non-sent entries keep their
    slots, incoming entries fill the rest, sent-out entries are
    replaced only when space runs out".

    Returns ``(sel, slot, age)``: flat input indices of the survivors,
    their slot within the receiver's view, and their merged age.

    Bucketed: one three-key radix grouping pass ``(recv, id, sel_key)``
    replaces the reference's pre-sort + composite pair sort; the final
    per-receiver ordering is two more radix passes on the (much
    smaller) survivor set.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(recv) == 0:
        return empty, empty, empty
    n = len(recv)
    sel_key = _priority_key(prio, order_in)
    # LSD radix cascade: least-significant key first.
    order = radix_argsort(sel_key)
    order = order[radix_argsort(ids[order])]
    order = order[radix_argsort(recv[order])]
    r_s = recv[order]
    i_s = ids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (r_s[1:] != r_s[:-1]) | (i_s[1:] != i_s[:-1])
    starts = np.flatnonzero(first)
    min_age = np.minimum.reduceat(ages[order], starts)
    kept = order[first]  # min (prio, order_in) per (recv, id)
    k_sel = sel_key[kept]
    k_recv = recv[kept]
    order2 = radix_argsort(k_sel)
    order2 = order2[radix_argsort(k_recv[order2])]
    slot = cumcount(k_recv[order2])
    fit = slot < cap
    sel = kept[order2][fit]
    return sel, slot[fit], min_age[order2][fit]


# -- fused padded merge ---------------------------------------------------


def keep_last_per_row(
    ids_pad: np.ndarray, valid: np.ndarray, stride: int
) -> np.ndarray:
    """Keep-mask over a padded ``(rows, width)`` id matrix: for each
    duplicated id within a row, only the *last* (rightmost) valid copy
    survives.  ``stride`` bounds every valid id from above.

    A dense last-writer scatter — one int32 cell per possible
    ``(row, id)`` pair, written in column order so the final write per
    pair is the rightmost copy (NumPy fancy assignment stores the last
    value for repeated indices).  Callers bound ``rows`` with
    :func:`block_rows` so the table stays inside the scratch budget.
    """
    n_rows, width = ids_pad.shape
    keep = np.zeros((n_rows, width), dtype=bool)
    if stride <= 0 or not valid.any():
        return keep
    # ``empty``, not ``full``: every cell read below was written by the
    # scatter (reads index ``lin_v`` only), so the O(rows*stride)
    # initialisation pass would be pure waste.
    lastcol = np.empty(n_rows * stride, dtype=np.int32)
    if _mem.ENABLED:
        _mem.scratch("kernel_pads", "keep_last_per_row.dense", lastcol.nbytes)
    cols = np.broadcast_to(np.arange(width, dtype=np.int32), (n_rows, width))
    lin = np.arange(n_rows, dtype=np.int64)[:, None] * stride + ids_pad
    lin_v = lin[valid]
    col_v = cols[valid]
    lastcol[lin_v] = col_v
    keep[valid] = lastcol[lin_v] == col_v
    return keep


@timed("kernel.merge_rank_truncate")
def merge_rank_truncate(
    space,
    pos: np.ndarray,
    ids_pad: np.ndarray,
    coords_pad: np.ndarray,
    valid: np.ndarray,
    cap: int,
    stride: int,
    ages_pad: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The topology merge in fused padded form — the bucketed successor
    of the flat pipeline :func:`dedup_rank_truncate_reference` keeps.

    ``ids_pad``/``coords_pad`` are ``(rows, width)`` padded blocks whose
    columns hold each receiver's existing view entries first and the
    incoming message entries after, in arrival order — each entry's id
    and the coordinate it ranks at; ``valid`` masks real entries;
    ``pos`` is each receiver's own position; ``stride`` is any
    exclusive upper bound on the ids (callers compute the network-wide
    one once per merge, not per block).  Per row the kernel keeps the
    last copy of every duplicated id, ranks the survivors by
    canonical-coordinate distance to ``pos`` with id tie-break,
    truncates to ``cap`` and returns ``(ids, ages)``: the survivors' ids
    as a ``(rows, cap)`` block of ``ids_pad``'s dtype padded with
    ``-1``, and their merged ages (incoming entries aging from 0) when
    ``ages_pad`` is given, else ``None``.

    Output contract: the entries the reference flat pipeline (dedup
    keep-last, rank by ``space.distance_rows``, id tie-break, truncate)
    keeps, in its order, on canonical coordinates — property-tested in
    ``tests/test_prop_kernels.py``.
    """
    n_rows, width = ids_pad.shape
    keep = keep_last_per_row(ids_pad, valid, stride)
    dsq = space.rank_sq_rows(pos, coords_pad)
    cnt = keep.sum(axis=1)
    k = min(cap, width)
    key = exact_rank_key(dsq, stride)
    if key is not None:
        # Exact rank key (every dyadic grid scenario): the composite
        # (key, id) int64 is a total order, so one *non-stable* sort
        # ranks like the reference.  Invalid slots (id ``-1``) are
        # overwritten by the sentinel, so the raw ids can feed it.
        key *= stride
        key += ids_pad
        order = np.argsort(np.where(keep, key, _SENTINEL), axis=1)
    else:
        # Float path: rank by sqrt like the reference, id tie-break via
        # a cascade of two stable sorts (by id, then by distance).
        idkey = np.where(keep, ids_pad, _SENTINEL)
        o1 = np.argsort(idkey, axis=1, kind="stable")
        d = np.sqrt(np.where(keep, dsq, np.inf))
        o2 = np.argsort(take_rows(d, o1), axis=1, kind="stable")
        order = take_rows(o1, o2)
    top = order[:, :k]
    if _mem.ENABLED:
        # An id (+ an int64 age) per output slot.
        slot_bytes = ids_pad.itemsize + (8 if ages_pad is not None else 0)
        _mem.scratch("kernel_pads", "merge_rank_truncate.out", n_rows * cap * slot_bytes)
    if n_rows and int(cnt.min()) >= cap:
        # Every row fills ``cap`` (the common case): the gathers *are*
        # the output blocks, there is nothing to mask.
        ages = None if ages_pad is None else take_rows(ages_pad, top)
        return take_rows(ids_pad, top), ages
    fit = np.arange(k) < np.minimum(cnt, cap)[:, None]
    out_ids = np.full((n_rows, cap), -1, dtype=ids_pad.dtype)
    out_ids[:, :k] = np.where(fit, take_rows(ids_pad, top), -1)
    if ages_pad is None:
        return out_ids, None
    out_ages = np.zeros((n_rows, cap), dtype=np.int64)
    out_ages[:, :k] = np.where(fit, take_rows(ages_pad, top), 0)
    return out_ids, out_ages


# -- row distances --------------------------------------------------------


def row_rank_sq(space, origins: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per-row-origin squared rank distances (``space.rank_sq_rows``):
    the one name the layers' row-distance passes go through, so
    ``bench/`` counts and times them like every other kernel."""
    return space.rank_sq_rows(origins, blocks)


@timed("kernel.topk_smallest")
def topk_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest finite values per row of a
    2-D array (unordered); rows pad with whatever argpartition leaves,
    so callers must re-check finiteness after the gather.  Already
    bucketed: ``argpartition`` is an O(width) per-row selection, not a
    sort."""
    m = values.shape[1]
    k = min(k, m)
    if k <= 0 or m == 0:
        return np.zeros((values.shape[0], 0), dtype=np.int64)
    if k >= m:
        return np.broadcast_to(np.arange(m), values.shape).copy()
    return np.argpartition(values, k - 1, axis=1)[:, :k]
