"""Optional numba-compiled variants of the bucketed batch kernels.

This module must import cleanly without numba installed: ``HAVE_NUMBA``
is the only symbol the backend registry inspects before deciding whether
a ``numba`` backend exists, and every kernel body below is plain Python
(``_jit`` degrades to the identity decorator) so the implementations
stay testable — and byte-identical — even where compilation is
unavailable.

The compiled kernels cover the hot trio from the profile: the fused
padded topology merge, the flat slot-priority merge, and the
torus-fold row-distance kernel.  Each wrapper validates its fast-path
preconditions in Python and falls back to the reference NumPy
implementation when they do not hold (non-integer distances, exotic
spaces), so the backend never weakens the bit-identical contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - the container default
    numba = None
    HAVE_NUMBA = False


def _jit(fn):
    """``numba.njit`` when available, identity otherwise.

    ``fastmath`` stays off: the bit-identical digest contract forbids
    reassociating float arithmetic.  ``cache=True`` persists the
    compilation across processes (sweeps spawn many workers).
    """
    if not HAVE_NUMBA:
        return fn
    return numba.njit(cache=True, fastmath=False)(fn)


@_jit
def _torus_rank_sq_rows(origins, blocks, periods):
    n_rows, width, dim = blocks.shape
    out = np.empty((n_rows, width))
    for r in range(n_rows):
        for c in range(width):
            acc = 0.0
            for d in range(dim):
                diff = blocks[r, c, d] - origins[r, d]
                if diff < 0.0:
                    diff = -diff
                alt = periods[d] - diff
                if alt < diff:
                    diff = alt
                acc += diff * diff
            out[r, c] = acc
    return out


@_jit
def _merge_core(ids_pad, key, valid, stride, cap, coords_pad, ages_pad, has_ages):
    """Per-row dedup (last copy wins) + integer-key rank + truncate.

    ``key`` is the caller's ``kernels.exact_rank_key`` — the same guard
    as the NumPy fast path, so the composite ``key * stride + id`` is a
    total order inside int64 and one non-stable sort per row suffices.
    """
    n_rows, width = ids_pad.shape
    dim = coords_pad.shape[2]
    out_ids = np.full((n_rows, cap), -1, np.int64)
    out_coords = np.zeros((n_rows, cap, dim))
    out_ages = np.zeros((n_rows, cap), np.int64)
    lastcol = np.full(stride, -1, np.int32)
    keys = np.empty(width, np.int64)
    cols = np.empty(width, np.int64)
    for r in range(n_rows):
        # Dedup: last valid column per id wins (freshest copy).
        for c in range(width):
            if valid[r, c]:
                lastcol[ids_pad[r, c]] = c
        cnt = 0
        for c in range(width):
            if valid[r, c] and lastcol[ids_pad[r, c]] == c:
                keys[cnt] = key[r, c] * stride + ids_pad[r, c]
                cols[cnt] = c
                cnt += 1
        order = np.argsort(keys[:cnt])
        k = min(cnt, cap)
        for j in range(k):
            c = cols[order[j]]
            out_ids[r, j] = ids_pad[r, c]
            for d in range(dim):
                out_coords[r, j, d] = coords_pad[r, c, d]
            if has_ages:
                out_ages[r, j] = ages_pad[r, c]
        # Reset only the touched cells; stride can be large.
        for c in range(width):
            if valid[r, c]:
                lastcol[ids_pad[r, c]] = -1
    return out_ids, out_coords, out_ages


@_jit
def _priority_core(recv, ids, sel_key, ages, stride, cap):
    """Flat slot-priority merge: min ``sel_key`` (the caller's
    ``kernels._priority_key`` of ``(prio, order_in)``) per
    ``(recv, id)`` with group-minimum age, first ``cap`` survivors per
    receiver in ``sel_key`` order — identical selection and ordering to
    the reference cascade of stable sorts."""
    n = len(recv)
    pair_key = recv.astype(np.int64) * stride + ids
    order = np.argsort(pair_key, kind="mergesort")
    # Within each (recv, id) run find the min sel_key entry + min age.
    keep = np.zeros(n, np.bool_)
    min_age = np.empty(n, np.int64)
    n_kept = 0
    i = 0
    while i < n:
        j = i
        best = order[i]
        age = ages[order[i]]
        while j + 1 < n and pair_key[order[j + 1]] == pair_key[order[i]]:
            j += 1
            if sel_key[order[j]] < sel_key[best]:
                best = order[j]
            if ages[order[j]] < age:
                age = ages[order[j]]
        keep[best] = True
        min_age[best] = age
        n_kept += 1
        i = j + 1
    kept = np.empty(n_kept, np.int64)
    p = 0
    for t in range(n):
        if keep[t]:
            kept[p] = t
            p += 1
    final_key = recv[kept].astype(np.int64) * (sel_key.max() + 1) + sel_key[kept]
    order2 = np.argsort(final_key, kind="mergesort")
    sel = np.empty(n_kept, np.int64)
    slot = np.empty(n_kept, np.int64)
    age_out = np.empty(n_kept, np.int64)
    m = 0
    run = 0
    prev = np.int64(-1)
    for t in range(n_kept):
        src = kept[order2[t]]
        if recv[src] != prev:
            run = 0
            prev = recv[src]
        if run < cap:
            sel[m] = src
            slot[m] = run
            age_out[m] = min_age[src]
            m += 1
        run += 1
    return sel[:m], slot[:m], age_out[:m]


def merge_rank_truncate_numba(
    space,
    pos: np.ndarray,
    ids_pad: np.ndarray,
    coords_pad: np.ndarray,
    valid: np.ndarray,
    cap: int,
    stride: int,
    ages_pad: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    from . import kernels

    key = kernels.exact_rank_key(row_rank_sq_numba(space, pos, coords_pad), stride)
    if key is None:
        return kernels.merge_rank_truncate_numpy(
            space, pos, ids_pad, coords_pad, valid, cap, stride, ages_pad
        )
    has_ages = ages_pad is not None
    if not has_ages:
        ages_pad = np.zeros((1, 1), dtype=np.int64)
    out_ids, out_coords, out_ages = _merge_core(
        np.ascontiguousarray(ids_pad),
        key,
        np.ascontiguousarray(valid),
        stride,
        cap,
        np.ascontiguousarray(coords_pad),
        np.ascontiguousarray(ages_pad),
        has_ages,
    )
    if has_ages:
        return out_ids, out_coords, out_ages
    return out_ids, out_coords


def dedup_priority_truncate_numba(
    recv: np.ndarray,
    ids: np.ndarray,
    prio: np.ndarray,
    order_in: np.ndarray,
    ages: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    from . import kernels

    if len(recv) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    stride = int(ids.max(initial=0)) + 1
    return _priority_core(
        np.ascontiguousarray(recv, dtype=np.int64),
        np.ascontiguousarray(ids, dtype=np.int64),
        kernels._priority_key(prio, order_in),
        np.ascontiguousarray(ages, dtype=np.int64),
        stride,
        cap,
    )


def row_rank_sq_numba(space, origins: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    periods = getattr(space, "_periods_arr", None)
    if periods is None:
        return space.rank_sq_rows(origins, blocks)
    out = _torus_rank_sq_rows(
        np.ascontiguousarray(origins, dtype=float),
        np.ascontiguousarray(blocks, dtype=float),
        np.ascontiguousarray(periods, dtype=float),
    )
    # The scalar fold cannot reproduce ``_row_dot``'s summation (NumPy's
    # vecdot may fuse multiply-adds, shifting the last ulp).  On exact
    # integer squared distances — every grid scenario — both are exact
    # and identical; anything else re-runs the reference kernel so the
    # backend stays bit-identical.
    if np.all(out == np.floor(out)):
        return out
    return space.rank_sq_rows(origins, blocks)


def build_backend():
    from .backend import KernelBackend

    return KernelBackend(
        "numba",
        merge_rank_truncate=merge_rank_truncate_numba,
        dedup_priority_truncate=dedup_priority_truncate_numba,
        row_rank_sq=row_rank_sq_numba,
    )
