"""Struct-of-arrays storage for the simulation core.

Two containers back the array-based hot path introduced with the
vectorised space kernels (:meth:`repro.spaces.base.Space.distance_block`
and friends):

* :class:`NodeTable` — the network's node state as contiguous NumPy
  columns (coordinates, alive flags, death rounds) plus an id → row
  index.  :class:`~repro.sim.network.SimNode` objects are thin views
  over one row; batch consumers (ranking, metrics) read whole columns
  without touching Python objects.  Rows of dead nodes nothing reads
  any more are *reclaimed* before the table grows
  (:meth:`NodeTable.reclaim`), so the rows in use are bounded by the
  live population.

* :class:`ViewStore` — one topology layer's views, on both engines:
  int32 peer ids ``(rows, width)`` indexed by table row, ``-1`` empty,
  with Vicinity's ages and T-Man's per-row rank memo beside them.  A
  view holds no coordinates: every ranking reads each peer's current
  position from the table when it ranks (:meth:`NodeTable.gather`).

Both containers deep-copy and pickle cleanly, which the checkpoint
subsystem relies on.

The node table is the one place rows are numbered: a reclaim renumbers
the kept rows in order, and every row-indexed array elsewhere follows
the table — its capacity and its renumberings — through one function,
:func:`follow`.

The module also owns the array core's one scratch budget
(:data:`_SCRATCH_BYTES`, :func:`block_rows`): every padded kernel — the
batch peer-sampling and topology stages, the metric observers — works a
row block at a time, sized so that everything the block holds at once
fits in about one L2 cache, so no temporary scales with the network
and a round's footprint is its persistent state plus one block.  The
persistent state grows through one function, :func:`resized`, in place
where nothing else references the array.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..errors import SimulationError
from ..obs import mem as _mem
from ..types import Coord, NodeId

#: Coordinate-layout marker for spaces whose coordinates are not
#: fixed-size float vectors (e.g. the Jaccard set space).
OBJECT_DIM = "object"

_GROW = 2.0
_MIN_CAP = 8

#: Scratch budget of one row block, per temporary: :func:`block_rows`
#: sizes a block so that its largest temporary — the int32 last-writer
#: table of the merge kernels, a padded coordinate block, a lost-point
#: distance block, a bootstrap key block — stays within it.  What a
#: block holds is this times its stage's *co-live factor*: everything
#: the block has allocated at its high-water point, in budgets
#: (tracemalloc around single blocks of the 80×40 and 160×80 batch
#: cells; each stage's ledger site reports the same bytes):
#:
#: ==========================================  =======
#: stage                                       co-live
#: ==========================================  =======
#: T-Man groom (ids, their rows, two masks)    2.1
#: T-Man partner / neighbour ranking           3.0
#: T-Man exchange pools (pools + rank)         3.0
#: T-Man merge refusal (ids' rows, masks)      1.1
#: T-Man merge pad + fused kernel              4.3
#: Cyclon groom + partner / payload / reply    1.2 / 1.1 / 1.1
#: Cyclon merge block (sized at 15 columns)    1.5
#: bootstrap oracle key block                  1.0
#: lost-point nearest node (torus kernel)      0.9
#: proximity distance pad (rank + liveness)    0.9
#: ==========================================  =======
#:
#: so at 512 KiB no block holds more than ≈ 2.2 MiB, about one L2 (2 MiB
#: per core on the Xeon these were measured on).  The observers size
#: their blocks by their whole co-live set, so each holds one budget.  Where one row alone
#: nears the budget the row floor (:data:`_MIN_BLOCK_ROWS`) wins and a
#: block is that many rows: the merge block at 12,800 nodes holds a
#: 3.3 MB last-writer table (7.8 budgets).  The 40 rounds of
#: ``repair-batch-80x40`` peak at 69.4 / 66.1 / 65.8 MB at a budget of
#: 1 MiB / 512 KiB / 256 KiB: below 512 KiB a block's Python overhead
#: grows faster than the footprint falls.
_SCRATCH_BYTES = 512 << 10

#: The largest co-live factor of the table above, rounded up: no block
#: may hold more than this many :data:`_SCRATCH_BYTES` at once beyond a
#: row floor's last-writer table (the bound the memory-ledger and
#: footprint tests hold every stage to).
_COLIVE_MAX = 5

#: Floor on block rows, bounding the per-block Python overhead where
#: one row alone nears the budget (paper scale).
_MIN_BLOCK_ROWS = 64

#: What :func:`reserve_scratch` allocates and frees, which sets glibc's
#: ``mmap`` threshold to it and the trim threshold to twice it.  Its job
#: is the round's stacked messages, the largest temporaries a round
#: makes: at 3,200 nodes T-Man's messages were 2 MB when a descriptor
#: was an id and a coordinate, so 4 MiB serves them, one block and the
#: rest of a round from retained heap (40 rounds of
#: ``repair-batch-80x40``: 3.3k minor faults, against 35k
#: at 2 MiB and 37k unreserved).  It is also the size above which an
#: array is ``mmap``ped — the persistent view arrays from 3,200 nodes up
#: are, so :func:`resized` grows them by ``mremap``; at 6-16 MiB T-Man's
#: then 5 MB view block sat on the heap, its growth copied, and the
#: peak read 68.1 MB against 66.4 MB (faults 3.7k).  Networks whose
#: messages outgrow it raise the threshold themselves: glibc lifts it
#: to every freed ``mmap`` chunk's size, up to 32 MiB.
_SCRATCH_ARENA_BYTES = 4 << 20


def block_rows(
    id_stride: int, width: int, dim: int, min_rows: int = _MIN_BLOCK_ROWS
) -> int:
    """Rows per row block such that neither a ``rows * id_stride``
    int32 last-writer table nor a ``(rows, width, dim)`` float pad
    outgrows :data:`_SCRATCH_BYTES` — and so that the block, holding its
    stage's co-live factor of such temporaries, stays near one L2.
    ``min_rows`` is 1 where one row is itself network-sized work (the
    bootstrap oracle, the lost-point nearest-node scan), so a block's
    fixed cost needs no further rows to amortise it."""
    row_bytes = max(4 * id_stride, 8 * dim * width, 1)
    return max(min_rows, _SCRATCH_BYTES // row_bytes)


def reserve_scratch() -> None:
    """Allocate and free one :data:`_SCRATCH_ARENA_BYTES` block, once
    per batch simulation, so the round's messages and block temporaries
    are served from retained heap instead of fresh pages.

    The rule relied on is glibc malloc's dynamic ``mmap`` threshold:
    requests of 128 KiB and up are served by ``mmap`` — zero pages,
    faulted in on first touch, unmapped on ``free`` — until such a
    chunk is freed, which raises the threshold to that chunk's size (up
    to 32 MiB) and the trim threshold to twice it.  After this call every
    block temporary and message array below the arena comes from the
    main heap, whose top is returned to the OS only beyond twice the
    arena free, so each round reuses the pages the last one touched.
    Untouched ``np.empty`` memory costs no RSS; on allocators without
    the rule the call is a no-op in effect.  The threshold only ever
    rises within a process.
    """
    np.empty(_SCRATCH_ARENA_BYTES, dtype=np.uint8)


def _grown(capacity: int, needed: int) -> int:
    """The one growth rule of every row array under ``repro.sim``:
    geometric from ``capacity`` (amortised O(1) per join of unknown
    count).  A caller that knows how many nodes are coming allocates
    exactly instead (:meth:`NodeTable.reserve`)."""
    new = max(_MIN_CAP, capacity)
    while new < needed:
        new = int(new * _GROW)
    return new


def _compact(arr: np.ndarray, keep: np.ndarray, n: int, fill) -> None:
    """Move rows ``keep`` (ascending) of ``arr`` to its leading rows, in
    order and in place, and reset the rest of the first ``n`` rows to
    ``fill``.  ``keep[i] >= i``, so a block of destinations never
    overwrites a source a later block reads; each block's gather is the
    only temporary, held to :data:`_SCRATCH_BYTES`."""
    k = len(keep)
    step = max(1, _SCRATCH_BYTES // max(arr[:1].nbytes, 1))
    for a in range(0, k, step):
        b = min(a + step, k)
        arr[a:b] = arr[keep[a:b]]
    arr[k:n] = fill


def resized(owner, name: str, shape, fill) -> np.ndarray:
    """Grow the array ``owner.<name>`` to ``shape``, new cells ``fill``
    — the one way a row array is reallocated to a new capacity.

    The owner's attribute is detached first, so that when nothing else
    references the array a C-contiguous one growing along axis 0 is
    extended in place by ``ndarray.resize(refcheck=True)``: glibc
    ``realloc`` ``mremap``s a large block, so the old and the new
    capacity are never resident at once (a reinjection wave would
    otherwise hold two copies of every view array).  Whenever NumPy's
    reference check sees another holder — a view, a caller's local, a
    test's spy, an unpickled array borrowing its buffer — or the growth
    is not along rows, the array is copied into the leading corner of a
    fresh one instead, and the holder keeps reading the old rows.
    Either way the attribute is set and returned; the two paths give
    equal contents.
    """
    old = getattr(owner, name)
    setattr(owner, name, None)
    if old.shape[1:] == tuple(shape[1:]) and old.flags.c_contiguous:
        n = len(old)
        try:
            old.resize(shape, refcheck=True)
        except ValueError:
            pass
        else:
            old[n:] = fill
            setattr(owner, name, old)
            return old
    new = np.full(shape, fill, dtype=old.dtype)
    new[tuple(slice(0, n) for n in old.shape)] = old
    setattr(owner, name, new)
    return new


class NodeTable:
    """Contiguous struct-of-arrays node state.

    The coordinate layout is fixed by the first node added: a tuple/list
    coordinate of length ``d`` selects a float64 ``(n, d)`` column,
    anything else (frozensets, arbitrary hashables) selects object
    storage.  The canonical per-node coordinate object (the exact tuple
    or frozenset handed in) is kept alongside the arrays so ``pos``
    reads return the same objects scalar code always saw.

    The last slot of every column is a *sentinel* that is never
    allocated: ``_row_of[-1] == -1``, and row ``-1`` is dead with zero
    coordinates.  A ``-1`` view pad indexes the sentinel id slot and a
    reclaimed id stores ``-1``, so :meth:`rows_of` → :meth:`alive_at` /
    :meth:`coords_at` resolve a padded id block of any shape to "dead,
    zero" in plain ``take`` calls — no validity mask, no compress and
    scatter.  Growth appends fresh slots, which *are* sentinel values.

    Rows are renumbered in one place, :meth:`reclaim`, which keeps every
    kept row's relative order; :attr:`_layout` counts the reclaims and
    :attr:`_remap` holds the last one's for the row arrays that
    :func:`follow` the table.
    """

    #: The row columns and the value of a fresh (sentinel) row in each.
    _ROWS = (("_alive", False), ("_death", -1), ("_nid_of", -1), ("_coords", 0.0))

    #: Reclaims so far, and the last one's remap (old row → new row,
    #: ``-1`` reclaimed); a new table starts with none.
    _layout = 0
    _remap: Optional[np.ndarray] = None

    def __init__(self) -> None:
        self._dim: Optional[Union[int, str]] = None
        self._coords: Optional[np.ndarray] = None  # (cap, dim) in vector mode
        self._alive = np.zeros(_MIN_CAP, dtype=bool)
        self._death = np.full(_MIN_CAP, -1, dtype=np.int64)
        self._row_of = np.full(_MIN_CAP, -1, dtype=np.int64)  # nid -> row
        self._nid_of = np.full(_MIN_CAP, -1, dtype=np.int64)  # row -> nid
        self._pos_cache: List = []  # row -> canonical coordinate object
        self._n_rows = 0
        #: Changes of what :meth:`gather` reads so far: a coordinate
        #: write that hands in a new position object, a reclaim.  A
        #: ranking taken while it stood still is the ranking now (the
        #: event engine's T-Man views keep it as their memo).
        self.moves = 0

    # -- layout ----------------------------------------------------------

    @property
    def dim(self) -> Optional[Union[int, str]]:
        return self._dim

    @property
    def is_vector(self) -> bool:
        return isinstance(self._dim, int)

    @property
    def n_rows(self) -> int:
        """Number of allocated rows (including dead nodes' rows)."""
        return self._n_rows

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing arrays (the memory-profiler's
        accounting hook; capacity, not just occupied rows)."""
        total = (
            self._alive.nbytes
            + self._death.nbytes
            + self._row_of.nbytes
            + self._nid_of.nbytes
        )
        if self._coords is not None:
            total += self._coords.nbytes
        return total

    def _ensure_layout(self, coord: Coord) -> None:
        if self._dim is not None:
            return
        if isinstance(coord, (tuple, list)) and all(
            isinstance(c, (int, float, np.floating, np.integer)) for c in coord
        ):
            self._dim = len(coord)
            self._coords = np.zeros((len(self._alive), self._dim), dtype=float)
            if _mem.ENABLED:
                _mem.add("node_table", "NodeTable.rows", self._coords.nbytes)
        else:
            self._dim = OBJECT_DIM
            self._coords = None

    @property
    def capacity(self) -> int:
        """Rows the table can hold before it reallocates (the sentinel
        slot not counted) — what every row-indexed layer array is sized
        to."""
        return len(self._alive) - 1

    @property
    def spare_rows(self) -> int:
        """Nodes the table can add before it grows: its unused
        capacity."""
        return self.capacity - self._n_rows

    def _resize(self, row_slots: int, id_slots: int) -> None:
        """Reallocate the row columns and the id index to the given
        slot counts (each including its sentinel); never shrinks."""
        if row_slots > len(self._alive):
            before = self.nbytes if _mem.ENABLED else 0
            for name, fill in self._ROWS:
                # Only the shape is kept: a held reference would make
                # ``resized`` copy instead of growing in place.
                shape = getattr(getattr(self, name), "shape", None)
                if shape is not None:
                    resized(self, name, (row_slots,) + shape[1:], fill)
            if _mem.ENABLED:
                _mem.add("node_table", "NodeTable.rows", self.nbytes - before)
        grow = id_slots - len(self._row_of)
        if grow > 0:
            resized(self, "_row_of", (id_slots,), -1)
            if _mem.ENABLED:
                _mem.add("node_table", "NodeTable.row_of", grow * 8)

    def _grow_rows(self, needed: int) -> None:
        cap = len(self._alive)
        if needed >= cap:  # the last slot stays the sentinel
            self._resize(_grown(cap, needed + 1), 0)

    def _grow_ids(self, nid: NodeId) -> None:
        cap = len(self._row_of)
        if nid + 1 >= cap:  # the last slot stays the sentinel
            self._resize(0, _grown(cap, nid + 2))

    def reserve(self, extra: int, next_id: NodeId) -> None:
        """Make room, in one exact allocation, for ``extra`` more nodes
        with ids from ``next_id`` up — for the callers that know how
        many are coming (the initial population, a reinjection wave).
        A call that does not fit costs one reallocation, so it is made
        per membership event, not per node; joins of unknown count need
        no call — :meth:`add` grows geometrically (:func:`_grown`)."""
        self._resize(self._n_rows + extra + 1, next_id + extra + 1)

    # -- membership ------------------------------------------------------

    def add(self, nid: NodeId, coord: Coord) -> int:
        """Register a node; returns its row, the first unused one."""
        self._ensure_layout(coord)
        self._grow_ids(nid)
        if self._row_of[nid] != -1:
            raise SimulationError(f"node id {nid} already registered")
        row = self._n_rows
        self._grow_rows(row + 1)
        self._n_rows += 1
        self._pos_cache.append(None)
        self._row_of[nid] = row
        self._nid_of[row] = nid
        self._alive[row] = True
        self._death[row] = -1
        self.set_coord(row, coord)
        return row

    def set_coord(self, row: int, coord: Coord) -> None:
        """Write a node's coordinate (array column + canonical object).
        Handing back the position object the row holds is not a move."""
        if coord is self._pos_cache[row]:
            return
        self.moves += 1
        if self._coords is not None:
            self._coords[row] = coord
            if not isinstance(coord, tuple):
                coord = tuple(coord)
        self._pos_cache[row] = coord

    def set_coords(self, rows: np.ndarray, coords: np.ndarray) -> None:
        """:meth:`set_coord` for many rows at once (vector mode)."""
        self.moves += 1
        self._coords[rows] = coords
        cache = self._pos_cache
        for row, coord in zip(rows.tolist(), coords.tolist()):
            cache[row] = tuple(coord)

    def pos(self, row: int) -> Coord:
        """The canonical coordinate object of a row."""
        return self._pos_cache[row]

    def mark_dead(self, row: int, rnd: int) -> None:
        self._alive[row] = False
        self._death[row] = rnd

    def reclaim(self, rows: np.ndarray) -> np.ndarray:
        """Take ``rows`` — rows of dead nodes that nothing reads any
        more — out of the table, and return the remap, old row → new row
        (``-1`` for a reclaimed one).

        Every other row moves down in place, keeping its relative order:
        alive rows and dead rows still readable alike, so any order
        taken over rows (the alive pack, a bucket by row) is the same
        after it.  The ids of ``rows`` resolve to the sentinel row from
        now on — dead, zero, no row — as ``-1`` pads do.  The
        canonical-coordinate list is compacted in place (nodes share
        it).  The table's capacity does not change; row arrays elsewhere
        follow through :func:`follow`.
        """
        n = self._n_rows
        rows = np.asarray(rows, dtype=np.int64)
        if self._alive[rows].any() or (self._nid_of[rows] < 0).any():
            raise SimulationError("only dead nodes' rows can be reclaimed")
        drop = np.zeros(n, dtype=bool)
        drop[rows] = True
        keep = np.flatnonzero(~drop)
        k = len(keep)
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep] = np.arange(k)
        self._row_of[self._nid_of[rows]] = -1
        for name, fill in self._ROWS:
            col = getattr(self, name)
            if col is not None:
                _compact(col, keep, n, fill)
        held = np.flatnonzero(self._nid_of[:k] >= 0)
        self._row_of[self._nid_of[held]] = held
        cache = self._pos_cache
        cache[:k] = [cache[r] for r in keep.tolist()]
        del cache[k:]
        self._n_rows = k
        self._layout += 1
        self.moves += 1
        self._remap = remap
        return remap

    # -- batch reads -----------------------------------------------------

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row indices for a node-id array of any shape.  ``-1`` pads
        and reclaimed ids resolve to row ``-1``, the sentinel, which
        :meth:`alive_at` and :meth:`coords_at` read as dead and zero."""
        return self._row_of.take(ids)

    def alive_at(self, rows: np.ndarray) -> np.ndarray:
        """Liveness of the given rows (of :meth:`rows_of`)."""
        return self._alive.take(rows)

    def row_flags(self, rows: np.ndarray, sentinel: bool) -> np.ndarray:
        """A bool column over every row slot, set at ``rows``, whose
        sentinel row reads ``sentinel`` — a per-row predicate that
        callers resolve through :meth:`rows_of` like :meth:`alive_at`."""
        flags = np.zeros(len(self._alive), dtype=bool)
        flags[rows] = True
        flags[-1] = sentinel
        return flags

    def id_flags(self, ids: np.ndarray) -> np.ndarray:
        """A bool column over every id slot, set at ``ids`` — a set of
        registered (or reclaimed) ids that other id arrays test
        membership in with one ``take``."""
        flags = np.zeros(len(self._row_of), dtype=bool)
        flags[ids] = True
        return flags

    def coords_at(self, rows: np.ndarray) -> np.ndarray:
        """Current coordinates of the given rows (of :meth:`rows_of`),
        ``rows.shape + (dim,)``; vector mode only."""
        return self._coords.take(rows, axis=0)

    def row(self, nid: NodeId) -> int:
        return int(self._row_of[nid])

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given node ids are alive.

        Ids of reclaimed nodes and ``-1`` pads map to the sentinel row
        and report dead — a view that still holds a reclaimed id must
        treat it like any other failed peer, not alias another node's
        row."""
        return self._alive.take(self._row_of.take(ids))

    def alive_rows(self) -> np.ndarray:
        """Bool column over allocated rows (do not mutate)."""
        return self._alive[: self._n_rows]

    def coords_rows(self) -> Optional[np.ndarray]:
        """The raw coordinate block over allocated rows (vector mode
        only; do not mutate)."""
        if self._coords is None:
            return None
        return self._coords[: self._n_rows]

    def gather(self, ids: np.ndarray):
        """Current true coordinates of the given node ids: an
        ``ids.shape + (dim,)`` array in vector mode (zeros for ``-1``
        pads and reclaimed ids), a list of coordinate objects otherwise
        (``None`` for them: the sentinel row has no coordinate object)."""
        rows = self._row_of.take(ids)
        if self._coords is not None:
            return self._coords.take(rows, axis=0)
        cache = self._pos_cache
        return [cache[r] if r >= 0 else None for r in rows.tolist()]


def follow(owner, table: NodeTable, fills) -> Optional[np.ndarray]:
    """Bring ``owner``'s row arrays in line with ``table`` — the one way
    a row-indexed array outside the table follows it.

    ``fills`` maps each array attribute (rows on axis 0; a ``None``
    attribute is skipped) to the value of a fresh row.  The arrays grow
    to :attr:`NodeTable.capacity` (:func:`resized`); if the table has
    reclaimed rows since the owner last followed it
    (:meth:`NodeTable.reclaim`), their rows are renumbered the same way,
    in place.  Returns that reclaim's remap (old row → new row, ``-1``
    reclaimed) for the row numbers the owner keeps outside its arrays,
    else ``None``.  An owner is called between two reclaims — a join
    initialises every layer — so one behind is as far as it can be.
    """
    cap = table.capacity
    have = len(getattr(owner, next(iter(fills))))
    if have >= cap and getattr(owner, "_table_layout", 0) == table._layout:
        return None  # in line already: what nearly every call finds
    named = [(name, fill) for name, fill in fills.items() if getattr(owner, name) is not None]
    for name, fill in named:
        shape = getattr(owner, name).shape  # no reference held: in place
        if shape[0] < cap:
            resized(owner, name, (cap,) + shape[1:], fill)
    behind = table._layout - getattr(owner, "_table_layout", 0)
    owner._table_layout = table._layout
    if not (behind and have):
        return None
    if behind > 1:
        raise SimulationError(
            f"{type(owner).__name__} missed {behind - 1} renumbering(s) of the node table"
        )
    remap = table._remap
    keep = np.flatnonzero(remap >= 0)
    for name, fill in named:
        _compact(getattr(owner, name), keep, len(remap), fill)
    return remap




class ViewStore:
    """The topology views of one layer, on either engine: int32 peer ids
    ``(rows, width)`` indexed by node-table row, ``-1`` an empty slot
    (:attr:`_ids`), with optional row-aligned columns beside them —
    Vicinity's entry ages (:attr:`_ages`) and T-Man's rank memo
    (:attr:`_ranked_at`, one per row: the :attr:`NodeTable.moves` count
    the row's order was ranked at, ``-1`` not ranked).

    A view holds no coordinates: every ranking reads each peer's current
    position from the table when it ranks.  The arrays follow the table
    through :func:`follow`, so a reclaimed row reads empty.  Their bytes
    are booked in the memory ledger under ``topology_views``, site
    ``<layer>.views``, so the family's current is what the views hold.
    Layers inherit the store and call :meth:`_init_views` once.
    """

    #: The key the state digest files these views under (both topology
    #: layers share the slot name T-Man's views always had).
    canonical_attr = "tman_view"
    _ages: Optional[np.ndarray] = None
    _ranked_at: Optional[np.ndarray] = None
    _FILLS = {"_ids": -1, "_ages": 0, "_ranked_at": -1}

    def _init_views(self, width: int, ages: bool = False, ranked: bool = False) -> None:
        self._ids = np.full((0, width), -1, dtype=np.int32)
        if ages:
            self._ages = np.zeros((0, width), dtype=np.int64)
        if ranked:
            self._ranked_at = np.full(0, -1, dtype=np.int64)
        if _mem.ENABLED:
            _mem.add("topology_views", f"{self.name}.views", self.nbytes)

    @property
    def nbytes(self) -> int:
        """Bytes of the view state: id slots (+ ages, + rank memo)."""
        return sum(
            getattr(self, name).nbytes
            for name in self._FILLS
            if getattr(self, name) is not None
        )

    def _ensure_rows(self, table: NodeTable) -> None:
        """Follow the node table (its capacity and row numbering: the
        table owns both; a layer only follows them)."""
        before = self.nbytes if _mem.ENABLED else 0
        follow(self, table, self._FILLS)
        if _mem.ENABLED:
            _mem.add("topology_views", f"{self.name}.views", self.nbytes - before)

    def ids_rows(self, rows) -> np.ndarray:
        """The view ids of table ``rows`` (an index array or a slice),
        ``-1`` padded — how readers outside the layer see its views."""
        return self._ids[rows]

    @property
    def view_shape(self):
        """``(allocated rows, view slots)`` of :meth:`ids_rows`."""
        return self._ids.shape

    def row_ids(self, row: int) -> np.ndarray:
        """The ids one row holds, in slot order (a copy; empty for
        ``-1``, the row of a node that has none)."""
        if row < 0:
            return np.empty(0, dtype=np.int32)
        ids = self._ids[row]
        return ids[ids >= 0]

    def _put(self, row: int, ids, ages=None) -> None:
        """Make ``ids`` (and ``ages``) the whole view of ``row``, packed
        in front of its empty slots."""
        n = len(ids)
        self._ids[row, :n] = ids
        self._ids[row, n:] = -1
        if ages is not None:
            self._ages[row, :n] = ages
            self._ages[row, n:] = 0
