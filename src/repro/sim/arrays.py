"""Struct-of-arrays storage for the simulation core.

Two containers back the array-based hot path introduced with the
vectorised space kernels (:meth:`repro.spaces.base.Space.distance_block`
and friends):

* :class:`NodeTable` — the network's node state as contiguous NumPy
  columns (coordinates, alive flags, death rounds) plus an id → row
  index.  :class:`~repro.sim.network.SimNode` objects are thin views
  over one row; batch consumers (ranking, metrics) read whole columns
  without touching Python objects.  Rows of nodes that have been
  *removed* (crash-stop nodes pruned after every reference to them has
  aged out) go onto a free list and are reused by the next node added —
  long-churn runs with reinjection reuse slots instead of growing
  without bound.

* :class:`ViewBuffer` — the per-layer topology *view slot*: an
  insertion-ordered id → coordinate map whose packed id/coordinate
  arrays are rebuilt lazily after mutations.  It reproduces ``dict``
  semantics exactly — iteration order is insertion order, updating an
  existing key keeps its position, re-inserting a removed key appends —
  so the gossip layers draw the same RNG sequences they drew over plain
  dicts, while every ranking between two mutations reads the same
  packed arrays instead of re-converting the view entry by entry.

Both containers deep-copy and pickle cleanly, which the checkpoint
subsystem relies on.

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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
#: lost-point nearest node (torus kernel)      1.5
#: proximity distance pad                      3.1
#: ==========================================  =======
#:
#: so at 512 KiB no block holds more than ≈ 2.2 MiB, about one L2 (2 MiB
#: per core on the Xeon these were measured on).  Where one row alone
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
#: makes: at 3,200 nodes T-Man's message coordinates are 2 MB, so 4 MiB
#: serves them, one block and the rest of a round from retained heap
#: (40 rounds of ``repair-batch-80x40``: 3.3k minor faults, against 35k
#: at 2 MiB and 37k unreserved).  It is also the size above which an
#: array is ``mmap``ped — the persistent view arrays from 3,200 nodes up
#: are, so :func:`resized` grows them by ``mremap``; at 6-16 MiB T-Man's
#: 5 MB coordinate block sits on the heap, its growth copies, and the
#: peak reads 68.1 MB against 66.4 MB (faults 3.7k).  Networks whose
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
    released id stores ``-1``, so :meth:`rows_of` → :meth:`alive_at` /
    :meth:`coords_at` resolve a padded id block of any shape to "dead,
    zero" in plain ``take`` calls — no validity mask, no compress and
    scatter.  Growth appends fresh slots, which *are* sentinel values.
    """

    #: Set by a layer that keeps the nodes' placement state (guests,
    #: ghosts, backups) in row-indexed arrays rather than on
    #: ``node.poly``: a reader that finds no ``poly`` on such a node must
    #: not take it for "holds nothing" (:func:`repro.core.state.state_of`).
    placement_in_arrays = False

    def __init__(self) -> None:
        self._dim: Optional[Union[int, str]] = None
        self._coords: Optional[np.ndarray] = None  # (cap, dim) in vector mode
        self._alive = np.zeros(_MIN_CAP, dtype=bool)
        self._death = np.full(_MIN_CAP, -1, dtype=np.int64)
        self._row_of = np.full(_MIN_CAP, -1, dtype=np.int64)  # nid -> row
        self._nid_of = np.full(_MIN_CAP, -1, dtype=np.int64)  # row -> nid
        self._pos_cache: List = []  # row -> canonical coordinate object
        self._free: List[int] = []
        self._n_rows = 0
        #: Set once a node id has ever been released: only then can a
        #: view hold an id the network no longer knows
        #: (:meth:`repro.sim.engine.Simulation.departed`).
        self._has_released = False

    def __setstate__(self, state) -> None:
        """Tables pickled before the sentinel slot existed may have
        their last slot in use and uninitialised coordinates past the
        allocated rows: re-establish the sentinel."""
        self.__dict__.update(state)
        self._grow_rows(self._n_rows)
        if self._row_of[-1] != -1:
            self._grow_ids(len(self._row_of) - 1)
        if self._coords is not None:
            self._coords[self._n_rows :] = 0.0

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
    def free_rows(self) -> List[int]:
        """Rows currently on the free list (read-only snapshot)."""
        return list(self._free)

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

    def _resize(self, row_slots: int, id_slots: int) -> None:
        """Reallocate the row columns and the id index to the given
        slot counts (each including its sentinel); never shrinks."""
        if row_slots > len(self._alive):
            before = self.nbytes if _mem.ENABLED else 0
            resized(self, "_alive", (row_slots,), False)
            resized(self, "_death", (row_slots,), -1)
            resized(self, "_nid_of", (row_slots,), -1)
            if self._coords is not None:
                resized(self, "_coords", (row_slots, self._coords.shape[1]), 0.0)
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
        Freed rows are counted first.  A call that does not fit costs
        one reallocation, so it is made per membership event, not per
        node; joins of unknown count need no call — :meth:`add` grows
        geometrically (:func:`_grown`)."""
        fresh = max(0, extra - len(self._free))
        self._resize(self._n_rows + fresh + 1, next_id + extra + 1)

    # -- membership ------------------------------------------------------

    def add(self, nid: NodeId, coord: Coord) -> int:
        """Register a node; returns its row (reusing a freed row when
        one is available)."""
        self._ensure_layout(coord)
        self._grow_ids(nid)
        if self._row_of[nid] != -1:
            raise SimulationError(f"node id {nid} already registered")
        if self._free:
            row = self._free.pop()
        else:
            row = self._n_rows
            self._grow_rows(row + 1)
            self._n_rows += 1
            if len(self._pos_cache) <= row:
                self._pos_cache.extend(
                    [None] * (row + 1 - len(self._pos_cache))
                )
        self._row_of[nid] = row
        self._nid_of[row] = nid
        self._alive[row] = True
        self._death[row] = -1
        self.set_coord(row, coord)
        return row

    def set_coord(self, row: int, coord: Coord) -> None:
        """Write a node's coordinate (array column + canonical object)."""
        if self._coords is not None:
            self._coords[row] = coord
            if not isinstance(coord, tuple):
                coord = tuple(coord)
        self._pos_cache[row] = coord

    def set_coords(self, rows: np.ndarray, coords: np.ndarray) -> None:
        """:meth:`set_coord` for many rows at once (vector mode)."""
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

    def release(self, nid: NodeId) -> int:
        """Forget a *dead* node entirely and recycle its row.

        The caller is responsible for making sure no view still
        references the id; the freed row is handed to the next
        :meth:`add` (reinjection reuse).
        """
        row = int(self._row_of[nid])
        if row < 0:
            raise SimulationError(f"unknown node id {nid}")
        if self._alive[row]:
            raise SimulationError(f"cannot release alive node {nid}")
        self._row_of[nid] = -1
        self._nid_of[row] = -1
        self._death[row] = -1
        self._pos_cache[row] = None
        self._free.append(row)
        self._has_released = True
        return row

    # -- batch reads -----------------------------------------------------

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row indices for a node-id array of any shape.  ``-1`` pads
        and released ids resolve to row ``-1``, the sentinel, which
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

    def coords_at(self, rows: np.ndarray) -> np.ndarray:
        """Current coordinates of the given rows (of :meth:`rows_of`),
        ``rows.shape + (dim,)``; vector mode only."""
        return self._coords.take(rows, axis=0)

    def row(self, nid: NodeId) -> int:
        return int(self._row_of[nid])

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given node ids are alive.

        Ids of *released* (removed) nodes and ``-1`` pads map to the
        sentinel row and report dead — a view that still holds a pruned
        id must treat it like any other departed peer, not alias
        another node's row."""
        return self._alive.take(self._row_of.take(ids))

    def alive_rows(self) -> np.ndarray:
        """Bool column over allocated rows (do not mutate)."""
        return self._alive[: self._n_rows]

    def death_rounds(self) -> np.ndarray:
        return self._death[: self._n_rows]

    def coords_rows(self) -> Optional[np.ndarray]:
        """The raw coordinate block over allocated rows (vector mode
        only; do not mutate)."""
        if self._coords is None:
            return None
        return self._coords[: self._n_rows]

    def gather(self, ids: np.ndarray):
        """Current true coordinates of the given node ids: an
        ``ids.shape + (dim,)`` array in vector mode (zeros for ``-1``
        pads and released ids), a list of coordinate objects otherwise."""
        rows = self._row_of.take(ids)
        if self._coords is not None:
            return self._coords.take(rows, axis=0)
        return [self._pos_cache[r] for r in rows]


class ViewBuffer:
    """Insertion-ordered id → coordinate map with a packed array cache.

    The gossip layers' views are mutation-heavy (every exchange merges
    ~20 descriptors) *and* rank-heavy (every exchange ranks the view
    several times).  The buffer therefore keeps a plain dict as the
    source of truth — mutations run at C dict speed and iteration order
    is exactly the historical dict order, so RNG draw sequences are
    unchanged — and lazily packs the ids and coordinates into
    contiguous arrays the first time a ranking kernel asks after a
    mutation.  A view that is ranked several times between mutations
    (partner selection, the two exchange buffers) pays for one pack.

    The mapping protocol mirrors ``dict`` (tests and the routing layer
    treat views as mappings); bulk helpers cover the layers' hot
    mutation patterns so the per-descriptor work stays inside one
    method call.
    """

    __slots__ = ("coords", "_dim", "_ids_arr", "_coords_arr", "_dirty", "_ranked_pos")

    def __init__(
        self,
        dim: Union[int, str],
        entries: Iterable[Tuple[NodeId, Coord]] = (),
    ) -> None:
        self._dim = dim
        self.coords: Dict[NodeId, Coord] = dict(entries)
        self._ids_arr: Optional[np.ndarray] = None
        self._coords_arr = None
        self._dirty = True
        #: The origin object this view is currently *sorted for* (set by
        #: the ranked truncations, compared by identity).  While it is
        #: the node's live position object, ranked prefixes of the view
        #: replace distance kernels entirely; any mutation that can
        #: break the sort order clears it (order-preserving evictions
        #: keep it).
        self._ranked_pos = None

    @property
    def dim(self) -> Union[int, str]:
        return self._dim

    @property
    def ranked_pos(self):
        """The origin object the view is sorted for, or None."""
        return self._ranked_pos

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed array cache (the memory-profiler's
        accounting hook; the source-of-truth dict is not counted)."""
        total = 0
        if self._ids_arr is not None:
            total += self._ids_arr.nbytes
        if isinstance(self._coords_arr, np.ndarray):
            total += self._coords_arr.nbytes
        return total

    # -- mapping protocol (dict-compatible) ------------------------------

    def __len__(self) -> int:
        return len(self.coords)

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __contains__(self, nid) -> bool:
        return nid in self.coords

    def __getitem__(self, nid) -> Coord:
        return self.coords[nid]

    def __setitem__(self, nid: NodeId, coord: Coord) -> None:
        self.coords[nid] = coord
        self._dirty = True
        self._ranked_pos = None

    def __delitem__(self, nid: NodeId) -> None:
        del self.coords[nid]
        self._dirty = True

    def get(self, nid, default=None):
        return self.coords.get(nid, default)

    def keys(self):
        return self.coords.keys()

    def values(self):
        return self.coords.values()

    def items(self):
        return self.coords.items()

    def ids_list(self) -> List[NodeId]:
        return list(self.coords)

    # -- packed arrays (the ranking hot path) ----------------------------

    def arrays(self):
        """``(ids, coords)`` in insertion order: an int64 array and a
        packed coordinate batch ((n, dim) float array in vector mode, a
        list of coordinate objects otherwise).  Rebuilt lazily after
        mutations; do not mutate the returned arrays."""
        if self._dirty:
            before = self.nbytes if _mem.ENABLED else 0
            n = len(self.coords)
            self._ids_arr = np.fromiter(
                self.coords.keys(), dtype=np.int64, count=n
            )
            if isinstance(self._dim, int):
                self._coords_arr = np.asarray(
                    list(self.coords.values()), dtype=float
                ).reshape(n, self._dim)
            else:
                self._coords_arr = list(self.coords.values())
            self._dirty = False
            if _mem.ENABLED:
                _mem.add("view_buffer", "ViewBuffer.pack", self.nbytes - before)
        return self._ids_arr, self._coords_arr

    # -- bulk mutation helpers (one method call per hot pattern) ---------

    def evict(self, detected) -> None:
        """Drop every entry whose id is in ``detected`` (a set)."""
        coords = self.coords
        stale = [nid for nid in coords if nid in detected]
        if stale:
            for nid in stale:
                del coords[nid]
            self._dirty = True

    def evict_ids(self, stale: Sequence[NodeId]) -> None:
        """Drop the given entries (caller already computed the stale
        set, e.g. from a vectorised liveness mask)."""
        if stale:
            coords = self.coords
            for nid in stale:
                del coords[nid]
            self._dirty = True

    def merge_coords(self, incoming: Dict[NodeId, Coord], own: NodeId, detected) -> None:
        """The T-Man merge rule: adopt every incoming descriptor except
        our own id and detected-failed peers; fresher coordinates
        overwrite stored ones."""
        coords = self.coords
        changed = False
        for nid, coord in incoming.items():
            if nid == own or nid in detected:
                continue
            coords[nid] = coord
            changed = True
        if changed:
            self._dirty = True
            self._ranked_pos = None

    def keep_ranked(self, keep: Sequence[NodeId], ranked_for=None) -> None:
        """Rebuild holding exactly ``keep``, in that order — the array
        form of ``{nid: view[nid] for nid in keep}`` (T-Man's bounded-
        view truncation).  ``ranked_for`` records the origin object the
        order was computed against."""
        coords = self.coords
        self.coords = {nid: coords[nid] for nid in keep}
        self._dirty = True
        self._ranked_pos = ranked_for

    def set_ranked(self, keep_ids: np.ndarray, coords_arr, ranked_for=None) -> None:
        """:meth:`keep_ranked` for a caller that already holds the
        kept ids and their packed coordinate rows (a ranking it just
        computed): the packed cache is installed directly instead of
        being rebuilt on the next ranking."""
        old = self.coords
        self.coords = {nid: old[nid] for nid in keep_ids.tolist()}
        self._ids_arr = keep_ids
        self._coords_arr = coords_arr
        self._dirty = False
        self._ranked_pos = ranked_for

    def replace(self, entries: Dict[NodeId, Coord]) -> None:
        self.coords = dict(entries)
        self._dirty = True
        self._ranked_pos = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ViewBuffer(n={len(self.coords)}, dim={self._dim})"


def view_ids(view) -> np.ndarray:
    """The id column of a topology view slot: a :class:`ViewBuffer`, a
    plain dict (tests, ad-hoc probes) or ``None``."""
    if isinstance(view, ViewBuffer):
        return view.arrays()[0]
    return np.fromiter(view or (), np.int64)
