"""The simulated network: nodes, liveness, and failure detection.

We follow the paper's system model (Sec. III-A): message-passing nodes
over reliable channels, a crash-stop fault model (nodes fail by crashing
and never recover), and a possibly imperfect failure detector.  The
default detector is perfect (a crash is visible the same round); a
delayed detector models detection latency, which the paper's "reactive
ping / heartbeat" implementations would exhibit.

Node state lives in a struct-of-arrays :class:`~repro.sim.arrays.NodeTable`
(contiguous coordinate/liveness columns); :class:`SimNode` is a thin view
over one table row.  Scalar code reads ``node.pos`` exactly as before
(the canonical coordinate tuple), while batch consumers — ranking,
metrics, the failure-detector scans — read whole columns through
:meth:`Network.alive_mask` / :meth:`Network.positions_of` without
touching Python objects.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import DeadNodeError, UnknownNodeError
from ..types import Coord, DataPoint, NodeId
from .arrays import NodeTable, _grown, resized


#: A :class:`SimNode`'s own fields; every other attribute is a layer's.
_OWN_FIELDS = frozenset(("nid", "initial_point", "_table", "_row", "_poscache"))


class SimNode:
    """A simulated physical node — a view over one :class:`NodeTable` row.

    The paper's layers keep nothing on a node: what they keep per node
    lives in row-indexed arrays that follow the table — every gossip
    view (Cyclon, T-Man, Vicinity) in its layer's
    :class:`~repro.sim.arrays.ViewStore`, placement in the
    :class:`~repro.sim.placement.PlacementStore`.  A layer outside that
    stack may attach an attribute (the aggregation layer's
    ``agg_value``); the node drops it when it leaves its row.

    ``pos`` is the node's *advertised* position — the value the topology
    construction layer sees.  For plain T-Man it is the node's fixed
    original position; under Polystyrene the projection step rewrites it
    every round.  Reads return the canonical coordinate object (the
    exact tuple last written); writes go through the table so the
    coordinate column stays in sync.

    A node can also be constructed *detached* (``SimNode(nid, pos)``)
    for unit tests and ad-hoc probes; it then owns its position without
    a backing table.
    """

    def __init__(
        self,
        nid: NodeId,
        pos: Coord = None,
        initial_point: Optional[DataPoint] = None,
        *,
        table: Optional[NodeTable] = None,
        row: int = -1,
    ) -> None:
        self.nid = nid
        self.initial_point = initial_point
        self._table = table
        if table is None:
            self._row = 0
            self._poscache = [pos]
        else:
            self._row = row
            self._poscache = table._pos_cache

    @property
    def pos(self) -> Coord:
        return self._poscache[self._row]

    @pos.setter
    def pos(self, value: Coord) -> None:
        if self._table is not None:
            self._table.set_coord(self._row, value)
        else:
            self._poscache[0] = value

    @property
    def row(self) -> int:
        """This node's row in the backing table (-1 when detached)."""
        return self._row if self._table is not None else -1

    @property
    def pos_array(self):
        """The node's position as an array row view when table-backed in
        vector mode (zero-conversion kernel origin), else the canonical
        coordinate object."""
        table = self._table
        if table is not None and table._coords is not None:
            return table._coords[self._row]
        return self._poscache[self._row]

    def _detach(self) -> None:
        """Stop being a view over a table row — its row was reclaimed —
        keeping its own fields (id, initial point, last position) and
        dropping every layer attribute.  A reclaim takes dead nodes
        only: a crashed node never acts again, and what the layers read
        of it is its id."""
        for name in [name for name in vars(self) if name not in _OWN_FIELDS]:
            delattr(self, name)
        self._poscache = [self.pos]
        self._table = None
        self._row = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimNode({self.nid}, pos={self.pos})"


class FailureDetector:
    """Base failure detector: answers "has ``nid``'s crash been
    detected as of round ``rnd``?"."""

    def detects(self, network: "Network", nid: NodeId, rnd: int) -> bool:
        raise NotImplementedError


class PerfectFailureDetector(FailureDetector):
    """Crashes are detected in the round they occur."""

    def detects(self, network: "Network", nid: NodeId, rnd: int) -> bool:
        return not network.is_alive(nid)


class DelayedFailureDetector(FailureDetector):
    """Crashes become visible ``delay`` rounds after they occur.

    Models heartbeat timeout latency; with ``delay=0`` it behaves like
    the perfect detector.  Never reports false positives (an alive node
    is never suspected), so it is an eventually-perfect detector.
    """

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("detection delay cannot be negative")
        self.delay = int(delay)

    def detects(self, network: "Network", nid: NodeId, rnd: int) -> bool:
        death = network.death_round(nid)
        if death is None:
            return False
        return rnd >= death + self.delay


class Network:
    """Registry of all nodes, alive and crashed, over a NodeTable."""

    #: int64 mirror of the alive ids in an over-allocated buffer whose
    #: first ``n_alive`` slots are in use (:meth:`alive_ids_array`).
    #: Built on first use and never pickled, so a network restored from
    #: any checkpoint starts from this class default.
    _alive_arr: Optional[np.ndarray] = None

    def __init__(self, detector: Optional[FailureDetector] = None) -> None:
        self.table = NodeTable()
        self.nodes: Dict[NodeId, SimNode] = {}
        self._alive: Dict[NodeId, None] = {}  # insertion-ordered set
        self._death_round: Dict[NodeId, int] = {}
        self.detector: FailureDetector = detector or PerfectFailureDetector()
        self._next_id: NodeId = 0
        self._alive_cache: Optional[List[NodeId]] = None
        self._dead: List[NodeId] = []

    # -- membership ------------------------------------------------------

    def reserve(self, extra: int) -> None:
        """Allocate, once and exactly, for ``extra`` nodes about to be
        added (:meth:`NodeTable.reserve`).  A running simulation
        reserves through :meth:`Simulation.reserve
        <repro.sim.engine.Simulation.reserve>`, which first reclaims the
        rows of long-detected dead nodes when the table would grow
        (:meth:`reclaim`): that renumbers rows, which no digest sees."""
        self.table.reserve(extra, self._next_id)

    def add_node(
        self, pos: Coord, initial_point: Optional[DataPoint] = None
    ) -> SimNode:
        """Create and register a fresh alive node."""
        nid = self._next_id
        self._next_id += 1
        return self._register(nid, pos, initial_point)

    def _register(
        self, nid: NodeId, pos: Coord, initial_point: Optional[DataPoint]
    ) -> SimNode:
        row = self.table.add(nid, pos)
        node = SimNode(nid, initial_point=initial_point, table=self.table, row=row)
        self.nodes[nid] = node
        n = len(self._alive)
        self._alive[nid] = None
        # Extend the enumeration caches instead of dropping them: a
        # reinjection wave reads them once per spawned node.
        if self._alive_cache is not None:
            self._alive_cache.append(nid)
        if self._alive_arr is not None:
            if n == len(self._alive_arr):
                resized(self, "_alive_arr", (_grown(n, n + 1),), -1)
            self._alive_arr[n] = nid
        return node

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_alive_arr", None)
        return state

    def node(self, nid: NodeId) -> SimNode:
        try:
            return self.nodes[nid]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {nid}") from None

    def alive_node(self, nid: NodeId) -> SimNode:
        node = self.node(nid)
        if nid not in self._alive:
            raise DeadNodeError(f"node {nid} has crashed")
        return node

    def reclaim(self, rows: np.ndarray) -> None:
        """Give back the table rows of dead nodes that nothing reads any
        more (:meth:`Simulation.reclaimable_rows
        <repro.sim.engine.Simulation.reclaimable_rows>`): the table
        renumbers the kept rows in order (:meth:`NodeTable.reclaim`) and
        every node's row follows.  A reclaimed node stays a known dead
        id — in :meth:`dead_ids`, its death round kept for the detector
        — with no row, so it reads the sentinel's liveness and
        detection, and no layer state (:meth:`SimNode._detach`)."""
        table, nodes = self.table, self.nodes
        for nid in table._nid_of[rows].tolist():
            nodes[nid]._detach()
        table.reclaim(rows)
        for row, nid in enumerate(table._nid_of[: table.n_rows].tolist()):
            if nid >= 0:
                nodes[nid]._row = row

    # -- liveness --------------------------------------------------------

    def is_alive(self, nid: NodeId) -> bool:
        return nid in self._alive

    def detects_failed(self, nid: NodeId, rnd: int) -> bool:
        """Whether the failure detector reports ``nid`` as failed."""
        if nid not in self.nodes:
            raise UnknownNodeError(f"unknown node id {nid}")
        return self.detector.detects(self, nid, rnd)

    def death_round(self, nid: NodeId) -> Optional[int]:
        """Round in which ``nid`` crashed, or ``None`` if alive."""
        return self._death_round.get(nid)

    def fail(self, nids: Iterable[NodeId], rnd: int) -> List[NodeId]:
        """Crash the given nodes (crash-stop).  Idempotent; returns the
        ids actually transitioned this call."""
        failed: List[NodeId] = []
        for nid in nids:
            if nid not in self.nodes:
                raise UnknownNodeError(f"unknown node id {nid}")
            if nid in self._alive:
                del self._alive[nid]
                self._death_round[nid] = rnd
                self._dead.append(nid)
                self.table.mark_dead(self.nodes[nid]._row, rnd)
                failed.append(nid)
        if failed:
            self._alive_cache = self._alive_arr = None
        return failed

    # -- enumeration & sampling -----------------------------------------

    def alive_ids(self) -> List[NodeId]:
        """All alive node ids (cached between membership changes)."""
        if self._alive_cache is None:
            self._alive_cache = list(self._alive)
        return self._alive_cache

    def alive_ids_array(self) -> np.ndarray:
        """:meth:`alive_ids` as an int64 array (cached between crashes,
        extended in place on add; do not mutate)."""
        n = len(self._alive)
        if self._alive_arr is None:
            self._alive_arr = np.fromiter(self._alive, dtype=np.int64, count=n)
        return self._alive_arr[:n]

    def alive_view(self) -> Dict[NodeId, None]:
        """The live alive-set mapping, for O(1) ``nid in view`` checks
        on hot paths (do not mutate)."""
        return self._alive

    def dead_ids(self) -> List[NodeId]:
        """Ids of all crashed nodes, in order of death."""
        return self._dead

    def alive_nodes(self) -> List[SimNode]:
        return [self.nodes[nid] for nid in self.alive_ids()]

    @property
    def n_alive(self) -> int:
        return len(self._alive)

    @property
    def n_total(self) -> int:
        return len(self.nodes)

    # -- batch reads (the array hot path) --------------------------------

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised liveness test for an array of node ids."""
        return self.table.alive_mask(ids)

    def positions_of(self, ids: np.ndarray):
        """Current *true* positions of the given node ids as a packed
        batch ((n, dim) array in vector mode, list otherwise)."""
        return self.table.gather(ids)

    def alive_positions(self):
        """Packed batch of all alive nodes' current positions, in
        :meth:`alive_ids` order."""
        return self.table.gather(self.alive_ids_array())

    def random_alive(
        self,
        rng: random.Random,
        k: int = 1,
        exclude: Iterable[NodeId] = (),
    ) -> List[NodeId]:
        """Sample up to ``k`` distinct alive node ids, avoiding
        ``exclude``.  Used as a bootstrap oracle (initial views) and as
        the last-resort fallback when a node's peer-sampling view holds
        no alive candidate."""
        excluded = set(exclude)
        pool = self.alive_ids()
        if excluded:
            pool = [nid for nid in pool if nid not in excluded]
        k = min(k, len(pool))
        return rng.sample(pool, k) if k > 0 else []
