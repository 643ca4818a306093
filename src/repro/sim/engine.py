"""Cycle-driven simulation engine (the PeerSim substitute).

Semantics match PeerSim's cycle-driven mode, which the paper's
evaluation uses: in every round, each protocol layer lets every alive
node execute one active gossip cycle, in a fresh random order per layer
per round.  Scheduled events (catastrophic failures, reinjection) fire
at the *start* of their round, before any layer runs — so a failure at
round 20 means round 20 already executes on the post-failure network,
as in the paper's timeline.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import mem as obs_mem
from ..obs import metrics as obs_metrics
from ..obs import series as obs_series
from ..obs import trace as obs_trace
from ..spaces.base import Space
from ..types import Coord, DataPoint, NodeId
from . import rng as rng_mod
from .arrays import ViewStore
from .network import Network, SimNode
from .transport import MessageMeter

Event = Callable[["Simulation"], None]

#: Version of the *simulation semantics*: bump it in the same change
#: that intentionally alters any round-by-round trajectory (an RNG draw
#: added or removed, an iteration order changed, a float expression
#: reassociated).  The golden-digest tests (``tests/test_golden_digests``)
#: fail on any such change, intended or not; bumping this constant
#: invalidates every phase-fork checkpoint cache
#: (:class:`repro.runtime.forksweep.CheckpointCache` keys on it), so
#: stale pre-change prefixes are recomputed instead of silently forked.
#: Version 3 (never 2, the batch engine's number): the medoid sums the
#: exact squared distances and SPLIT is the batch kernel's one-pool
#: call, so exact ties go to the first point instead of to rounding.
#: Version 4 (neither engine's number before): a topology view is an id
#: column, and T-Man and Vicinity rank peers at their current positions.
SEMANTICS_VERSION = 4


def semantics_version_for(engine: str = "event") -> int:
    """The semantics version an execution engine runs under.

    The event engine is version :data:`SEMANTICS_VERSION`; the batch
    engine (:mod:`repro.sim.batch`) declares its own.  Checkpoint-cache
    keys and golden digests are engine-scoped through this mapping, so a
    batch prefix can never be forked into an event continuation (or vice
    versa) by way of a cache hit.
    """
    if engine in (None, "event"):
        return SEMANTICS_VERSION
    if engine == "batch":
        from .batch import SEMANTICS_VERSION as BATCH_SEMANTICS_VERSION

        return BATCH_SEMANTICS_VERSION
    raise ValueError(f"unknown execution engine {engine!r}")


class Layer(Protocol):
    """A protocol layer stacked into the simulation.

    ``init_node`` attaches the layer's per-node state when a node joins
    (at construction time or via reinjection).  ``step`` runs one round
    of the layer over the whole network.
    """

    name: str

    def init_node(self, sim: "Simulation", node: SimNode) -> None: ...

    def step(self, sim: "Simulation") -> None: ...


class Observer(Protocol):
    """Called after every completed round with the simulation state."""

    def on_round_end(self, sim: "Simulation") -> None: ...


class Simulation:
    """Drives a stack of layers over a network, round by round."""

    def __init__(
        self,
        space: Space,
        network: Network,
        layers: Sequence[Layer],
        seed: int = 0,
        observers: Sequence[Observer] = (),
    ) -> None:
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate layer names: {names}")
        self.space = space
        self.network = network
        self.layers: List[Layer] = list(layers)
        self.seed = int(seed)
        self.observers: List[Observer] = list(observers)
        self.meter = MessageMeter()
        self.round: int = 0
        self._events: Dict[int, List[Event]] = defaultdict(list)
        #: One independent RNG substream per layer, plus one for the
        #: engine itself (event ordering, node spawning).
        self._rngs: Dict[str, random.Random] = {
            layer.name: rng_mod.spawn(self.seed, "layer", layer.name)
            for layer in layers
        }
        self._engine_rng = rng_mod.spawn(self.seed, "engine")
        self._detected: frozenset = frozenset()
        self._detected_key: Optional[tuple] = None
        self._detected_rows: Optional[np.ndarray] = None
        self._detected_rows_key: Optional[tuple] = None
        self._act_rows: Optional[np.ndarray] = None
        self._act_rows_key: Optional[tuple] = None

    # -- setup -----------------------------------------------------------

    def rng_for(self, layer_name: str) -> random.Random:
        """The dedicated RNG substream of a layer."""
        if layer_name not in self._rngs:
            self._rngs[layer_name] = rng_mod.spawn(self.seed, "layer", layer_name)
        return self._rngs[layer_name]

    def init_all_nodes(self) -> None:
        """Run every layer's per-node initialisation over the current
        network.  Call once after the initial population is created."""
        for layer in self.layers:
            for node in self.network.alive_nodes():
                layer.init_node(self, node)

    def reserve(self, extra: int) -> None:
        """Make room, once and exactly, for ``extra`` nodes about to
        join (a reinjection wave): :meth:`Network.reserve
        <repro.sim.network.Network.reserve>`, after :meth:`_make_room`."""
        self._make_room(extra)
        self.network.reserve(extra)

    def spawn_node(
        self, pos: Coord, initial_point: Optional[DataPoint] = None
    ) -> SimNode:
        """Add a fresh node mid-run and initialise it in every layer —
        the reinjection primitive (Sec. IV-A, Phase 3)."""
        self._make_room(1)
        node = self.network.add_node(pos, initial_point)
        for layer in self.layers:
            layer.init_node(self, node)
        return node

    def _make_room(self, extra: int) -> None:
        """Before ``extra`` joins would grow the node table — no spare
        capacity — reclaim the rows nothing can read any more
        (:meth:`reclaimable_rows`,
        :meth:`~repro.sim.network.Network.reclaim`), so the rows in use
        are bounded by the live population.  Kept rows keep their order:
        no draw, bucket or digest sees the renumbering."""
        if self.network.table.spare_rows < extra:
            rows = self.reclaimable_rows()
            if len(rows):
                self.network.reclaim(rows)

    def reclaimable_rows(self) -> np.ndarray:
        """Table rows of dead nodes that nothing can read any more:
        detected two rounds ago, so every recovery of them has fired
        (``death + detector delay + 2 <= round``), and holding no pushed
        copy whose target is alive — a ghost its holder still carries."""
        network, table = self.network, self.network.table
        death = table._death[: table.n_rows]
        then = self.round - 2
        rows = np.flatnonzero((death >= 0) & (death <= then))
        owners = table._nid_of[rows].tolist()
        detected = [network.detector.detects(network, nid, then) for nid in owners]
        rows = rows[np.asarray(detected, dtype=bool)]
        store = self.placement
        if store is not None and len(rows):
            origins, _, targets = store.copies(table)
            pinned = table.row_flags(origins[table.alive_at(targets)], sentinel=False)
            rows = rows[~pinned[rows]]
        return rows

    def schedule(self, rnd: int, event: Event) -> None:
        """Register ``event`` to fire at the start of round ``rnd``."""
        if rnd < self.round:
            raise SimulationError(
                f"cannot schedule an event at past round {rnd} (now {self.round})"
            )
        self._events[rnd].append(event)

    # -- helpers used by layers -------------------------------------------

    def shuffled_alive(self, layer_name: str) -> List[NodeId]:
        """Alive node ids in a fresh random order (one gossip cycle's
        activation order for a layer)."""
        ids = list(self.network.alive_ids())
        self.rng_for(layer_name).shuffle(ids)
        return ids

    def detects_failed(self, nid: NodeId) -> bool:
        return nid in self.detected_failed()

    def detected_failed(self) -> frozenset:
        """The set of node ids the failure detector currently reports
        as failed.  Detection only depends on the round and on the
        membership, so the set is cached per (round, membership) — the
        fast path for the eviction scans in the gossip layers."""
        network = self.network
        key = (self.round, len(network._alive), len(network.nodes))
        if self._detected_key != key:
            network = self.network
            rnd = self.round
            self._detected = frozenset(
                nid
                for nid in network.dead_ids()
                if network.detector.detects(network, nid, rnd)
            )
            self._detected_key = key
        return self._detected

    def detected_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised form of :meth:`detects_failed` over an id array of
        any shape — the fast path for the per-view eviction scans in
        the gossip layers.  Reclaimed ids have no row and are
        long-detected: the table's sentinel row reads detected."""
        table = self.network.table
        key = (self.round, self.network.n_alive, self.network.n_total, table._layout)
        if self._detected_rows_key != key:
            detected = self.detected_failed()
            self._detected_rows = table.row_flags(
                table.rows_of(np.fromiter(detected, np.int64, len(detected))),
                sentinel=True,
            )
            self._detected_rows_key = key
        return self._detected_rows.take(table.rows_of(ids))

    def alive_act_rows(self) -> np.ndarray:
        """The sorted table rows of the alive nodes — the round-start
        pack the batch layers groom and exchange over and the proximity
        metric scores.  Liveness only changes between rounds (scheduled
        events run before the first layer), so the pack is cached per
        (round, membership, row numbering) exactly like
        :meth:`detected_mask`.  The returned array is read-only."""
        table = self.network.table
        key = (self.round, self.network.n_alive, self.network.n_total, table._layout)
        if self._act_rows_key != key:
            rows = np.flatnonzero(table.alive_rows())
            rows.setflags(write=False)
            self._act_rows = rows
            self._act_rows_key = key
        return self._act_rows

    @property
    def topology(self) -> Optional[ViewStore]:
        """The topology layer (T-Man or Vicinity, either engine): the
        first layer keeping its views in a
        :class:`~repro.sim.arrays.ViewStore`, or ``None``."""
        for layer in self.layers:
            if isinstance(layer, ViewStore):
                return layer
        return None

    def view_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """The topology views as a padded id matrix, ``(rows, ids)``:
        ``ids`` is the topology layer's id array itself, indexed by
        table row (``-1`` pads; read it, do not write it), and ``rows``
        are the alive nodes' rows (:meth:`alive_act_rows`) — what the
        proximity metric scores.  A stack without a topology layer has
        views of width 0."""
        topo = self.topology
        if topo is None:
            return self.alive_act_rows(), np.full((self.network.table.capacity, 0), -1)
        topo._ensure_rows(self.network.table)
        return self.alive_act_rows(), topo._ids

    def canonical_view_ids(self, rows: np.ndarray) -> Dict[str, List[List[int]]]:
        """``{attribute: sorted view ids of each table row of rows}`` for
        every layer that keeps its views in arrays and states the key
        they are digested under (``canonical_attr``), taken from each
        layer's padded ids (``ids_rows``); callers pass a row block at a
        time.  Views still kept as node attributes (the event engine's
        peer sampling) are read off the nodes by the digest.

        A pure read, which is what lets
        :func:`repro.runtime.checkpoint.state_digest` fingerprint a
        simulation without changing it: no layer grows (rows one has
        not allocated read as empty), and a duplicated id counts once,
        as a dict key would.
        """
        out = {}
        for layer in self.layers:
            attr = getattr(layer, "canonical_attr", None)
            if attr is None:
                continue
            allocated, width = layer.view_shape
            held = rows < allocated
            if held.all():
                ids = layer.ids_rows(rows)
            else:
                ids = np.full((len(rows), width), -1, np.int64)
                ids[held] = layer.ids_rows(rows[held])
            ids.sort(axis=1)
            dup = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
            if dup.any():
                ids[:, 1:][dup] = -1
                ids.sort(axis=1)
            pads = (ids < 0).sum(axis=1).tolist()
            out[attr] = [row[k:] for row, k in zip(ids.tolist(), pads)]
        return out

    @property
    def placement(self):
        """The protocol layer's placement store
        (:class:`~repro.sim.placement.PlacementStore`: guests, ghosts and
        backups of every node, by table row), or ``None`` for a stack
        without one — what the metrics and the state digest read."""
        for layer in self.layers:
            store = getattr(layer, "placement", None)
            if store is not None:
                return store
        return None

    # -- main loop ---------------------------------------------------------

    def step(self) -> int:
        """Run one full round; returns the index of the completed round.

        Instrumentation is read-only and gated on module-global checks,
        so the disabled path stays within the perf-smoke overhead budget
        and trajectories are identical with observability on or off.
        With tracing on, the round, each layer step and the observers
        are one span each, and the round's series record reads its wall
        times off those spans; the registry counts rounds and the
        meter's per-layer message units.
        """
        tracing = obs_trace.ENABLED
        if obs_mem.ENABLED:
            obs_mem.set_round(self.round)
        round_span = (
            obs_trace.Span("round", {"round": self.round})
            if tracing
            else obs_trace.NULL_SPAN
        )
        layer_spans: Dict[str, obs_trace.Span] = {}
        with round_span:
            for event in self._events.pop(self.round, []):
                event(self)
            for layer in self.layers:
                if tracing:
                    span = obs_trace.Span(f"layer.{layer.name}", {})
                    layer_spans[layer.name] = span
                    with span:
                        layer.step(self)
                else:
                    layer.step(self)
            completed = self.round
            layer_costs = self.meter.end_round()
            with obs_trace.span("observers"):
                for observer in self.observers:
                    observer.on_round_end(self)
            self.round += 1
        if obs_metrics.ENABLED:
            obs_metrics.count("rounds", 1)
            for layer_name, units in layer_costs.items():
                obs_metrics.count(f"messages.{layer_name}", units)
        if tracing and obs_series.ENABLED:
            layer_walls = {name: span.dur for name, span in layer_spans.items()}
            obs_series.emit_round(
                self, completed, round_span.dur, layer_walls, layer_costs
            )
        return completed

    def run(self, rounds: int) -> None:
        """Run ``rounds`` additional rounds."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        for _ in range(rounds):
            self.step()
