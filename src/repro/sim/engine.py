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
from .arrays import view_ids
from .network import Network, SimNode
from .transport import MessageMeter

_perf_counter = obs_metrics._perf_counter

Event = Callable[["Simulation"], None]

#: Version of the *simulation semantics*: bump it in the same change
#: that intentionally alters any round-by-round trajectory (an RNG draw
#: added or removed, an iteration order changed, a float expression
#: reassociated).  The golden-digest tests (``tests/test_golden_digests``)
#: fail on any such change, intended or not; bumping this constant
#: invalidates every phase-fork checkpoint cache
#: (:class:`repro.runtime.forksweep.CheckpointCache` keys on it), so
#: stale pre-change prefixes are recomputed instead of silently forked.
SEMANTICS_VERSION = 1


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

    #: Retention policy for crashed nodes: when set, a node that has
    #: been dead (and therefore detector-visible) for this many rounds
    #: is forgotten entirely at the end of the round —
    #: :meth:`~repro.sim.network.Network.remove_node` recycles its table
    #: row, so perpetual-churn runs hold peak-population state instead
    #: of total-churn state.  Must exceed the failure-detection delay by
    #: at least two rounds so every ghost recovery has already fired
    #: (the scenario config validates this).  Class attribute so
    #: checkpoints taken before the policy existed restore cleanly.
    retention_rounds: Optional[int] = None

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

    def spawn_node(
        self, pos: Coord, initial_point: Optional[DataPoint] = None
    ) -> SimNode:
        """Add a fresh node mid-run and initialise it in every layer —
        the reinjection primitive (Sec. IV-A, Phase 3)."""
        node = self.network.add_node(pos, initial_point)
        for layer in self.layers:
            layer.init_node(self, node)
        return node

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

    def departed(self) -> Callable[[NodeId], bool]:
        """Membership test for ids a layer must treat as failed and
        detected: the detector's current set plus ids already forgotten
        by the retention policy (a pruned id has no table row and was
        detector-visible for the whole retention window).  The single
        scalar source of the released-ids-count-as-detected rule — the
        array mirror is :meth:`detected_mask`."""
        detected = self.detected_failed()
        network = self.network
        if not network.table._has_released:
            return detected.__contains__
        nodes = network.nodes
        return lambda nid: nid in detected or nid not in nodes

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
        the gossip layers.  Released (pruned) ids have no row and are
        long-detected: the table's sentinel row reads detected."""
        table = self.network.table
        key = (self.round, self.network.n_alive, self.network.n_total)
        if self._detected_rows_key != key:
            detected = self.detected_failed()
            self._detected_rows = table.row_flags(
                table.rows_of(np.fromiter(detected, np.int64, len(detected))),
                sentinel=True,
            )
            self._detected_rows_key = key
        return self._detected_rows.take(table.rows_of(ids))

    def view_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """The topology views as one padded id matrix, ``(rows, ids)``:
        ``ids`` is indexed by table row (``-1`` pads) and ``rows`` are
        the alive nodes' rows, in :meth:`Network.alive_ids` order — what
        the proximity metric scores.  Packed here from the per-node
        ``tman_view`` slots; the batch engine's layers already hold it."""
        nodes = self.network.alive_nodes()
        rows = np.fromiter((node.row for node in nodes), np.int64, len(nodes))
        packed = [view_ids(getattr(node, "tman_view", None)) for node in nodes]
        lens = np.fromiter(map(len, packed), np.int64, len(packed))
        total = int(lens.sum())
        ids = np.full(
            (self.network.table.n_rows, int(lens.max(initial=0))), -1, np.int64
        )
        if total:
            col = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            ids[np.repeat(rows, lens), col] = np.concatenate(packed)
        return rows, ids

    # -- main loop ---------------------------------------------------------

    def step(self) -> int:
        """Run one full round; returns the index of the completed round.

        Instrumentation (per-round and per-layer wall time, the meter's
        per-layer message costs) is read-only and gated on one
        module-global check per round, so the disabled path stays within
        the perf-smoke overhead budget and trajectories are identical
        with observability on or off.
        """
        enabled = obs_metrics.ENABLED
        tracing = obs_trace.ENABLED
        series_on = enabled and obs_series.ENABLED
        layer_walls: Dict[str, float] = {}
        round_span = (
            obs_trace.Span("round", {"round": self.round})
            if tracing
            else obs_trace.NULL_SPAN
        )
        with round_span:
            t_round = _perf_counter() if enabled else 0.0
            if enabled and obs_mem.ENABLED:
                obs_mem.set_round(self.round)
            for event in self._events.pop(self.round, []):
                event(self)
            for layer in self.layers:
                t_layer = _perf_counter() if enabled else 0.0
                if tracing:
                    with obs_trace.Span(f"layer.{layer.name}", {}):
                        layer.step(self)
                else:
                    layer.step(self)
                if enabled:
                    dur = _perf_counter() - t_layer
                    obs_metrics.observe(f"round.layer.{layer.name}", dur)
                    if series_on:
                        layer_walls[layer.name] = dur
            completed = self.round
            layer_costs = self.meter.end_round()
            t_obs = _perf_counter() if enabled else 0.0
            for observer in self.observers:
                observer.on_round_end(self)
            if enabled:
                obs_metrics.observe("round.observers", _perf_counter() - t_obs)
            pruned = 0
            if self.retention_rounds is not None:
                pruned = len(
                    self.network.prune_dead(completed - self.retention_rounds)
                )
            self.round += 1
            if enabled:
                obs_metrics.count("rounds", 1)
                for layer_name, units in layer_costs.items():
                    obs_metrics.count(f"messages.{layer_name}", units)
                wall = _perf_counter() - t_round
                obs_metrics.observe("round.wall", wall)
                if series_on:
                    obs_series.emit_round(
                        self, completed, wall, layer_walls, layer_costs, pruned
                    )
        return completed

    def run(self, rounds: int) -> None:
        """Run ``rounds`` additional rounds."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        for _ in range(rounds):
            self.step()
