"""Batch-synchronous simulation engine (``SEMANTICS_VERSION = 5``).

:class:`BatchSimulation` drives the same network, event schedule,
message meter and observers as the event engine, but each layer
advances the *whole network* one round at a time with array kernels:
every exchange of a round is computed from the round-start snapshot of
the :class:`~repro.sim.arrays.NodeTable` and the layer's padded view
arrays, then all merges are applied at once.

Where the two engines differ (the documented batch semantics):

* **RNG** — one ``numpy.random.Generator`` substream per layer, keyed
  exactly like :func:`repro.sim.rng.spawn` keys the event engine's
  ``random.Random`` streams (``derive_seed(seed, "layer", name)``), but
  drawing vectorised batches.  Draw sequences therefore differ from the
  event engine — trajectories are *statistically*, not bit-for-bit,
  equivalent (enforced by ``tests/test_engine_equivalence``).
* **Exchange timing** — all partner selections and message buffers of a
  round are computed from the groomed round-start state; merges land
  afterwards.  In the event engine exchanges are sequential within a
  round.
* **Migration** — every alive node still initiates one exchange a
  round (the event engine's rate), but the proposals execute in
  dependency *waves*: each wave is a conflict-free matching of the
  pending proposals (drained until none remain), so simultaneous
  snapshot-based re-partitions can never lose or duplicate points while
  chained intra-round point transport is preserved.

Everything *around* the round loop is shared with the event engine:
scheduled events (failures, reinjection, probes), the failure-detector
model, checkpoint snapshot/restore, and the scenario runner seams.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...errors import ConfigurationError
from ...spaces.base import Space
from .. import arrays
from ..engine import Layer, Observer, Simulation
from ..network import Network
from ..rng import derive_seed
from .topology import ViewIdMatrix, _BatchTopologyBase

#: Version of the *batch* simulation semantics (the event engine is
#: version 4 — :data:`repro.sim.engine.SEMANTICS_VERSION`).  Bump in the
#: same change that alters any batch-mode trajectory; it keys the
#: phase-fork checkpoint cache for ``engine="batch"`` configurations and
#: the batch golden digests.  Version 5 (neither engine's number
#: before): topology views are id columns ranked at peers' current
#: positions.
SEMANTICS_VERSION = 5


def generator_for(seed: int, *keys) -> np.random.Generator:
    """A deterministic ``numpy.random.Generator`` substream, keyed the
    same way :func:`repro.sim.rng.spawn` keys the scalar streams."""
    return np.random.default_rng(derive_seed(seed, *keys))


class BatchSimulation(Simulation):
    """Batch-synchronous drop-in for :class:`~repro.sim.engine.Simulation`.

    The constructor signature, ``step``/``run``/``schedule``/``spawn_node``
    and the observer protocol match the event engine; layers must be the
    batch implementations from this package (they consume the array
    state this engine maintains).
    """

    semantics_version = SEMANTICS_VERSION

    #: Whether the per-node canonical attributes currently mirror the
    #: array state (set by :meth:`sync_canonical`, cleared by anything
    #: that can mutate layer state), so read-only repeat syncs — e.g.
    #: a routing probe firing hundreds of routes per round — are O(1).
    _canonical_synced = False

    def __init__(
        self,
        space: Space,
        network: Network,
        layers: Sequence[Layer],
        seed: int = 0,
        observers: Sequence[Observer] = (),
    ) -> None:
        if not isinstance(space.dim, int):
            raise ConfigurationError(
                "the batch engine needs a fixed-dimension vector space "
                f"(got {type(space).__name__} with dim={space.dim!r}); "
                "use the event engine for object-coordinate spaces"
            )
        super().__init__(space, network, layers, seed=seed, observers=observers)
        # Replace the scalar substreams with vector generators under the
        # same derivation keys.
        self._rngs = {
            layer.name: generator_for(self.seed, "layer", layer.name)
            for layer in layers
        }
        self._engine_rng = generator_for(self.seed, "engine")
        self._act_rows: Optional[np.ndarray] = None
        self._act_rows_key: Optional[tuple] = None
        arrays.reserve_scratch()

    def rng_for(self, layer_name: str) -> np.random.Generator:
        """The dedicated vector-RNG substream of a layer."""
        if layer_name not in self._rngs:
            self._rngs[layer_name] = generator_for(self.seed, "layer", layer_name)
        return self._rngs[layer_name]

    def step(self) -> int:
        self._canonical_synced = False
        return super().step()

    def spawn_node(self, pos, initial_point=None):
        self._canonical_synced = False
        return super().spawn_node(pos, initial_point)

    # -- batch helpers used by the layers ---------------------------------

    def init_all_nodes(self) -> None:
        """Vectorised network-wide initialisation: layers that provide
        ``init_network`` bootstrap all nodes in one shot; the rest fall
        back to per-node ``init_node``."""
        for layer in self.layers:
            init_network = getattr(layer, "init_network", None)
            if init_network is not None:
                init_network(self)
            else:
                for node in self.network.alive_nodes():
                    layer.init_node(self, node)

    def alive_act_rows(self) -> np.ndarray:
        """The sorted table rows of the alive nodes — the round-start
        pack every batch layer grooms and exchanges over.  Liveness only
        changes between rounds (scheduled events run before the first
        layer), so the pack is computed once per round and shared by all
        layers, cached per (round, membership, row numbering) exactly
        like :meth:`detected_mask`.  The returned array is read-only."""
        table = self.network.table
        key = (self.round, self.network.n_alive, self.network.n_total, table._layout)
        if self._act_rows_key != key:
            rows = np.flatnonzero(table.alive_rows())
            rows.setflags(write=False)
            self._act_rows = rows
            self._act_rows_key = key
        return self._act_rows

    def detected_entry_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised failure-detector test over a padded id array of
        any shape; ``-1`` pads report not-detected (they share the
        sentinel row with released ids, which report detected)."""
        out = self.detected_mask(ids)
        out &= ids >= 0
        return out

    def alive_entry_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised liveness test over a padded id array of any shape
        (``-1`` pads and released ids report dead)."""
        return self.network.alive_mask(ids)

    def view_matrix(self):
        """``(rows, ids)`` of :meth:`Simulation.view_matrix`, with
        ``ids`` the topology layer's views read a row block at a time
        (:class:`~repro.sim.batch.topology.ViewIdMatrix`)."""
        topo = next(
            (layer for layer in self.layers if isinstance(layer, _BatchTopologyBase)),
            None,
        )
        if topo is None:
            return super().view_matrix()
        return self.alive_act_rows(), ViewIdMatrix(topo)

    # -- canonical-state bridge -------------------------------------------

    def sync_canonical(self) -> None:
        """Write every gossip layer's view arrays back onto the per-node
        attributes the event engine uses (``rps_view`` dicts,
        ``tman_view`` ViewBuffers, ...).  Placement needs no bridge: both
        engines keep it in :attr:`placement`.

        A one-way bridge: nothing reads the attributes back into the
        arrays.  Idempotent and free of RNG draws, so callers may sync at
        any time — the routing probe before walking views.  Repeat syncs
        with no intervening step are skipped.  The attributes stay attached (and
        go stale at the next step); state fingerprinting does not sync —
        it reads :meth:`canonical_view_ids`.
        """
        if self._canonical_synced:
            return
        for layer in self.layers:
            materialize = getattr(layer, "materialize", None)
            if materialize is not None:
                materialize(self)
        self._canonical_synced = True

    def canonical_view_ids(self, rows: np.ndarray) -> Dict[str, List[List[int]]]:
        """``{attribute: sorted view ids of each table row of rows}`` for
        every layer that states a ``canonical_attr`` — what
        ``sorted(node.<attribute>)`` reads after :meth:`sync_canonical`,
        taken from each layer's padded ids (``ids_rows``); callers pass
        a row block at a time.

        A pure read, which is what lets
        :func:`repro.runtime.checkpoint.state_digest` fingerprint a
        simulation without changing it: nothing is materialised, no
        layer grows (rows one has not allocated read as empty), and a
        duplicated id counts once, as a dict key would.
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
