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

from typing import Sequence

import numpy as np

from ...errors import ConfigurationError
from ...spaces.base import Space
from .. import arrays
from ..engine import Layer, Observer, Simulation
from ..network import Network
from ..rng import derive_seed

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
        arrays.reserve_scratch()

    def rng_for(self, layer_name: str) -> np.random.Generator:
        """The dedicated vector-RNG substream of a layer."""
        if layer_name not in self._rngs:
            self._rngs[layer_name] = generator_for(self.seed, "layer", layer_name)
        return self._rngs[layer_name]

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

    def detected_entry_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised failure-detector test over a padded id array of
        any shape; ``-1`` pads report not-detected (they share the
        sentinel row with reclaimed ids, which report detected)."""
        out = self.detected_mask(ids)
        out &= ids >= 0
        return out

    def alive_entry_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised liveness test over a padded id array of any shape
        (``-1`` pads and reclaimed ids report dead)."""
        return self.network.alive_mask(ids)
