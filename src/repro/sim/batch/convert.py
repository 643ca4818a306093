"""Cross-engine conversion of live simulations.

A format-2 checkpoint freezes one engine's object graph; these
converters rebuild the *other* engine's layer stack around the same
network, protocol state, pending events, meter and observers.  What
carries over verbatim: membership and positions (the node table),
the message-meter history, the event schedule, scenario handles, and
the retention policy.  Layer state crosses through each batch layer's
``materialize`` / ``adopt`` pair — views and, since placement became
arrays, guests / ghosts / backups too (``sync_canonical`` writes the
per-node objects the event engine runs on, ``adopt_canonical`` reads
them back).  What does not: RNG substreams — the two engines
draw through incompatible generators, so fresh substreams are derived
from ``(seed, layer, "engine-switch", round)``.  A converted
continuation is therefore a valid, deterministic run of the target
engine from the snapshot state, not a bit-level extension of the source
trajectory (which could not exist across a semantics change).

Conversion refuses (``ConfigurationError``) when the snapshot cannot
run under the target engine: object-coordinate spaces (the batch engine
needs fixed-dimension vectors) or a layer stack the converter does not
recognise (custom test layers).
"""

from __future__ import annotations

from ...core.protocol import PolystyreneLayer, StaticHolderLayer
from ...errors import ConfigurationError
from ...gossip.rps import PeerSamplingLayer
from ...gossip.tman import TManLayer
from ...gossip.vicinity import VicinityLayer
from ..engine import Simulation
from .engine import BatchSimulation, generator_for
from .protocol import BatchPolystyrene
from .rps import BatchPeerSampling
from .topology import BatchTMan, BatchVicinity


def _carry_over(src, dst) -> None:
    dst.meter = src.meter
    dst.round = src.round
    dst._events = src._events
    dst.retention_rounds = src.retention_rounds
    handles = getattr(src, "scenario_handles", None)
    if handles is not None:
        dst.scenario_handles = handles


def to_batch(sim: Simulation) -> BatchSimulation:
    """An equivalent :class:`BatchSimulation` over the same state."""
    if isinstance(sim, BatchSimulation):
        return sim
    layers = list(sim.layers)
    if len(layers) != 3 or not isinstance(layers[0], PeerSamplingLayer):
        raise ConfigurationError(
            "unrecognised layer stack "
            f"{[type(layer).__name__ for layer in layers]}; the engine "
            "converter handles the scenario stack (rps + tman/vicinity + "
            "polystyrene/static) only"
        )
    rps_l, topo_l, top_l = layers
    rps = BatchPeerSampling(rps_l.view_size, rps_l.shuffle_length)
    rps.bootstrap_fallbacks = rps_l.bootstrap_fallbacks
    if isinstance(topo_l, VicinityLayer):
        topo: object = BatchVicinity(
            sim.space,
            rps,
            view_size=topo_l.view_size,
            message_size=topo_l.message_size,
            rps_candidates=topo_l.rps_candidates,
            bootstrap_size=topo_l.bootstrap_size,
        )
    elif isinstance(topo_l, TManLayer):
        topo = BatchTMan(
            sim.space,
            rps,
            message_size=topo_l.message_size,
            psi=topo_l.psi,
            view_cap=topo_l.view_cap,
            bootstrap_size=topo_l.bootstrap_size,
        )
    else:
        raise ConfigurationError(
            f"unrecognised topology layer {type(topo_l).__name__}"
        )
    if isinstance(top_l, PolystyreneLayer):
        top: object = BatchPolystyrene(sim.space, top_l.config, rps, topo)
    elif isinstance(top_l, StaticHolderLayer):
        top = StaticHolderLayer()
    else:
        raise ConfigurationError(
            f"unrecognised protocol layer {type(top_l).__name__}"
        )
    out = BatchSimulation(
        sim.space,
        sim.network,
        [rps, topo, top],
        seed=sim.seed,
        observers=sim.observers,
    )
    _carry_over(sim, out)
    out._rngs = {
        layer.name: generator_for(
            sim.seed, "layer", layer.name, "engine-switch", sim.round
        )
        for layer in out.layers
    }
    out._engine_rng = generator_for(
        sim.seed, "engine", "engine-switch", sim.round
    )
    out.adopt_canonical()  # covers every layer, BatchPolystyrene included
    return out


def to_event(sim: Simulation) -> Simulation:
    """An equivalent event-engine :class:`Simulation` over the same
    state (inverse of :func:`to_batch`)."""
    if not isinstance(sim, BatchSimulation):
        return sim
    layers = list(sim.layers)
    if len(layers) != 3 or not isinstance(layers[0], BatchPeerSampling):
        raise ConfigurationError(
            "unrecognised layer stack "
            f"{[type(layer).__name__ for layer in layers]}; the engine "
            "converter handles the scenario stack (rps + tman/vicinity + "
            "polystyrene/static) only"
        )
    sim.sync_canonical()
    sim.network.table.placement_in_arrays = False  # ``node.poly`` again
    rps_l, topo_l, top_l = layers
    rps = PeerSamplingLayer(rps_l.view_size, rps_l.shuffle_length)
    rps.bootstrap_fallbacks = rps_l.bootstrap_fallbacks
    if isinstance(topo_l, BatchVicinity):
        topo: object = VicinityLayer(
            sim.space,
            rps,
            view_size=topo_l.view_size,
            message_size=topo_l.message_size,
            rps_candidates=topo_l.rps_candidates,
            bootstrap_size=topo_l.bootstrap_size,
        )
    elif isinstance(topo_l, BatchTMan):
        topo = TManLayer(
            sim.space,
            rps,
            message_size=topo_l.message_size,
            psi=topo_l.psi,
            view_cap=topo_l.view_cap,
            bootstrap_size=topo_l.bootstrap_size,
        )
    else:
        raise ConfigurationError(
            f"unrecognised topology layer {type(topo_l).__name__}"
        )
    if isinstance(top_l, BatchPolystyrene):
        top: object = PolystyreneLayer(sim.space, top_l.config, rps, topo)
    elif isinstance(top_l, StaticHolderLayer):
        top = StaticHolderLayer()
    else:
        raise ConfigurationError(
            f"unrecognised protocol layer {type(top_l).__name__}"
        )
    out = Simulation(
        sim.space,
        sim.network,
        [rps, topo, top],
        seed=sim.seed,
        observers=sim.observers,
    )
    _carry_over(sim, out)
    from ..rng import spawn

    out._rngs = {
        layer.name: spawn(sim.seed, "layer", layer.name, "engine-switch", sim.round)
        for layer in out.layers
    }
    out._engine_rng = spawn(sim.seed, "engine", "engine-switch", sim.round)
    return out
