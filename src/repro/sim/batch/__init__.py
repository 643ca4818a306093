"""``repro.sim.batch`` — the batch-synchronous vectorised engine.

The second execution engine (``ScenarioConfig.engine = "batch"``): it
advances the whole network one round at a time with array kernels
(:mod:`.kernels` — plain functions, one implementation each) instead of
per-node Python control flow.  Ships as simulation-semantics
version 5: trajectories are *statistically* equivalent to the event
engine (version 4), not bit-identical — see the engine module docstring
for the exact semantic contract and ``tests/test_engine_equivalence``
for the enforced equivalence bands.
"""

from .engine import SEMANTICS_VERSION, BatchSimulation, generator_for
from .protocol import BatchPolystyrene
from .rps import BatchPeerSampling
from .topology import BatchTMan, BatchVicinity

__all__ = [
    "SEMANTICS_VERSION",
    "BatchSimulation",
    "BatchPeerSampling",
    "BatchPolystyrene",
    "BatchTMan",
    "BatchVicinity",
    "generator_for",
]
