"""Gossip substrates: random peer sampling (Cyclon) and T-Man.

These are the two lower layers of the paper's architecture (Fig. 3).
They are self-contained and usable without Polystyrene — running T-Man
alone over RPS is exactly the paper's baseline configuration.
"""

from .aggregation import AggregationLayer, SizeEstimator
from .rps import PeerSamplingLayer
from .tman import TManLayer
from .vicinity import VicinityLayer

__all__ = [
    "PeerSamplingLayer",
    "TManLayer",
    "VicinityLayer",
    "AggregationLayer",
    "SizeEstimator",
]
