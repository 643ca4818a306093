"""Cycle-driven P2P simulator — the reproduction's PeerSim substitute.

Provides the network model (crash-stop nodes, pluggable failure
detectors), the round engine, scheduled failure/reinjection events, the
message-cost meter with the paper's accounting units, and observer
hooks for metrics collection.  The ``reinjection`` event factory is
read from :mod:`repro.sim.reinjection`: no name exported here equals a
submodule's.
"""

from .arrays import NodeTable, ViewStore
from .engine import Layer, Observer, Simulation
from .failures import (
    ChurnProcess,
    fail_nodes,
    half_space_failure,
    random_failure,
    region_failure,
    select_region,
)
from .network import (
    DelayedFailureDetector,
    FailureDetector,
    Network,
    PerfectFailureDetector,
    SimNode,
)
from .observers import AliveCountObserver, CallbackObserver, PositionSnapshotter
from .reinjection import spawn_fresh_nodes
from .rng import derive_seed, sample_without, spawn
from .transport import MessageMeter

__all__ = [
    "Simulation",
    "Layer",
    "Observer",
    "Network",
    "SimNode",
    "NodeTable",
    "ViewStore",
    "FailureDetector",
    "PerfectFailureDetector",
    "DelayedFailureDetector",
    "MessageMeter",
    "ChurnProcess",
    "region_failure",
    "half_space_failure",
    "random_failure",
    "fail_nodes",
    "select_region",
    "spawn_fresh_nodes",
    "CallbackObserver",
    "PositionSnapshotter",
    "AliveCountObserver",
    "derive_seed",
    "spawn",
    "sample_without",
]
