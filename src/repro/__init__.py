"""repro — a full reproduction of *Polystyrene: the Decentralized Data
Shape That Never Dies* (Bouget, Kermarrec, Kervadec, Taïani — ICDCS
2014).

Polystyrene is an add-on layer over gossip-based topology construction
(T-Man here) that decouples nodes from their positions: positions are
passive *data points* that get replicated, recovered and migrated, so
the overlay's shape survives catastrophic correlated failures that wipe
out a whole region of the topology.

Quick start::

    from repro import ScenarioConfig, run_scenario

    config = ScenarioConfig(width=16, height=8, replication=4,
                            failure_round=10, reinjection_round=40,
                            total_rounds=70)
    result = run_scenario(config)
    print(result.reshaping_time, result.reliability)

The package is organised as:

* :mod:`repro.spaces` — metric spaces (torus, Euclidean, ring, Jaccard)
  plus medoid/diameter utilities;
* :mod:`repro.shapes` — target shape samplers;
* :mod:`repro.sim` — the cycle-driven simulator (PeerSim substitute);
* :mod:`repro.gossip` — peer sampling (Cyclon) and T-Man;
* :mod:`repro.core` — the Polystyrene layer itself;
* :mod:`repro.metrics` — the paper's evaluation metrics;
* :mod:`repro.experiments` — one module per table/figure;
* :mod:`repro.runtime` — parallel sweep execution, simulation
  checkpoint/restore, persistent result store, churn schedules;
* :mod:`repro.analysis`, :mod:`repro.viz` — statistics and text output.
"""

from .core import (
    PolystyreneConfig,
    PolystyreneLayer,
    StaticHolderLayer,
    PointFactory,
    required_replication,
    survival_probability,
)
from .errors import ReproError
from .experiments import (
    ScalePreset,
    ScenarioConfig,
    ScenarioResult,
    get_preset,
    run_comparison,
    run_experiment,
    run_scenario,
)
from .gossip import PeerSamplingLayer, TManLayer
from .metrics import (
    MetricsRecorder,
    homogeneity,
    proximity,
    reference_homogeneity,
    reshaping_time,
    surviving_fraction,
)
from .routing import RouteResult, RoutingQuality, evaluate_routing, greedy_route
from .runtime import (
    ChurnSchedule,
    ExecOptions,
    ParallelRunner,
    ResultStore,
    SimulationCheckpoint,
    SweepTask,
    execute_scenarios,
    restore,
    snapshot,
)
from .shapes import AnnulusShape, DiskShape, LineShape, RingShape, Shape, TorusGrid
from .sim import Network, Simulation
from .spaces import Euclidean, FlatTorus, JaccardSpace, Ring, Space
from .types import Coord, DataPoint, NodeId, PointId

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "PolystyreneConfig",
    "PolystyreneLayer",
    "StaticHolderLayer",
    "PointFactory",
    "required_replication",
    "survival_probability",
    # experiments
    "ScenarioConfig",
    "ScenarioResult",
    "ScalePreset",
    "get_preset",
    "run_scenario",
    "run_comparison",
    "run_experiment",
    # substrates
    "PeerSamplingLayer",
    "TManLayer",
    "Network",
    "Simulation",
    # spaces & shapes
    "Space",
    "Euclidean",
    "FlatTorus",
    "Ring",
    "JaccardSpace",
    "Shape",
    "TorusGrid",
    "RingShape",
    "LineShape",
    "DiskShape",
    "AnnulusShape",
    # routing
    "greedy_route",
    "RouteResult",
    "evaluate_routing",
    "RoutingQuality",
    # runtime
    "ParallelRunner",
    "SweepTask",
    "ResultStore",
    "SimulationCheckpoint",
    "snapshot",
    "restore",
    "ExecOptions",
    "execute_scenarios",
    "ChurnSchedule",
    # metrics
    "MetricsRecorder",
    "homogeneity",
    "proximity",
    "reference_homogeneity",
    "reshaping_time",
    "surviving_fraction",
    # types & errors
    "Coord",
    "DataPoint",
    "NodeId",
    "PointId",
    "ReproError",
]
