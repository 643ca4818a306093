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
  plus the medoid;
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

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Public names by the submodule they come from, imported on first
# access (PEP 562): ``import repro.sim`` does not pay for the runtime,
# the claims gate or the figure registry.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".core": (
            "PolystyreneConfig",
            "PolystyreneLayer",
            "StaticHolderLayer",
            "PointFactory",
            "required_replication",
            "survival_probability",
        ),
        ".experiments.scenario": ("ScenarioConfig", "ScenarioResult", "run_scenario"),
        ".experiments.presets": ("ScalePreset", "get_preset"),
        ".experiments.suite": ("run_comparison",),
        ".experiments.registry": ("run_experiment",),
        ".gossip": ("PeerSamplingLayer", "TManLayer"),
        ".sim": ("Network", "Simulation"),
        ".spaces": ("Space", "Euclidean", "FlatTorus", "Ring", "JaccardSpace"),
        ".shapes": (
            "Shape",
            "TorusGrid",
            "RingShape",
            "LineShape",
            "DiskShape",
            "AnnulusShape",
        ),
        ".routing": ("greedy_route", "RouteResult", "evaluate_routing", "RoutingQuality"),
        ".runtime.runner": ("ParallelRunner", "SweepTask"),
        ".runtime.store": ("ResultStore",),
        ".runtime.checkpoint": ("SimulationCheckpoint", "snapshot", "restore"),
        ".runtime.dispatch": ("ExecOptions", "execute_scenarios"),
        ".runtime.scenarios": ("ChurnSchedule",),
        ".metrics": (
            "MetricsRecorder",
            "homogeneity",
            "proximity",
            "reference_homogeneity",
            "reshaping_time",
            "surviving_fraction",
        ),
        ".types": ("Coord", "DataPoint", "NodeId", "PointId"),
        ".errors": ("ReproError",),
    },
)
__all__.insert(0, "__version__")
