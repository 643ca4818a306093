"""The paper's evaluation scenario (Sec. IV-A), as a reusable runner.

Three phases on a logical torus with one data point per node:

* **Phase 1 — convergence**: T-Man organises the overlay while
  Polystyrene replicates points and watches for failures.
* **Phase 2 — catastrophic failure**: at ``failure_round``, every node
  in one half of the torus (by *original* position) crashes at once.
* **Phase 3 — reinjection**: at ``reinjection_round``, fresh point-less
  nodes are dropped uniformly on a grid parallel to the original one.

The same runner executes the Polystyrene configuration and the plain
T-Man baseline (``protocol="tman"``), and powers every figure and table
of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.config import PolystyreneConfig
from ..core.points import PointFactory
from ..core.protocol import PolystyreneLayer, StaticHolderLayer
from ..errors import ConfigurationError
from ..gossip.rps import PeerSamplingLayer
from ..gossip.tman import TManLayer
from ..gossip.vicinity import VicinityLayer
from ..metrics.collector import ALL_METRICS, MetricsRecorder
from ..metrics.homogeneity import (
    holder_multiplicity,
    homogeneity,
    pack_points,
    surviving_fraction,
)
from ..metrics.proximity import proximity
from ..metrics.reshaping import reference_homogeneity, reshaping_time
from ..obs import series as obs_series
from ..shapes.grid import TorusGrid
from ..sim.engine import Simulation
from ..sim.failures import half_space_failure
from ..sim.network import (
    DelayedFailureDetector,
    Network,
    PerfectFailureDetector,
)
from ..sim.observers import PositionSnapshotter
from ..sim.reinjection import reinjection
from ..types import Coord, DataPoint

PROTOCOLS = ("polystyrene", "tman")
TOPOLOGIES = ("tman", "vicinity")
ENGINES = ("event", "batch")

#: Configuration fields that influence the simulation only at or after
#: ``failure_round``: the failure event's shape, the reinjection phase,
#: the run length, and the failure-detection delay (no node is dead
#: before the failure, so the detector is never consulted earlier).
#: Everything else — including ``split``, which engages whenever a
#: migration pool transiently holds several points during Phase 1 —
#: shapes the pre-failure trajectory and therefore belongs to the
#: *prefix*.  :func:`prefix_scenario` and
#: :func:`repro.runtime.forksweep.plan_fork_sweep` build on this split:
#: two configurations that agree on every non-divergent field evolve
#: bit-identically up to ``failure_round`` and may share a checkpoint.
DIVERGENT_FIELDS = (
    "failure_fraction",
    "reinjection_round",
    "reinjection_count",
    "total_rounds",
    "detector_delay",
    # The retention policy only ever observes dead nodes, and nobody is
    # dead before the failure round.  ``engine`` is deliberately NOT
    # here: it shapes every round, so it belongs to the prefix (a batch
    # cell can only fork from a batch prefix).
    "retention_rounds",
)


@dataclass
class ScenarioConfig:
    """Full parameterisation of one scenario run.

    Defaults follow the paper (Sec. IV-A) at the reduced scale; use
    :meth:`from_preset` to bind the dimensions of a
    :class:`~repro.experiments.presets.ScalePreset`.
    """

    # -- shape ---------------------------------------------------------
    width: int = 32
    height: int = 16
    step: float = 1.0
    # -- execution engine ------------------------------------------------
    #: ``"event"`` — the round-by-round per-node engine
    #: (:class:`repro.sim.engine.Simulation`, semantics version 1);
    #: ``"batch"`` — the batch-synchronous vectorised engine
    #: (:class:`repro.sim.batch.BatchSimulation`, semantics version 2).
    #: Same scenario, statistically equivalent metrics, different
    #: trajectories — see README "Execution engines".
    engine: str = "event"
    #: Vestigial: the batch kernels have one implementation and nothing
    #: reads this.  Kept, accepting ``None`` or ``"numpy"``, only because
    #: the frozen ``bench/`` passes ``kernel_backend="numpy"``; excluded
    #: from config hashes (``store.config_dict``).
    kernel_backend: Optional[str] = None
    # -- protocol under test --------------------------------------------
    protocol: str = "polystyrene"
    #: Which topology construction layer Polystyrene plugs into —
    #: Polystyrene is an add-on over *any* such protocol (Sec. II-C).
    topology: str = "tman"
    replication: int = 4
    split: str = "advanced"
    projection: str = "medoid"
    backup_placement: str = "random"
    incremental_backup: bool = True
    migration_psi: int = 5
    # -- phases ----------------------------------------------------------
    failure_round: Optional[int] = 20
    failure_fraction: float = 0.5
    reinjection_round: Optional[int] = 80
    reinjection_count: Optional[int] = None
    total_rounds: int = 140
    # -- substrates --------------------------------------------------------
    tman_message_size: int = 20
    tman_psi: int = 5
    tman_view_cap: int = 100
    tman_bootstrap: int = 10
    rps_view_size: int = 20
    rps_shuffle_length: int = 10
    detector_delay: int = 0
    #: Forget crashed nodes after this many rounds (``None`` disables):
    #: bounds long-churn memory at the peak population.  Must exceed
    #: ``detector_delay`` by at least 2 so all ghost recoveries have
    #: fired before their origin is forgotten.
    retention_rounds: Optional[int] = None
    # -- instrumentation ----------------------------------------------------
    seed: int = 0
    metrics: Tuple[str, ...] = ALL_METRICS
    snapshot_rounds: Tuple[int, ...] = ()
    k_proximity: int = 4

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.kernel_backend not in (None, "numpy"):
            raise ConfigurationError(
                "selectable kernel backends were removed (the batch "
                "kernels have one implementation); kernel_backend must be "
                f"None or 'numpy', got {self.kernel_backend!r}"
            )
        if self.retention_rounds is not None and (
            self.retention_rounds < self.detector_delay + 2
        ):
            raise ConfigurationError(
                f"retention_rounds={self.retention_rounds} would forget "
                "crashed nodes before every ghost recovery has fired; "
                f"use at least detector_delay + 2 = {self.detector_delay + 2}"
            )
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"the torus needs width >= 1 and height >= 1, got "
                f"{self.width}x{self.height}"
            )
        if self.total_rounds < 1:
            raise ConfigurationError(
                f"total_rounds must be >= 1, got {self.total_rounds}"
            )
        if not 0.0 <= self.failure_fraction <= 1.0:
            raise ConfigurationError("failure_fraction must be in [0, 1]")
        if self.failure_round is not None:
            if self.failure_round < 0:
                raise ConfigurationError(
                    f"failure_round must be >= 0, got {self.failure_round} "
                    "(use failure_round=None for a run without a failure)"
                )
            if self.failure_round >= self.total_rounds:
                raise ConfigurationError("failure_round must precede total_rounds")
            if (
                self.failure_fraction > 0
                and self.failed_node_count() >= self.n_nodes
            ):
                raise ConfigurationError(
                    f"failure_fraction={self.failure_fraction} would crash "
                    f"all {self.n_nodes} nodes at once; every metric is "
                    "undefined on an empty network.  Use a fraction below "
                    f"{(self.width - 1) / self.width:.3f} on this torus, or "
                    "the mass_failure churn schedule for total-loss studies."
                )
        if self.reinjection_round is not None:
            if self.failure_round is not None and (
                self.reinjection_round <= self.failure_round
            ):
                raise ConfigurationError("reinjection must come after the failure")
            if self.reinjection_round >= self.total_rounds:
                raise ConfigurationError(
                    f"reinjection_round={self.reinjection_round} never fires: "
                    f"the run ends at round {self.total_rounds}.  Raise "
                    "total_rounds or set reinjection_round=None."
                )

    @classmethod
    def from_preset(cls, preset, **overrides) -> "ScenarioConfig":
        """Bind the grid size and phase rounds of a scale preset."""
        base = dict(
            width=preset.width,
            height=preset.height,
            failure_round=preset.failure_round,
            reinjection_round=preset.reinjection_round,
            total_rounds=preset.total_rounds,
        )
        base.update(overrides)
        return cls(**base)

    # -- derived quantities --------------------------------------------------

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(self.width, self.height, self.step)

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def failure_cut(self) -> float:
        """x-coordinate threshold of the half-space failure."""
        return self.width * self.step * self.failure_fraction

    def failed_node_count(self) -> int:
        """How many original nodes the failure event will crash."""
        if self.failure_round is None:
            return 0
        cut = self.failure_cut()
        cols = sum(1 for x in range(self.width) if x * self.step < cut)
        return cols * self.height


@dataclass
class ScenarioResult:
    """Everything measured in one scenario run."""

    config: ScenarioConfig
    series: Dict[str, List[float]]
    n_alive: List[int]
    #: Fraction of data points surviving the failure (Table II
    #: "reliability"), measured right after the crash event.
    reliability: Optional[float]
    #: Rounds to re-converge under the post-failure reference
    #: homogeneity (Table II "reshaping time"); None if never reached.
    reshaping_time: Optional[int]
    h_ref_initial: float
    h_ref_after_failure: Optional[float]
    snapshots: Dict[int, List[Coord]]
    points: List[DataPoint]
    message_history: List[Dict[str, float]]
    rps_fallbacks: int

    def final(self, metric: str) -> float:
        return self.series[metric][-1]

    def at_round(self, metric: str, rnd: int) -> float:
        return self.series[metric][rnd]


class ReliabilityProbe:
    """Scheduled right after the failure event in the same round, so it
    sees the post-crash network before any recovery runs.  A picklable
    class (not a closure) so checkpoints taken before the failure round
    can be written to disk."""

    def __init__(self, points: List[DataPoint]) -> None:
        self.points = points
        self.samples: List[float] = []

    def __call__(self, sim: Simulation) -> None:
        self.samples.append(
            surviving_fraction(
                self.points,
                sim.network.alive_nodes(),
                getattr(sim, "placement", None),
            )
        )


def _reinjection_positions(config: ScenarioConfig, count: int) -> List[Coord]:
    """``count`` positions spread uniformly on a grid parallel to the
    original one (offset by half a step on both axes), chosen with an
    even index stride so any count yields a near-uniform covering."""
    parallel = config.grid.parallel(0.5).generate()
    total = len(parallel)
    count = min(count, total)
    if count <= 0:
        return []
    stride = total / count
    return [parallel[int(i * stride)] for i in range(count)]


class SeriesHealthProbe:
    """Observer computing the domain health probes — homogeneity,
    proximity, holder multiplicity — every
    :func:`repro.obs.series.probe_every` rounds and staging them for
    that round's series record (:func:`repro.obs.series.note_probes`).

    Pure reads, no RNG draws, observers are outside ``state_digest`` —
    trajectories and golden digests are unchanged.  Attached by
    :func:`build_simulation` only when series emission is enabled, so
    unobserved runs pay nothing."""

    def __init__(
        self, space, points: List[DataPoint], k_proximity: int = 4
    ) -> None:
        self.space = space
        self.points = points
        self._packed = pack_points(space, points)
        self.k_proximity = k_proximity

    def on_round_end(self, sim) -> None:
        if not obs_series.ENABLED or sim.round % obs_series.probe_every():
            return
        alive = sim.network.alive_nodes()
        if not alive or not self.points:
            return
        placement = getattr(sim, "placement", None)
        probes = {
            "homogeneity": float(
                homogeneity(self.space, self.points, alive, self._packed, placement)
            ),
            "proximity": float(
                proximity(self.space, sim, self.k_proximity)
            ),
        }
        multiplicity = holder_multiplicity(alive, placement)
        if multiplicity is not None:
            probes["holder_multiplicity"] = multiplicity
        obs_series.note_probes(probes)


def build_simulation(
    config: ScenarioConfig,
) -> Tuple[Simulation, MetricsRecorder, PositionSnapshotter, List[DataPoint]]:
    """Construct (but do not run) the full simulation stack for the
    configured execution engine."""
    grid = config.grid
    space = grid.space()
    factory = PointFactory()
    points = factory.create_many(grid.generate())

    detector = (
        DelayedFailureDetector(config.detector_delay)
        if config.detector_delay > 0
        else PerfectFailureDetector()
    )
    network = Network(detector)
    network.reserve(len(points))
    for point in points:
        network.add_node(point.coord, point)

    poly_config = (
        PolystyreneConfig(
            replication=config.replication,
            psi=config.migration_psi,
            split=config.split,
            projection=config.projection,
            backup_placement=config.backup_placement,
            incremental_backup=config.incremental_backup,
        )
        if config.protocol == "polystyrene"
        else None
    )

    # One construction path for both engines: only the classes differ,
    # so a new constructor knob cannot silently reach one engine only.
    if config.engine == "batch":
        from ..sim.batch import (
            BatchPeerSampling,
            BatchPolystyrene,
            BatchSimulation,
            BatchTMan,
            BatchVicinity,
        )

        rps_cls, tman_cls, vicinity_cls, poly_cls, sim_cls = (
            BatchPeerSampling,
            BatchTMan,
            BatchVicinity,
            BatchPolystyrene,
            BatchSimulation,
        )
    else:
        rps_cls, tman_cls, vicinity_cls, poly_cls, sim_cls = (
            PeerSamplingLayer,
            TManLayer,
            VicinityLayer,
            PolystyreneLayer,
            Simulation,
        )
    rps = rps_cls(config.rps_view_size, config.rps_shuffle_length)
    if config.topology == "vicinity":
        tman: object = vicinity_cls(
            space,
            rps,
            message_size=config.tman_message_size,
            bootstrap_size=config.tman_bootstrap,
        )
    else:
        tman = tman_cls(
            space,
            rps,
            message_size=config.tman_message_size,
            psi=config.tman_psi,
            view_cap=config.tman_view_cap,
            bootstrap_size=config.tman_bootstrap,
        )
    if poly_config is not None:
        top: object = poly_cls(space, poly_config, rps, tman)
    else:
        top = StaticHolderLayer()

    recorder = MetricsRecorder(
        space, points, k_proximity=config.k_proximity, metrics=config.metrics
    )
    snapshotter = PositionSnapshotter(config.snapshot_rounds)
    observers: List[object] = [recorder, snapshotter]
    if obs_series.ENABLED:
        observers.append(
            SeriesHealthProbe(space, points, k_proximity=config.k_proximity)
        )
    sim = sim_cls(
        space,
        network,
        layers=[rps, tman, top],
        seed=config.seed,
        observers=observers,
    )
    if config.retention_rounds is not None:
        sim.retention_rounds = config.retention_rounds
    sim.init_all_nodes()
    return sim, recorder, snapshotter, points


@dataclass
class ScenarioHandles:
    """The observers a scenario summary needs, kept reachable *from the
    simulation object itself* (``sim.scenario_handles``) so that a
    checkpoint (one pickle of the simulation) carries them along: after
    :func:`repro.runtime.checkpoint.restore` the copied handles still
    point at the copied simulation's recorder/probe (one shared object
    graph), and the reliability sample stays reachable even after the
    failure event has fired and been popped from the schedule."""

    config: ScenarioConfig
    recorder: MetricsRecorder
    snapshotter: PositionSnapshotter
    points: List[DataPoint]
    probe: ReliabilityProbe


def prepare_scenario(
    config: ScenarioConfig,
) -> Tuple[Simulation, MetricsRecorder, PositionSnapshotter, List[DataPoint], ReliabilityProbe]:
    """Build the simulation and schedule all three phases, but do not
    run.  The seam the runtime layer uses to pause/checkpoint/resume a
    scenario mid-flight: step the returned simulation any way you like,
    then hand everything to :func:`summarize_scenario` — or, for a
    simulation that went through checkpoint restore (a fresh object
    graph, which severs the returned handles), just call
    :func:`finish_scenario` on the restored simulation."""
    sim, recorder, snapshotter, points = build_simulation(config)
    probe = ReliabilityProbe(points)
    _schedule_phases(sim, config, probe)
    sim.scenario_handles = ScenarioHandles(
        config, recorder, snapshotter, points, probe
    )
    return sim, recorder, snapshotter, points, probe


def _schedule_phases(
    sim: Simulation, config: ScenarioConfig, probe: ReliabilityProbe
) -> None:
    """Register the failure and reinjection events of ``config``.

    Insertion order (failure, probe, reinjection) fixes the intra-round
    firing order, so scheduling at preparation time and scheduling at a
    fork point are indistinguishable."""
    if config.failure_round is not None and config.failure_fraction > 0:
        sim.schedule(
            config.failure_round, half_space_failure(0, config.failure_cut())
        )
        sim.schedule(config.failure_round, probe)

    if config.reinjection_round is not None:
        count = config.reinjection_count
        if count is None:
            count = config.failed_node_count()
        positions = _reinjection_positions(config, count)
        if positions:
            sim.schedule(config.reinjection_round, reinjection(positions))


def finish_scenario(sim: Simulation) -> ScenarioResult:
    """Run a prepared (possibly checkpoint-restored) scenario simulation
    to its configured end and summarise it.

    Works on any simulation that came out of :func:`prepare_scenario`,
    including one round-tripped through
    :func:`repro.runtime.checkpoint.save`/``load``/``restore`` — the
    handles travel inside the checkpoint, so the result is identical to
    an uninterrupted :func:`run_scenario`."""
    handles: Optional[ScenarioHandles] = getattr(sim, "scenario_handles", None)
    if handles is None:
        raise ConfigurationError(
            "simulation has no scenario handles; build it with "
            "prepare_scenario(), not build_simulation()"
        )
    remaining = handles.config.total_rounds - sim.round
    if remaining > 0:
        sim.run(remaining)
    return summarize_scenario(
        handles.config,
        sim,
        handles.recorder,
        handles.snapshotter,
        handles.points,
        handles.probe,
    )


def summarize_scenario(
    config: ScenarioConfig,
    sim: Simulation,
    recorder: MetricsRecorder,
    snapshotter: PositionSnapshotter,
    points: List[DataPoint],
    probe: ReliabilityProbe,
) -> ScenarioResult:
    """Package a completed (fully-run) scenario simulation."""
    grid = config.grid
    h_ref_initial = reference_homogeneity(grid.area, config.n_nodes)
    h_ref_after: Optional[float] = None
    reshape: Optional[int] = None
    if config.failure_round is not None and config.failure_fraction > 0:
        survivors = config.n_nodes - config.failed_node_count()
        if survivors > 0:
            h_ref_after = reference_homogeneity(grid.area, survivors)
            if "homogeneity" in recorder.series:
                # Only the window before reinjection counts: fresh nodes
                # covering the hole is not *reshaping* by the survivors.
                series = recorder.series["homogeneity"]
                if config.reinjection_round is not None:
                    series = series[: config.reinjection_round]
                reshape = reshaping_time(
                    series, config.failure_round, h_ref_after
                )

    rps_layer = sim.layers[0]
    return ScenarioResult(
        config=config,
        series=recorder.series,
        n_alive=recorder.n_alive,
        reliability=probe.samples[0] if probe.samples else None,
        reshaping_time=reshape,
        h_ref_initial=h_ref_initial,
        h_ref_after_failure=h_ref_after,
        snapshots=snapshotter.snapshots,
        points=points,
        message_history=sim.meter.history,
        rps_fallbacks=getattr(rps_layer, "bootstrap_fallbacks", 0),
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, schedule the phases, run to completion, and summarise."""
    sim, recorder, snapshotter, points, probe = prepare_scenario(config)
    sim.run(config.total_rounds - sim.round)
    return summarize_scenario(config, sim, recorder, snapshotter, points, probe)


# -- prefix/divergence split (phase-fork sweeps) ----------------------------


def fork_round(config: ScenarioConfig) -> Optional[int]:
    """The round at which ``config`` diverges from its shared prefix —
    the failure round — or ``None`` when the scenario has no usable fork
    point (no failure, or a failure at round 0, which leaves no Phase 1
    to share)."""
    if config.failure_round is None or config.failure_round <= 0:
        return None
    return config.failure_round


def prefix_scenario(config: ScenarioConfig) -> Optional[ScenarioConfig]:
    """The canonical pre-failure projection of ``config``.

    Every :data:`DIVERGENT_FIELDS` entry is neutralised (no failure
    event, no reinjection, zero detector delay, minimal run length), so
    two configurations agree on their prefix exactly when their
    simulations are bit-identical up to :func:`fork_round`.  The prefix
    is itself a valid :class:`ScenarioConfig`: preparing it schedules
    *no* events, and running it for ``failure_round`` rounds produces
    precisely the state an uninterrupted run of ``config`` has when its
    failure is about to fire.  Returns ``None`` for unforkable configs.
    """
    rnd = fork_round(config)
    if rnd is None:
        return None
    return replace(
        config,
        failure_fraction=0.0,
        reinjection_round=None,
        reinjection_count=None,
        total_rounds=rnd + 1,
        detector_delay=0,
        retention_rounds=None,
    )


def run_prefix(config: ScenarioConfig) -> Simulation:
    """Simulate the shared prefix of ``config`` up to its fork round.

    The returned simulation carries its :class:`ScenarioHandles`, so a
    checkpoint of it can later be turned into any divergent continuation
    via :func:`apply_divergence` + :func:`finish_scenario`."""
    prefix = prefix_scenario(config)
    if prefix is None:
        raise ConfigurationError(
            "scenario has no fork point (failure_round is None or 0); "
            "run it cold with run_scenario()"
        )
    sim, *_ = prepare_scenario(prefix)
    sim.run(fork_round(config))
    return sim


def apply_divergence(sim: Simulation, config: ScenarioConfig) -> Simulation:
    """Turn a restored prefix simulation into ``config``'s continuation.

    ``sim`` must be (a restore of a checkpoint of) the prefix of
    ``config`` paused exactly at the fork round.  The divergent fields
    are re-applied the same way :func:`prepare_scenario` would have:
    the failure detector is swapped (it was never consulted — nobody is
    dead before the fork), the scenario handles are re-pointed at the
    full configuration, and the phase events are scheduled in the same
    intra-round order.  ``finish_scenario(sim)`` afterwards yields a
    result byte-identical to ``run_scenario(config)``."""
    handles: Optional[ScenarioHandles] = getattr(sim, "scenario_handles", None)
    if handles is None:
        raise ConfigurationError(
            "simulation has no scenario handles; prefix checkpoints must "
            "come from run_prefix()/prepare_scenario()"
        )
    expected = fork_round(config)
    if expected is None:
        raise ConfigurationError(
            "config has no fork point; it cannot continue a prefix"
        )
    if sim.round != expected:
        raise ConfigurationError(
            f"prefix is paused at round {sim.round} but the configuration "
            f"forks at round {expected}"
        )
    if prefix_scenario(config) != prefix_scenario(handles.config):
        raise ConfigurationError(
            "prefix/configuration mismatch: the checkpointed prefix was "
            "simulated under different pre-failure parameters"
        )
    sim.network.detector = (
        DelayedFailureDetector(config.detector_delay)
        if config.detector_delay > 0
        else PerfectFailureDetector()
    )
    sim.retention_rounds = config.retention_rounds
    handles.config = config
    _schedule_phases(sim, config, handles.probe)
    return sim
