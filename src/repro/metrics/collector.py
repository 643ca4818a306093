"""Per-round metrics collection, as a simulation observer."""

from __future__ import annotations

import csv
from typing import Dict, List, Sequence, Tuple

from ..sim.engine import Simulation
from ..spaces.base import Space
from ..types import DataPoint
from .homogeneity import homogeneity, pack_points
from .messages import DEFAULT_EXCLUDE, per_node_cost
from .proximity import proximity
from .storage import average_storage

#: Metrics the recorder knows how to compute each round.
ALL_METRICS = ("homogeneity", "proximity", "storage", "message_cost")


class MetricsRecorder:
    """Observer computing the paper's four time-series every round.

    ``series`` maps a metric name to its per-round list; index ``r``
    holds the value measured at the end of round ``r``.  ``n_alive`` is
    always recorded.
    """

    def __init__(
        self,
        space: Space,
        points: Sequence[DataPoint],
        k_proximity: int = 4,
        metrics: Sequence[str] = ALL_METRICS,
        exclude_layers: Tuple[str, ...] = DEFAULT_EXCLUDE,
    ) -> None:
        unknown = set(metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        self.space = space
        self.points = list(points)
        self._packed = pack_points(space, self.points)
        self.k_proximity = k_proximity
        self.metrics = tuple(metrics)
        self.exclude_layers = exclude_layers
        self.series: Dict[str, List[float]] = {name: [] for name in self.metrics}
        self.n_alive: List[int] = []

    def on_round_end(self, sim: Simulation) -> None:
        alive = sim.network.alive_nodes()
        # A batch simulation's placement is arrays, not ``node.poly``.
        placement = getattr(sim, "placement", None)
        self.n_alive.append(len(alive))
        if "homogeneity" in self.series:
            self.series["homogeneity"].append(
                homogeneity(self.space, self.points, alive, self._packed, placement)
            )
        if "proximity" in self.series:
            self.series["proximity"].append(
                proximity(self.space, sim, self.k_proximity)
            )
        if "storage" in self.series:
            self.series["storage"].append(average_storage(alive, placement))
        if "message_cost" in self.series:
            snapshot = sim.meter.history[-1] if sim.meter.history else {}
            self.series["message_cost"].append(
                per_node_cost(snapshot, len(alive), self.exclude_layers)
            )

    # -- export ------------------------------------------------------------

    def rows(self) -> List[List[float]]:
        """One row per round: ``[round, n_alive, metric...]``."""
        n_rounds = len(self.n_alive)
        out = []
        for rnd in range(n_rounds):
            row: List[float] = [rnd, self.n_alive[rnd]]
            row.extend(self.series[name][rnd] for name in self.metrics)
            out.append(row)
        return out

    def header(self) -> List[str]:
        return ["round", "n_alive", *self.metrics]

    def write_csv(self, path: str) -> None:
        """Dump the recorded series as CSV (one row per round)."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.header())
            writer.writerows(self.rows())
