"""The benchmark's workloads: what runs, at which size, and why.

A :class:`Workload` is plain data.  The parent (``run.py``) turns it
into a *spec* — a JSON-safe dict holding the generated scenario
configuration — and hands only that spec to a fresh child process, so
the program under test never sees a workload name or the workload seed,
only ``ScenarioConfig`` values.

Sizes are cut from the ISSUE's originals to fit the driver's time cap
(4 + 22 x workloads runs in 3420 s): the grids are kept, the rounds are
cut in every phase, and every workload keeps at least three
fresh-process repeats.
``bench/README.md`` records the cut per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

#: The four scenario metrics (``repro.metrics.collector.ALL_METRICS``),
#: spelled out so the parent never has to import ``repro``.
ALL_METRICS = ("homogeneity", "proximity", "storage", "message_cost")


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    ``kind`` is ``"sim"`` (one scenario stepped round by round; needs
    ``config``) or ``"gate"`` (the claims gate on ``preset``, cold then
    cached).  ``needs_reshaping`` marks the workloads on which a run
    that never reshapes is a failed operation.
    """

    name: str
    kind: str
    why: str
    config: Mapping[str, Any] = field(default_factory=dict)
    preset: Optional[str] = None
    needs_reshaping: bool = False
    #: Fresh-process repeats every run makes, however short ``--seconds``
    #: is; more are added while the budget lasts.
    repeats: int = 3

    def spec(self, seed: int) -> Dict[str, Any]:
        """The child's whole input.  The gate's dataset carries its own
        seeds (its recorded expectation bands belong to them), so the
        workload seed only reaches the simulation workloads."""
        spec: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "needs_reshaping": self.needs_reshaping,
        }
        if self.kind == "sim":
            spec["config"] = dict(self.config, seed=seed, kernel_backend="numpy")
        else:
            spec["preset"] = self.preset
        return spec


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="repair-batch-80x40",
            kind="sim",
            why="Paper's main 80x40 torus on the batch engine, all metrics, "
            "failure then reinjection: topology, protocol and collector "
            "layers all carry weight",
            config=dict(
                engine="batch",
                width=80,
                height=40,
                metrics=ALL_METRICS,
                failure_round=6,
                reinjection_round=32,
                total_rounds=40,
            ),
            needs_reshaping=True,
        ),
        Workload(
            name="scale-batch-160x80",
            kind="sim",
            why="Fig. 10a's 12,800-node grid with no observers: memory- and "
            "kernel-bound, transient merge pads set peak RSS and sys time",
            config=dict(
                engine="batch",
                width=160,
                height=80,
                metrics=(),
                failure_round=2,
                reinjection_round=None,
                total_rounds=7,
            ),
        ),
        Workload(
            name="repair-event-32x16",
            kind="sim",
            why="Event engine on 32x16: bypasses every batch kernel, so a "
            "sim.batch change must not move it while shared layers run scalar",
            config=dict(
                engine="event",
                width=32,
                height=16,
                metrics=ALL_METRICS,
                failure_round=13,
                reinjection_round=33,
                total_rounds=52,
            ),
            needs_reshaping=True,
        ),
        Workload(
            name="gate-smoke-batch",
            kind="gate",
            why="Smoke claims gate, fork mode, cold then cached: 128-node "
            "cells in the fixed-overhead regime where checkpoint, store and "
            "eval take their largest share",
            preset="smoke",
            # Its timed region is one interval, so the lower envelope
            # (run.py::envelope_wall) has only whole repeats to choose from.
            repeats=5,
        ),
    )
}


def nominal_node_rounds(config: Mapping[str, Any]) -> int:
    """Sum over rounds of alive nodes, from the configuration alone.

    Membership only changes at the two scheduled events, so the count is
    exact: the full torus until the failure, the survivors until the
    reinjection, survivors plus reinjected nodes afterwards.  Mirrors
    ``ScenarioConfig.failed_node_count`` / ``_reinjection_positions``.
    """
    width, height = config["width"], config["height"]
    total = config["total_rounds"]
    step = config.get("step", 1.0)
    n = width * height
    failure = config.get("failure_round")
    fraction = config.get("failure_fraction", 0.5)
    if failure is None or fraction <= 0:
        failure, failed = total, 0
    else:
        cut = width * step * fraction
        failed = sum(1 for x in range(width) if x * step < cut) * height
    reinjection = config.get("reinjection_round")
    if reinjection is None:
        reinjection, reinjected = total, 0
    else:
        count = config.get("reinjection_count")
        reinjected = min(failed if count is None else count, n)
    return (
        n * failure
        + (n - failed) * (reinjection - failure)
        + (n - failed + reinjected) * (total - reinjection)
    )
