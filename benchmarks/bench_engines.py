"""Batch engine vs event engine on the largest reduced Fig. 10a cell.

The batch-synchronous engine (``ScenarioConfig.engine="batch"``,
semantics version 2) exists to push past the event engine's per-node
Python floor.  This benchmark runs the ISSUE's reference workload — the
largest reduced Fig. 10a cell (48×24 torus, SPLIT_ADVANCED, failure at
round 20, 81 rounds, single process) — under both engines at K ∈ {4, 8}
and asserts:

* the batch engine is at least 4x faster on every cell (the
  receiver-bucketed kernels put the recorded trajectory near 7x on the
  1-CPU container; 4x is the regression floor for noisy shared
  runners — the sharper 6x K=4 gate lives in
  ``perf_smoke.py --engine-gate``);
* both engines converge (finite reshaping time) and agree on
  reliability to within a few points — the cheap single-seed sanity
  slice of the full equivalence suite in
  ``tests/test_engine_equivalence.py``.

An extra untimed K=4 batch run with span tracing enabled records the
per-kernel calls and seconds (the ``kernel.*`` span totals) into the
emitted record, so the session summary carries the kernel-level perf
numbers alongside the engine walls.
"""

from __future__ import annotations

import os
import time

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.obs import trace as obs_trace

#: Regression floor asserted here; the measured numbers land in
#: benchmarks/results/engines.json and benchmarks/results/session.json.
MIN_SPEEDUP = 4.0

CELL = dict(
    width=48,
    height=24,
    protocol="polystyrene",
    split="advanced",
    seed=0,
    failure_round=20,
    reinjection_round=None,
    total_rounds=81,
    metrics=("homogeneity",),
)


def _run(engine: str, replication: int):
    config = ScenarioConfig(engine=engine, replication=replication, **CELL)
    t0 = time.perf_counter()
    result = run_scenario(config)
    return time.perf_counter() - t0, result


def _kernel_totals(replication: int = 4):
    """Per-kernel calls and seconds of one batch cell: an untimed extra
    run with span tracing switched on (the timed runs above stay
    uninstrumented; the spans themselves go to the null device)."""
    obs_trace.reset_totals()
    obs_trace.set_spans_path(os.devnull)
    obs_trace.set_enabled(True)
    try:
        _run("batch", replication)
        totals = obs_trace.totals()
    finally:
        obs_trace.set_enabled(False)
        obs_trace.flush()
        obs_trace.set_spans_path(None)
        obs_trace.reset_totals()
    return {
        name: {"calls": calls, "s": secs}
        for name, (calls, secs) in totals.items()
        if name.startswith("kernel.")
    }


def test_batch_vs_event_largest_fig10a_cell(benchmark, emit):
    rows = []
    cells = {}

    def run_all():
        for k in (4, 8):
            batch_s, batch = _run("batch", k)
            event_s, event = _run("event", k)
            cells[k] = {
                "event_wall_s": round(event_s, 3),
                "batch_wall_s": round(batch_s, 3),
                "speedup": round(event_s / batch_s, 2),
                "event_reshaping": event.reshaping_time,
                "batch_reshaping": batch.reshaping_time,
                "event_reliability": event.reliability,
                "batch_reliability": batch.reliability,
            }
            rows.append((k, cells[k]))
        return cells

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    kernel_totals = _kernel_totals()

    lines = [
        "Engine comparison — largest reduced fig10a cell "
        "(48x24, SPLIT_ADVANCED, failure@20, 81 rounds, 1 process)"
    ]
    for k, cell in rows:
        lines.append(
            f"  K={k}: event {cell['event_wall_s']:.2f}s, batch "
            f"{cell['batch_wall_s']:.2f}s -> {cell['speedup']:.2f}x "
            f"(reshaping {cell['event_reshaping']} vs "
            f"{cell['batch_reshaping']}, reliability "
            f"{cell['event_reliability']:.3f} vs "
            f"{cell['batch_reliability']:.3f})"
        )
    if kernel_totals:
        lines.append("  per-kernel wall (K=4 batch cell, traced run):")
        for name in sorted(kernel_totals):
            k = kernel_totals[name]
            lines.append(f"    {name}: {k['calls']} calls, {k['s']:.3f}s")
    report = "\n".join(lines)
    emit(
        "engines",
        report,
        data={
            "cells": cells,
            "min_speedup": MIN_SPEEDUP,
            "kernel_totals": kernel_totals,
        },
        engine="mixed",
    )

    for k, cell in rows:
        assert cell["speedup"] >= MIN_SPEEDUP, (k, cell)
        assert cell["event_reshaping"] is not None, (k, cell)
        assert cell["batch_reshaping"] is not None, (k, cell)
        assert abs(cell["event_reliability"] - cell["batch_reliability"]) < 0.05
