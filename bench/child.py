"""One repeat of one workload, in a fresh process.

``run.py`` starts this file once per repeat with the workload *spec*
(see :meth:`workloads.Workload.spec`) and reads the JSON record printed
on the last line of standard output.  Everything timed here is timed
from outside the program: ``perf_counter`` around public calls, and —
in the traced repeat only — the shims of :mod:`spans`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from workloads import nominal_node_rounds

#: Fully-cached gate passes timed per repeat (``eval.cached_ms`` samples).
CACHED_PASSES = 20
#: Table II floor: a run losing more points than this failed.
MIN_RELIABILITY = 0.93

#: ``sim.meter`` layer name -> metric prefix, per engine.
LAYER_PREFIX = {
    "batch": {
        "rps": "sim.batch.rps",
        "tman": "sim.batch.topology",
        "polystyrene": "sim.batch.protocol",
    },
    "event": {
        "rps": "gossip.rps",
        "tman": "gossip.tman",
        "polystyrene": "core.protocol",
    },
}
KERNELS = (
    "merge_rank_truncate",
    "dedup_priority_truncate",
    "row_rank_sq",
    "topk_smallest",
    "radix_argsort",
)
CHECKPOINT_CALLS = {
    "snapshot": "snapshot",
    "restore": "restore",
    "save": "save",
    "load": "load",
    "state_digest": "digest",
}
COLLECTOR_METRICS = ("homogeneity", "proximity", "average_storage", "per_node_cost")


def install_shims(tracer) -> None:
    """Wrap the public entry points of every layer (traced repeat only).

    Class attributes and module globals are replaced, never instances,
    so pickled checkpoints and ``state_digest`` see the same objects as
    an untraced run."""
    import numpy as np

    from repro.core.protocol import PolystyreneLayer
    from repro.eval import runner as eval_runner
    from repro.gossip.rps import PeerSamplingLayer
    from repro.gossip.tman import TManLayer
    from repro.metrics import collector
    from repro.runtime import checkpoint, forksweep
    from repro.runtime.store import ResultStore
    from repro.sim.batch import (
        BatchPeerSampling,
        BatchPolystyrene,
        BatchTMan,
        kernels,
        split,
    )
    from repro.sim.engine import Simulation
    from repro.sim.observers import PositionSnapshotter
    from repro.sim.transport import MessageMeter

    tracer.shim(Simulation, "step", "engine.round", args=lambda sim: {"round": sim.round})
    for cls, prefix in (
        (BatchPeerSampling, "sim.batch.rps"),
        (BatchTMan, "sim.batch.topology"),
        (BatchPolystyrene, "sim.batch.protocol"),
        (PeerSamplingLayer, "gossip.rps"),
        (TManLayer, "gossip.tman"),
        (PolystyreneLayer, "core.protocol"),
    ):
        tracer.shim(cls, "step", f"{prefix}.step")
    tracer.shim(
        MessageMeter,
        "end_round",
        "sim.transport.end_round",
        result_args=lambda snapshot: {"msgs": dict(snapshot)},
    )

    tracer.shim(collector.MetricsRecorder, "on_round_end", "sim.observers.recorder")
    tracer.shim(PositionSnapshotter, "on_round_end", "sim.observers.snapshotter")
    for fn in COLLECTOR_METRICS:
        tracer.shim(collector, fn, f"metrics.collector.{fn}")

    def array_bytes(*args, **kwargs) -> Dict[str, Any]:
        values = (*args, *kwargs.values())
        return {"in_bytes": sum(v.nbytes for v in values if isinstance(v, np.ndarray))}

    for fn in KERNELS:
        tracer.shim(kernels, fn, f"sim.batch.kernels.{fn}", args=array_bytes)
    tracer.shim(split, "batch_split", "sim.batch.split.batch_split", args=array_bytes)

    for fn in CHECKPOINT_CALLS:
        tracer.shim(checkpoint, fn, f"runtime.checkpoint.{fn}")
    tracer.shim(forksweep, "run_prefix", "runtime.forksweep.prefix")
    tracer.shim(forksweep, "finish_scenario", "runtime.forksweep.continue")
    tracer.shim(forksweep, "run_scenario", "runtime.forksweep.cold")
    for method in ("open_run", "append_record", "append_cell"):
        tracer.shim(ResultStore, method, "runtime.store.append")
    tracer.shim(ResultStore, "records", "runtime.store.read")
    tracer.shim(eval_runner, "execute_scenarios", "eval.runner.execute")


def layer_metrics(tracer, engine: str, failure: float, reinjection: float) -> Dict[str, float]:
    """Per-layer numbers of the traced repeat, from its spans."""
    from spans import ARGS, END, NAME, START

    out: Dict[str, float] = {}
    rounds = sorted(s[END] - s[START] for s in tracer.named("engine.round"))
    round_s = sum(rounds)

    def phase_of(span) -> Optional[str]:
        rnd_span = span if span[NAME] == "engine.round" else tracer.ancestor(span, "engine.round")
        if rnd_span is None:
            return None
        rnd = rnd_span[ARGS]["round"]
        return "converge" if rnd < failure else "repair" if rnd < reinjection else "reinject"

    phases = {"converge": 0.0, "repair": 0.0, "reinject": 0.0}
    for span in tracer.named("engine.round"):
        phases[phase_of(span)] += span[END] - span[START]
    for phase, seconds in phases.items():
        out[f"phase.{phase}_s"] = seconds

    msgs: Dict[str, float] = {}
    for span in tracer.named("sim.transport.end_round"):
        for layer, units in span[ARGS]["msgs"].items():
            msgs[layer] = msgs.get(layer, 0.0) + units

    stepped = 0.0
    for layer, prefix in LAYER_PREFIX[engine].items():
        by_phase = {"repair": 0.0, "reinject": 0.0}
        for span in tracer.named(f"{prefix}.step"):
            phase = phase_of(span)
            if phase in by_phase:
                by_phase[phase] += span[END] - span[START]
        step_s = tracer.total(f"{prefix}.step")
        stepped += step_s
        out[f"{prefix}.step_s"] = step_s
        out[f"{prefix}.share"] = step_s / round_s if round_s else 0.0
        out[f"{prefix}.repair_s"] = by_phase["repair"]
        out[f"{prefix}.reinject_s"] = by_phase["reinject"]
        out[f"{prefix}.msgs"] = msgs.get(layer, 0.0)

    observed = tracer.total("sim.observers.recorder") + tracer.total(
        "sim.observers.snapshotter"
    )
    collected = sum(tracer.total(f"metrics.collector.{fn}") for fn in COLLECTOR_METRICS)
    out["engine.rounds"] = len(rounds)
    out["engine.round_ms_p50"] = statistics.median(rounds) * 1e3 if rounds else 0.0
    out["engine.round_ms_max"] = rounds[-1] * 1e3 if rounds else 0.0
    out["engine.self_s"] = round_s - stepped - observed
    out["metrics.collector.observe_s"] = collected
    out["metrics.collector.share"] = collected / round_s if round_s else 0.0

    # Groups below are emitted only when the workload entered the layer
    # (the parent reads a missing per-layer metric as 0).
    for name in [f"sim.batch.kernels.{fn}" for fn in KERNELS] + ["sim.batch.split.batch_split"]:
        if tracer.count(name):
            out[f"{name}.calls"] = tracer.count(name)
            out[f"{name}.s"] = tracer.total(name)
            out[f"{name}.in_mb"] = sum(s[ARGS]["in_bytes"] for s in tracer.named(name)) / 1e6

    checkpoint_calls = sum(tracer.count(f"runtime.checkpoint.{fn}") for fn in CHECKPOINT_CALLS)
    if checkpoint_calls:
        for fn, short in CHECKPOINT_CALLS.items():
            out[f"runtime.checkpoint.{short}_s"] = tracer.total(f"runtime.checkpoint.{fn}")
        out["runtime.checkpoint.calls"] = checkpoint_calls
    if tracer.count("eval.runner.execute"):
        out["runtime.forksweep.prefix_s"] = tracer.total("runtime.forksweep.prefix")
        out["runtime.forksweep.continue_s"] = tracer.total("runtime.forksweep.continue")
        out["runtime.forksweep.prefixes"] = tracer.count("runtime.forksweep.prefix")
        out["runtime.forksweep.cells_forked"] = tracer.count("runtime.forksweep.continue")
        out["runtime.forksweep.cells_cold"] = tracer.count("runtime.forksweep.cold")
        # "Plan" is what run_cases does itself: expanding cases, hashing
        # configurations, indexing the store — its span minus its children.
        out["eval.runner.plan_s"] = tracer.self_times()["eval.runner.run_cases"]
        out["eval.scorers.score_s"] = tracer.total("eval.scorers.score_run")
        out["runtime.store.append_s"] = tracer.total("runtime.store.append")
        out["runtime.store.read_s"] = tracer.total("runtime.store.read")
        out["runtime.store.records"] = tracer.count("runtime.store.append")
    out["trace.spans"] = len(tracer.spans)
    return out


def usage() -> Dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "peak_rss_mb": ru.ru_maxrss / 1024.0,  # Linux reports KiB
        "cpu_user_s": ru.ru_utime,
        "cpu_sys_s": ru.ru_stime,
    }


def run_sim(spec, t0: float, tracer, want_digest: bool) -> Dict[str, Any]:
    t_import = perf_counter()
    from repro.experiments.scenario import (
        ScenarioConfig,
        prepare_scenario,
        summarize_scenario,
    )
    from repro.runtime.checkpoint import state_digest
    from repro.sim.engine import semantics_version_for

    import_s = perf_counter() - t_import
    if tracer is not None:
        install_shims(tracer)

    kwargs = dict(spec["config"], metrics=tuple(spec["config"]["metrics"]))
    config = ScenarioConfig(**kwargs)
    t_prepare = perf_counter()
    sim, recorder, snapshotter, points, probe = prepare_scenario(config)
    prepare_s = perf_counter() - t_prepare
    setup_s = time.time() - t0

    # -- timed region: every round, nothing else -------------------------
    repeat_span = tracer.begin("repeat", {"workload": spec["name"]}) if tracer else None
    round_s: List[float] = []
    node_rounds = 0
    for _ in range(config.total_rounds):
        start = perf_counter()
        sim.step()
        round_s.append(perf_counter() - start)
        node_rounds += sim.network.n_alive
    used = usage()
    if tracer:
        tracer.end(repeat_span)

    t_summary = perf_counter()
    result = summarize_scenario(config, sim, recorder, snapshotter, points, probe)
    summarize_s = perf_counter() - t_summary

    failures: List[str] = []
    if result.reliability is None or result.reliability < MIN_RELIABILITY:
        failures.append(f"reliability {result.reliability} < {MIN_RELIABILITY}")
    if spec["needs_reshaping"] and result.reshaping_time is None:
        failures.append("never reshaped (reshaping_time is None)")
    if node_rounds != nominal_node_rounds(spec["config"]):
        failures.append(f"node_rounds {node_rounds} != nominal")

    engine = config.engine
    prefixes = LAYER_PREFIX[engine]
    msgs: Dict[str, float] = {}
    for snapshot in sim.meter.history:
        for layer, units in snapshot.items():
            key = f"{prefixes.get(layer, layer)}.msgs"
            msgs[key] = msgs.get(key, 0.0) + units

    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "round_s": round_s,
        "node_rounds": node_rounds,
        "peak_rss_mb": used["peak_rss_mb"],
        "reliability": result.reliability,
        "reshaping_rounds": result.reshaping_time,
        "semantics_version": semantics_version_for(engine),
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "msgs": msgs,
        "layers": {
            "proc.import_s": import_s,
            "proc.cpu_user_s": used["cpu_user_s"],
            "proc.cpu_sys_s": used["cpu_sys_s"],
            "scenario.prepare_s": prepare_s,
            "scenario.summarize_s": summarize_s,
            "scenario.reshaping_rounds": result.reshaping_time or 0,
            "engine.node_rounds": node_rounds,
        },
    }
    if tracer is not None:
        tracer.active = False
        record["layers"].update(
            layer_metrics(
                tracer,
                engine,
                math.inf if config.failure_round is None else config.failure_round,
                math.inf if config.reinjection_round is None else config.reinjection_round,
            )
        )
    record["digest"] = state_digest(sim) if want_digest else None
    return record


def run_gate(spec, t0: float, workdir: Path, tracer) -> Dict[str, Any]:
    t_import = perf_counter()
    from repro.eval import claim_cases, run_cases, score_run
    from repro.eval import report as eval_report
    from repro.eval import runner as eval_runner
    from repro.experiments.presets import get_preset
    from repro.runtime.store import ResultStore, config_hash, summary_digest
    from repro.sim.engine import semantics_version_for

    import_s = perf_counter() - t_import
    if tracer is not None:
        install_shims(tracer)
        # The bench calls these two itself, so their spans are shims on
        # the names it calls them by.
        tracer.shim(eval_runner, "run_cases", "eval.runner.run_cases")
        tracer.shim(eval_report, "score_run", "eval.scorers.score_run")
        run_cases, score_run = eval_runner.run_cases, eval_report.score_run

    os.environ["REPRO_CHECKPOINT_DIR"] = str(workdir / "checkpoints")
    t_prepare = perf_counter()
    cases = claim_cases(spec["preset"], include_equivalence=False)
    store = ResultStore(workdir / "store.jsonl")
    prepare_s = perf_counter() - t_prepare
    setup_s = time.time() - t0

    def gate_pass(name: str):
        sid = tracer.begin(name) if tracer is not None else None
        try:
            data = run_cases(cases, store, engine="batch", fork=True)
            return data, score_run(cases, data)
        finally:
            if sid is not None:
                tracer.end(sid)

    # -- timed region: the cold gate --------------------------------------
    start = perf_counter()
    data, scores = gate_pass("gate.cold")
    wall_s = perf_counter() - start
    used = usage()

    cached_ms: List[float] = []
    cached_ok = True
    for _ in range(CACHED_PASSES):
        start = perf_counter()
        again, rescored = gate_pass("gate.cached")
        cached_ms.append((perf_counter() - start) * 1e3)
        cached_ok = cached_ok and again.executed == 0 and (
            [s.status for s in rescored] == [s.status for s in scores]
        )

    planned = {
        config_hash(config)
        for case, engine in eval_runner.case_plan(cases, "batch")
        for _, config in case.configs(engine)
    }
    cells = store.cells(status="ok")
    failures = [f"execution error: {error}" for error in data.run_errors]
    failures += [
        f"claim {s.case_id} {s.status}: {s.diagnosis}" for s in scores if s.status != "pass"
    ]
    cell_failures = len(planned) - len({cell["config_hash"] for cell in cells})
    if cell_failures:
        failures.append(f"{cell_failures} of {len(planned)} cells missing from the store")
    if not cached_ok:
        failures.append("a cached pass executed cells or changed a verdict")

    summaries = [cell["summary"] for cell in cells]
    reliabilities = [s["reliability"] for s in summaries if s["reliability"] is not None]
    reshapings = [s["reshaping_time"] for s in summaries if s["reshaping_time"] is not None]
    node_rounds = sum(nominal_node_rounds(cell["config"]) for cell in cells)
    claims_passed = sum(1 for s in scores if s.status == "pass")

    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "round_s": [wall_s],
        "node_rounds": node_rounds,
        "peak_rss_mb": used["peak_rss_mb"],
        "reliability": statistics.fmean(reliabilities) if reliabilities else None,
        "reshaping_rounds": statistics.fmean(reshapings) if reshapings else None,
        "semantics_version": semantics_version_for("batch"),
        "attempted": len(planned) + len(scores) + 1,
        "failed": cell_failures
        + (len(scores) - claims_passed)
        + (0 if cached_ok else 1),
        "failures": failures,
        "msgs": {},
        "layers": {
            "proc.import_s": import_s,
            "proc.cpu_user_s": used["cpu_user_s"],
            "proc.cpu_sys_s": used["cpu_sys_s"],
            "scenario.prepare_s": prepare_s,
            "scenario.reshaping_rounds": statistics.fmean(reshapings) if reshapings else 0,
            "engine.node_rounds": node_rounds,
            "runtime.checkpoint.bytes": sum(
                p.stat().st_size for p in (workdir / "checkpoints").glob("*.ckpt")
            ),
            "runtime.store.bytes": store.path.stat().st_size,
            "eval.runner.executed": data.executed,
            "eval.runner.cached": again.cached,
            "eval.claims_passed": claims_passed,
            "eval.claims_total": len(scores),
            "eval.cached_ms": statistics.median(cached_ms),
            "eval.cached_ms_p90": sorted(cached_ms)[int(0.9 * (len(cached_ms) - 1))],
        },
    }
    if tracer is not None:
        tracer.active = False
        preset = get_preset(spec["preset"])
        record["layers"].update(
            layer_metrics(tracer, "batch", preset.failure_round, preset.reinjection_round)
        )
    # The gate's fingerprint: what every stored cell computed.
    lines = sorted(f"{c['config_hash']}:{summary_digest(c)}" for c in cells)
    record["digest"] = hashlib.sha256("\n".join(lines).encode("utf8")).hexdigest()
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="workload spec (JSON)")
    parser.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--workdir", type=Path, required=True, help="scratch for the gate's store and checkpoints")
    parser.add_argument("--digest", action="store_true",
                        help="fingerprint the final simulation state (seconds at 12,800 nodes)")
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--env", default="{}", help="environment record (JSON)")
    args = parser.parse_args(argv)

    spec = json.loads(args.spec)
    tracer = None
    if args.trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
    if spec["kind"] == "sim":
        record = run_sim(spec, args.t0, tracer, args.digest)
    else:
        record = run_gate(spec, args.t0, args.workdir, tracer)
    if tracer is not None:
        tracer.write_chrome_trace(
            args.trace_out,
            {"workload": spec["name"], "spec": spec, "environment": json.loads(args.env)},
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
