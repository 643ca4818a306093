"""Performance smoke gate for the array simulation core.

Runs one reduced Fig. 10a-style cell single-process and compares its
wall-clock against the recorded pre-array-core (seed) baseline in
``benchmarks/baseline_core.json``.  Because CI machines differ from the
machine the baseline was recorded on, both sides are normalised by a
fixed calibration workload (small-array NumPy kernels + Python loop —
the same op mix the simulator spends its time in) measured on the same
host at the same moment.

The gate fails when the array core is *slower than* ``--threshold``
times the normalised seed baseline (default 2.0 — a regression guard:
whatever else changes, the core must never fall to twice the seed's
wall-clock; the recorded measurements in the baseline file put it well
below 1x).

A second gate covers the execution engines: ``--engine-gate`` runs the
largest reduced Fig. 10a cell under both the event engine and the batch
engine (``ScenarioConfig.engine="batch"``, semantics version 2) in this
same process and fails unless batch is at least ``--engine-threshold``
times faster (default 6.0; the recorded trajectory in
``baseline_core.json`` puts it near 7x on the 1-CPU container).

A third gate covers the hot merge kernel itself: ``--kernel-gate``
micro-benchmarks the fused padded ``merge_rank_truncate`` — the kernel
the topology layers run — against the flat global-sort reference
pipeline at the (receivers, view) shapes of the reduced and paper
presets, on the integer lattice and on the half-step lattice of Phase
3.  It verifies the outputs match exactly, and fails unless the kernel
is at least ``--kernel-threshold`` times faster than the reference and
the half-step block costs at most 1.3x the integer one.

Usage::

    python benchmarks/perf_smoke.py            # gate (exit 1 on fail)
    python benchmarks/perf_smoke.py --record   # re-record current side
    python benchmarks/perf_smoke.py --engine batch   # gate cell, batch engine
    python benchmarks/perf_smoke.py --engine-gate    # batch >= 6x event
    python benchmarks/perf_smoke.py --kernel-gate    # merge >= 2x flat sort
    python benchmarks/perf_smoke.py --obs-gate       # disabled obs <= 2%
    python benchmarks/perf_smoke.py --mem-gate       # tracked peak vs baseline
    python benchmarks/perf_smoke.py --mem-gate --record   # re-record peak
    python benchmarks/perf_smoke.py --mem-profile-paper --record  # 51k nodes
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).parent / "baseline_core.json"

#: The gate cell: a reduced Fig. 10a cell (half the reduced preset's
#: largest torus), heavy enough to exercise every layer, light enough
#: for CI.
CELL = dict(
    width=24,
    height=12,
    protocol="polystyrene",
    replication=4,
    split="advanced",
    seed=0,
    failure_round=10,
    reinjection_round=None,
    total_rounds=30,
    metrics=("homogeneity",),
)


def calibrate(repeats: int = 40) -> float:
    """Seconds for a fixed machine-speed probe (deterministic)."""
    rng = np.random.default_rng(0)
    batch = rng.random((100, 2)) * 10.0
    periods = np.array([48.0, 24.0])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(repeats):
        for i in range(200):
            diff = np.abs(batch - batch[i % 100]) % periods
            diff = np.minimum(diff, periods - diff)
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((np.arange(100), d2))
            acc += float(d2[order[0]])
        # A dash of pure-Python dict work, mirroring the gossip merges.
        view = {}
        for i in range(2000):
            view[i % 97] = (float(i), float(i % 7))
        acc += len(view)
    elapsed = time.perf_counter() - t0
    assert acc >= 0.0
    return elapsed


#: The engine-gate cell: the largest reduced Fig. 10a cell (48x24,
#: K=4, SPLIT_ADVANCED) — the workload the ISSUE's batch-engine target
#: is recorded against in BENCH_core.json/baseline_core.json.
ENGINE_GATE_CELL = dict(
    width=48,
    height=24,
    protocol="polystyrene",
    replication=4,
    split="advanced",
    seed=0,
    failure_round=20,
    reinjection_round=None,
    total_rounds=81,
    metrics=("homogeneity",),
)


def run_cell(engine: str = "event", cell: dict = CELL, watch=None) -> float:
    """Wall seconds of the cell's rounds; ``watch(sim)``, when given,
    is called on the prepared simulation before they run."""
    from repro.experiments.scenario import ScenarioConfig, prepare_scenario

    config = ScenarioConfig(engine=engine, **cell)
    sim, *_ = prepare_scenario(config)
    if watch is not None:
        watch(sim)
    t0 = time.perf_counter()
    sim.run(cell["total_rounds"])
    return time.perf_counter() - t0


def engine_gate(threshold: float) -> int:
    """Fail unless the batch engine beats the event engine by at least
    ``threshold`` x on the largest reduced Fig. 10a cell."""
    batch = run_cell("batch", ENGINE_GATE_CELL)
    event = run_cell("event", ENGINE_GATE_CELL)
    speedup = event / batch
    print(
        f"engine gate (48x24 K=4, 81 rounds): event {event:.2f}s, "
        f"batch {batch:.2f}s -> {speedup:.2f}x (threshold {threshold:.1f}x)"
    )
    if speedup < threshold:
        print(
            f"FAIL: batch engine is only {speedup:.2f}x the event engine "
            f"(gate requires >= {threshold:.1f}x)"
        )
        return 1
    print(f"OK: batch engine {speedup:.2f}x faster than event")
    return 0


#: (grid width, grid height, entries-per-receiver, cap) shapes for
#: --kernel-gate: one receiver per node of the preset torus grids (the
#: largest reduced sweep grid — the engine-gate cell — and the paper
#: preset's main grid), ~140 merged entries per receiver (the
#: instrumented median of the T-Man merge at the gate cell) ranked down
#: to the view cap.
KERNEL_GATE_SHAPES = (
    ("reduced 48x24", 48, 24, 140, 100),
    ("paper 80x40", 80, 40, 140, 100),
)

#: A half-step-lattice block may cost at most this much more than the
#: same block on the integer lattice: both must take the one-sort
#: exact-key path (the float fallback measured ~2.4x).
KERNEL_GATE_LATTICE_RATIO = 1.3


def _merge_block(width, height, per, rng, half_step):
    """One merge load on a ``width x height`` torus: every node a
    receiver of ``per`` random descriptors (duplicates included) at
    lattice positions — whole steps, or a whole/half-step mix like the
    views of a network re-injected on ``Grid.parallel(0.5)``."""
    n = width * height
    ids = rng.integers(0, n, (n, per)).astype(np.int64)
    lattice = np.stack(np.divmod(np.arange(n), height), axis=1).astype(float)
    coords = lattice[rng.integers(0, n, (n, per))]
    if half_step:
        coords += 0.5 * rng.integers(0, 2, (n, per, 1))
    return lattice, ids, coords, rng.integers(0, 50, (n, per)).astype(np.int64)


def _merge_blocked(kernels, space, pos, ids, coords, ages, cap):
    """``merge_rank_truncate`` over budget-sized row blocks, cut the way
    ``_apply_merges`` cuts them (``block_rows(stride, width, dim)``).
    There a row is the view block plus whole messages, refused entries
    left behind as ``-1`` holes; here every column is a live entry."""
    n, per = ids.shape
    stride = n
    step = kernels.block_rows(stride, per, coords.shape[2])
    outs = [
        kernels.merge_rank_truncate(
            space, pos[a : a + step], ids[a : a + step], coords[a : a + step],
            ids[a : a + step] >= 0, cap, stride, ages[a : a + step],
        )
        for a in range(0, n, step)
    ]
    return tuple(np.concatenate(part) for part in zip(*outs))


def _merge_flat_reference(kernels, space, pos, ids, coords, ages, cap):
    """The flat reference pipeline: dedup keep-last, rank by
    ``space.distance_rows``, id tie-break, truncate — re-padded."""
    n, per = ids.shape
    recv = np.repeat(np.arange(n, dtype=np.int64), per)
    flat_coords = coords.reshape(-1, coords.shape[2])

    def dist_of(kept):
        return space.distance_rows(pos[recv[kept]], flat_coords[kept])

    sel, slot, age = kernels.dedup_rank_truncate_reference(
        recv, ids.ravel(), dist_of, cap, ages.ravel()
    )
    out_ids = np.full((n, cap), -1, dtype=np.int64)
    out_coords = np.zeros((n, cap, coords.shape[2]))
    out_ages = np.zeros((n, cap), dtype=np.int64)
    out_ids[recv[sel], slot] = ids.ravel()[sel]
    out_coords[recv[sel], slot] = flat_coords[sel]
    out_ages[recv[sel], slot] = age
    return out_ids, out_coords, out_ages


def kernel_gate(threshold: float, repeats: int = 5) -> int:
    """Gate the kernel that actually runs — the fused padded
    ``merge_rank_truncate`` — at every preset shape (min-of-``repeats``
    per side, one session): outputs equal to the flat reference
    pipeline on the integer and on the half-step lattice (so the speed
    claim cannot drift apart from the equivalence claim), at least
    ``threshold`` x faster than it, and the half-step block within
    ``KERNEL_GATE_LATTICE_RATIO`` of the integer one, so Phase 3 cannot
    silently fall off the one-sort path again."""
    from repro.sim.batch import kernels
    from repro.spaces import FlatTorus

    def best_of(fn, *args):
        best, out = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best, out

    failed = False
    for label, width, height, per, cap in KERNEL_GATE_SHAPES:
        space = FlatTorus(float(width), float(height))
        timings = {}
        for lattice in ("integer", "half-step"):
            block = _merge_block(
                width, height, per, np.random.default_rng(0), lattice == "half-step"
            )
            t_ref, out_ref = best_of(
                _merge_flat_reference, kernels, space, *block, cap
            )
            t_new, out_new = best_of(_merge_blocked, kernels, space, *block, cap)
            if not all(np.array_equal(a, b) for a, b in zip(out_ref, out_new)):
                print(
                    f"FAIL: {label} ({lattice}): merge_rank_truncate output "
                    "differs from the flat reference pipeline"
                )
                failed = True
            timings[lattice] = (t_ref, t_new)
        t_ref, t_int = timings["integer"]
        t_half = timings["half-step"][1]
        speedup = t_ref / t_int
        ratio = t_half / t_int
        print(
            f"kernel gate {label} (R={width * height * per}, cap={cap}): "
            f"flat reference {t_ref * 1e3:.2f}ms, merge_rank_truncate "
            f"{t_int * 1e3:.2f}ms -> {speedup:.2f}x (threshold "
            f"{threshold:.1f}x); half-step lattice {t_half * 1e3:.2f}ms -> "
            f"{ratio:.2f}x the integer one (limit "
            f"{KERNEL_GATE_LATTICE_RATIO:.1f}x)"
        )
        if speedup < threshold:
            print(
                f"FAIL: {label}: merge_rank_truncate is only {speedup:.2f}x "
                f"the flat reference pipeline (gate requires >= {threshold:.1f}x)"
            )
            failed = True
        if ratio > KERNEL_GATE_LATTICE_RATIO:
            print(
                f"FAIL: {label}: the half-step block costs {ratio:.2f}x the "
                f"integer one (gate allows <= {KERNEL_GATE_LATTICE_RATIO:.1f}x)"
            )
            failed = True
    if failed:
        return 1
    print(
        f"OK: merge_rank_truncate >= {threshold:.1f}x the flat reference and "
        f"lattice-independent at every shape"
    )
    return 0


def _unwrap_timed() -> list:
    """Swap every ``@timed``-wrapped kernel back to its undecorated
    original (module attributes and the split-dispatch registry) and
    return an undo list of ``(container, name, wrapped)``."""
    import repro.core.split as core_split
    import repro.sim.batch.kernels as batch_kernels
    import repro.sim.batch.split as batch_split_mod

    containers = [
        vars(core_split),
        vars(batch_kernels),
        vars(batch_split_mod),
        core_split._SPLITS,
    ]
    undo = []
    for container in containers:
        for name, value in list(container.items()):
            if callable(value) and hasattr(value, "__obs_timed__"):
                undo.append((container, name, value))
                container[name] = value.__wrapped__
    return undo


def _vanilla_step(self):
    """Replica of the pre-instrumentation ``Simulation.step`` body — the
    uninstrumented baseline the obs gate compares against."""
    for event in self._events.pop(self.round, []):
        event(self)
    for layer in self.layers:
        layer.step(self)
    completed = self.round
    self.meter.end_round()
    for observer in self.observers:
        observer.on_round_end(self)
    if self.retention_rounds is not None:
        self.network.prune_dead(completed - self.retention_rounds)
    self.round += 1
    return completed


def obs_gate(threshold: float, repeats: int = 5) -> int:
    """Fail when the *disabled* observability path costs more than
    ``threshold`` (fractional) over an uninstrumented build.

    Interleaved min-of-N with alternating order: each repeat runs the
    gate cell once with the kernels unwrapped and ``Simulation.step``
    swapped for the vanilla replica and once with the instrumentation
    in place (but disabled, as it ships), flipping which goes first so
    neither side systematically benefits from running second in the
    warm process; the minima are compared so one background hiccup
    cannot fail the gate.  The per-exchange counter calls stay on both
    sides (they cannot be unwrapped without rewriting the callers);
    they are one global-check function call per exchange.

    The instrumented side carries *both* disabled fast paths: the
    metrics checks and the span-tracing checks (``obs.trace.ENABLED``
    in ``Simulation.step``, per layer, and inside every ``@timed``
    kernel wrapper), so this single budget covers the whole
    observability surface.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.sim.engine import Simulation

    assert not obs_metrics.ENABLED, "obs gate requires metrics disabled"
    assert not obs_trace.ENABLED, "obs gate requires tracing disabled"
    instrumented_step = Simulation.step

    def run_vanilla() -> float:
        undo = _unwrap_timed()
        Simulation.step = _vanilla_step
        try:
            return run_cell()
        finally:
            Simulation.step = instrumented_step
            for container, name, value in undo:
                container[name] = value

    vanilla, instrumented = [], []
    for i in range(repeats):
        if i % 2 == 0:
            vanilla.append(run_vanilla())
            instrumented.append(run_cell())
        else:
            instrumented.append(run_cell())
            vanilla.append(run_vanilla())
    base, inst = min(vanilla), min(instrumented)
    overhead = inst / base - 1.0
    print(
        f"obs gate (disabled-path overhead): vanilla {base:.3f}s, "
        f"instrumented {inst:.3f}s -> {overhead * 100:+.2f}% "
        f"(threshold {threshold * 100:.0f}%)"
    )
    if overhead > threshold:
        print(
            f"FAIL: disabled observability costs {overhead * 100:.2f}% "
            f"(gate allows {threshold * 100:.0f}%)"
        )
        return 1
    print(f"OK: disabled observability within {threshold * 100:.0f}%")
    return 0


def _run_with_ledger(cell: dict, watch=None) -> dict:
    """Run one batch cell with the memory ledger (and metrics, which
    drive its round stamps) enabled, and return the ledger snapshot."""
    from repro.obs import mem as obs_mem
    from repro.obs import metrics as obs_metrics

    was_metrics = obs_metrics.ENABLED
    obs_metrics.set_enabled(True)
    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        wall = run_cell("batch", cell, watch)
        snap = obs_mem.snapshot()
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()
        obs_metrics.set_enabled(was_metrics)
        obs_metrics.registry().reset()
    snap["wall_s"] = wall
    return snap


def _fmt_mb(n: float) -> str:
    return f"{n / 1e6:.1f}MB"


def mem_gate(threshold: float, record: bool) -> int:
    """Gate the batch engine's tracked peak bytes on the reduced
    fig10a gate cell against the recorded baseline (``--record``
    re-records it).  Catches allocation regressions — a kernel that
    starts padding quadratically, a view table that stops reusing its
    arrays — that wall-clock gates miss on small cells."""
    snap = _run_with_ledger(ENGINE_GATE_CELL)
    peak = snap["total"]["peak"]
    families = {
        name: fam["peak"] for name, fam in sorted(snap["families"].items())
    }
    by_peak = ", ".join(
        f"{name} {_fmt_mb(peak_b)}"
        for name, peak_b in sorted(
            families.items(), key=lambda kv: kv[1], reverse=True
        )
    )
    print(
        f"mem gate (48x24 K=4, 81 rounds, batch): tracked peak "
        f"{_fmt_mb(peak)} at round {snap['total']['peak_round']} "
        f"(RSS peak {_fmt_mb(snap['peak_rss_bytes'])})"
    )
    print(f"  per family: {by_peak}")
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf8"))
    if record:
        baseline["mem_gate"] = {
            "cell": "48x24 torus, polystyrene K=4 advanced, failure@20, "
            "81 rounds, batch engine",
            "peak_tracked_bytes": peak,
            "peak_round": snap["total"]["peak_round"],
            "peak_rss_bytes": snap["peak_rss_bytes"],
            "families": families,
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded to {BASELINE_PATH}")
        return 0
    recorded = baseline.get("mem_gate")
    if not recorded:
        print(
            "FAIL: no mem_gate baseline recorded "
            "(run --mem-gate --record first)"
        )
        return 1
    allowed = recorded["peak_tracked_bytes"] * threshold
    ratio = peak / recorded["peak_tracked_bytes"]
    print(
        f"  baseline {_fmt_mb(recorded['peak_tracked_bytes'])} -> "
        f"ratio {ratio:.3f} (threshold {threshold:.2f}x)"
    )
    if peak > allowed:
        print(
            f"FAIL: tracked peak {_fmt_mb(peak)} exceeds "
            f"{threshold:.2f}x the recorded baseline "
            f"{_fmt_mb(recorded['peak_tracked_bytes'])}"
        )
        return 1
    print(f"OK: tracked peak within {threshold:.2f}x of baseline")
    return 0


#: The paper-scale memory-profile cell: the paper preset's 51,200-node
#: torus (Fig. 10a's largest grid).  Memory peaks early — the view
#: tables and pad buffers reach steady-state shape within the bootstrap
#: plus a few repair rounds — so 30 rounds suffice for the profile
#: without paying for the full 140-round trajectory.  Domain metrics
#: are off: this cell profiles bytes, not convergence.
PAPER_MEM_CELL = dict(
    width=320,
    height=160,
    protocol="polystyrene",
    replication=4,
    split="advanced",
    seed=0,
    failure_round=10,
    reinjection_round=None,
    total_rounds=30,
    metrics=(),
)


def _status_mb():
    """``(VmRSS, VmHWM)`` of this process in MB, read from
    ``/proc/self/status``; ``None`` where that file does not exist."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(
                line.split(":", 1) for line in fh if line.startswith(("VmRSS", "VmHWM"))
            )
    except OSError:
        return None
    return tuple(int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "VmHWM"))


class _HighWater:
    """Per round: VmRSS and VmHWM at the round's end, and by how much
    each layer step raised VmHWM.  Layer steps are wrapped on the
    instance; the round-end read is an observer appended last, so a rise
    outside every step (events, the other observers) is ``other``."""

    def __init__(self, sim) -> None:
        self.rounds = []  # (round, VmRSS, VmHWM, [(step, +MB)])
        self._raised = []
        self._hwm = _status_mb()[1]
        for layer in sim.layers:
            layer.step = self._watch(layer.name, layer.step)
        sim.observers.append(self)

    def _watch(self, name, step):
        def call(sim):
            before = _status_mb()[1]
            step(sim)
            rise = _status_mb()[1] - before
            if rise > 0:
                self._raised.append((name, rise))

        return call

    def on_round_end(self, sim) -> None:
        rss, hwm = _status_mb()
        other = hwm - self._hwm - sum(rise for _, rise in self._raised)
        if other > 0:
            self._raised.append(("other", other))
        self.rounds.append((sim.round, rss, hwm, self._raised))
        self._raised, self._hwm = [], hwm


def mem_profile_paper(record: bool) -> int:
    """Run the 51k-node paper preset once under the batch engine with
    the ledger on and report (optionally record) the per-family peak
    bytes — the paper-scale memory profile ROADMAP item 1 asks for —
    and, per round, VmRSS, VmHWM and the layer step that raised it."""
    watchers = []

    def watch(sim) -> None:
        watchers.append(_HighWater(sim))

    snap = _run_with_ledger(PAPER_MEM_CELL, watch if _status_mb() else None)
    peak = snap["total"]["peak"]
    print(
        f"paper memory profile (320x160 = 51200 nodes, 30 rounds, batch): "
        f"wall {snap['wall_s']:.1f}s, tracked peak {_fmt_mb(peak)} at round "
        f"{snap['total']['peak_round']}, RSS peak {_fmt_mb(snap['peak_rss_bytes'])}"
    )
    if watchers:
        print("  per round: VmRSS / VmHWM (MB), and what raised VmHWM")
        for rnd, rss, hwm, raised in watchers[0].rounds:
            by = ", ".join(f"{name} +{rise:.1f}" for name, rise in raised)
            print(f"    round {rnd:>2}  {rss:7.1f} / {hwm:7.1f}  {by}")
    else:
        print("  per round VmRSS / VmHWM: skipped (no /proc/self/status here)")
    for name, fam in sorted(
        snap["families"].items(), key=lambda kv: kv[1]["peak"], reverse=True
    ):
        print(
            f"  {name:<16} peak {_fmt_mb(fam['peak']):>10} "
            f"at round {fam['peak_round']}"
        )
    top_sites = sorted(
        snap["sites"].items(), key=lambda kv: kv[1]["peak"], reverse=True
    )[:8]
    for name, site in top_sites:
        print(
            f"    {name:<34} {_fmt_mb(site['peak']):>10} "
            f"({site['family']}, round {site['peak_round']})"
        )
    if record:
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf8"))
        baseline["paper_memory_profile"] = {
            "cell": "320x160 torus (51200 nodes), polystyrene K=4 advanced, "
            "failure@10, 30 rounds, batch engine",
            "wall_s": round(snap["wall_s"], 3),
            "peak_tracked_bytes": peak,
            "peak_round": snap["total"]["peak_round"],
            "peak_rss_bytes": snap["peak_rss_bytes"],
            "families": {
                name: fam["peak"]
                for name, fam in sorted(snap["families"].items())
            },
            "rounds_vm_mb": [
                {
                    "round": rnd,
                    "rss": round(rss, 1),
                    "hwm": round(hwm, 1),
                    "raised_by": {name: round(rise, 1) for name, rise in raised},
                }
                for rnd, rss, hwm, raised in (watchers[0].rounds if watchers else [])
            ],
            "top_sites": {
                name: {
                    "family": site["family"],
                    "peak_bytes": site["peak"],
                    "peak_round": site["peak_round"],
                }
                for name, site in top_sites
            },
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded to {BASELINE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="max allowed (normalised cell time) / (normalised seed "
        "baseline); 2.0 fails only when the core is slower than twice "
        "the seed (regression guard)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="record the current measurement as 'array_core' in the "
        "baseline file instead of gating",
    )
    parser.add_argument(
        "--engine",
        choices=("event", "batch"),
        default="event",
        help="execution engine for the gate cell (default: event)",
    )
    parser.add_argument(
        "--engine-gate",
        action="store_true",
        help="instead of the seed-baseline gate, run the largest "
        "reduced fig10a cell under both engines and fail if batch is "
        "not >= --engine-threshold times faster than event",
    )
    parser.add_argument(
        "--engine-threshold",
        type=float,
        default=6.0,
        help="min batch-over-event speedup for --engine-gate (default 6.0)",
    )
    parser.add_argument(
        "--kernel-gate",
        action="store_true",
        help="micro-benchmark the fused merge_rank_truncate against the "
        "flat global-sort reference pipeline at the reduced and paper "
        "preset shapes and fail if it is not >= --kernel-threshold times "
        "faster or if a half-step-lattice block costs more than 1.3x an "
        "integer-lattice one (outputs are also checked for exact equality)",
    )
    parser.add_argument(
        "--kernel-threshold",
        type=float,
        default=2.0,
        help="min merge-over-flat-reference speedup for --kernel-gate "
        "(default 2.0)",
    )
    parser.add_argument(
        "--obs-gate",
        action="store_true",
        help="gate the observability instrumentation's disabled-path "
        "overhead: interleaved min-of-3 of the gate cell, vanilla "
        "(unwrapped kernels + pre-instrumentation step) vs shipped "
        "(instrumented but disabled)",
    )
    parser.add_argument(
        "--obs-threshold",
        type=float,
        default=0.02,
        help="max fractional disabled-path overhead for --obs-gate "
        "(default 0.02 = 2%%)",
    )
    parser.add_argument(
        "--mem-gate",
        action="store_true",
        help="gate the batch engine's ledger-tracked peak bytes on the "
        "largest reduced fig10a cell against the recorded baseline "
        "(with --record: re-record the baseline)",
    )
    parser.add_argument(
        "--mem-threshold",
        type=float,
        default=1.25,
        help="max allowed (tracked peak) / (recorded peak) for "
        "--mem-gate (default 1.25)",
    )
    parser.add_argument(
        "--mem-profile-paper",
        action="store_true",
        help="run the 51k-node paper preset (320x160) once under the "
        "batch engine with the memory ledger on and print the "
        "per-family/per-site peak-byte profile and, per round, VmRSS, "
        "VmHWM and the layer step that raised it (with --record: save it "
        "as 'paper_memory_profile' in the baseline file)",
    )
    args = parser.parse_args(argv)

    if args.engine_gate:
        return engine_gate(args.engine_threshold)
    if args.kernel_gate:
        return kernel_gate(args.kernel_threshold)
    if args.obs_gate:
        return obs_gate(args.obs_threshold)
    if args.mem_gate:
        return mem_gate(args.mem_threshold, args.record)
    if args.mem_profile_paper:
        return mem_profile_paper(args.record)

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf8"))
    calib = calibrate()
    wall = run_cell(args.engine)
    norm = wall / calib
    seed = baseline["gate_cell"]["seed"]
    seed_norm = seed["wall_s"] / seed["calib_s"]
    ratio = norm / seed_norm
    print(
        f"cell wall {wall:.2f}s, calibration {calib:.2f}s, "
        f"normalised {norm:.3f} (seed baseline {seed_norm:.3f}, "
        f"ratio {ratio:.3f}, threshold {args.threshold})"
    )
    if args.record:
        key = "array_core" if args.engine == "event" else "batch_engine"
        baseline["gate_cell"][key] = {
            "wall_s": round(wall, 3),
            "calib_s": round(calib, 3),
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded to {BASELINE_PATH}")
        return 0
    if ratio > args.threshold:
        print(
            f"FAIL: array core runs at {ratio:.2f}x the seed baseline "
            f"wall-clock (gate allows at most {args.threshold:.1f}x)"
        )
        return 1
    print(
        f"OK: array core runs at {ratio:.2f}x the seed baseline "
        f"wall-clock ({1 / ratio:.2f}x speedup vs recorded seed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
