"""Performance gates for the simulation core, as one table of checks.

Each row of :data:`CHECKS` names a measure, the row of
``baseline_core.json`` it is compared against (if any), a comparison, a
bound and a repeat count.  :func:`evaluate` runs the selected rows,
prints ``OK|FAIL <check> <value> <op> <bound>`` for each and exits 1 on
any FAIL: dataset (the table) -> runner (the measures) -> scorer (the
comparison) -> report (the lines) -> gate (the exit code).

- ``seed``: the 24x12 gate cell under the event engine at most 2x the
  recorded wall of the pre-array-core (seed) implementation.
- ``engine``: the largest reduced Fig. 10a cell (48x24) under the batch
  engine at least 6x faster than the event engine's recorded wall on
  it; a recorded row, so a faster event engine cannot move the bar.
- ``kernel``: the fused padded ``merge_rank_truncate`` against the flat
  global-sort reference pipeline at the reduced and paper presets'
  shapes: the reference's exact output on the integer and on Phase 3's
  half-step lattice, at least 2x faster, and the half-step block at
  most 1.3x the integer one (the float fallback measured ~2.4x).
- ``obs``: the disabled observability path at most 2% over an
  uninstrumented build.
- ``mem``: each engine's ledger-tracked peak bytes on the 48x24 cell at
  most 1.25x its recorded row.
- ``paper-mem`` (a profile, run only by name): the 51,200-node paper
  cell's peak bytes by family and site and, per round, VmRSS, VmHWM and
  the layer step that raised it.

A wall recorded on another host is compared through :func:`calibrate`, a
fixed machine-speed probe: the cell's wall over the probe's, against the
recorded wall over the recorded probe's.  ``--record`` writes the
measured ``mem_gate``, ``mem_gate_event`` and ``paper_memory_profile``
rows of the selected checks instead of comparing them; the seed and
event walls are history and are never rewritten.

Usage::

    python benchmarks/perf_smoke.py                # every gate
    python benchmarks/perf_smoke.py kernel obs     # the named gates
    python benchmarks/perf_smoke.py mem --record   # re-record both mem rows
    python benchmarks/perf_smoke.py paper-mem --record
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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

#: The engine-gate cell: the largest reduced Fig. 10a cell (48x24,
#: K=4, SPLIT_ADVANCED), the workload the batch engine's speed-up is
#: recorded against in BENCH_core.json and baseline_core.json.
ENGINE_GATE_CELL = dict(CELL, width=48, height=24, failure_round=20, total_rounds=81)

#: The paper-scale memory-profile cell: the paper preset's 51,200-node
#: torus (Fig. 10a's largest grid).  Memory peaks early (the view
#: tables and pad buffers reach steady-state shape within the bootstrap
#: plus a few repair rounds), so 30 rounds suffice for the profile.
#: Domain metrics are off: this cell profiles bytes, not convergence.
PAPER_MEM_CELL = dict(
    CELL, width=320, height=160, failure_round=10, total_rounds=30, metrics=()
)

#: (label, grid width, grid height, entries per receiver, cap) of the
#: kernel gate: one receiver per node of the preset torus grids (the
#: engine-gate cell and the paper preset's main grid), ~140 merged
#: entries per receiver (the instrumented median of the T-Man merge at
#: the engine-gate cell) ranked down to the view cap.
KERNEL_SHAPES = (
    ("reduced-48x24", 48, 24, 140, 100),
    ("paper-80x40", 80, 40, 140, 100),
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


def _cell_name(engine: str, cell: dict) -> str:
    return (
        f"{cell['width']}x{cell['height']} torus, polystyrene "
        f"K={cell['replication']} {cell['split']}, failure@"
        f"{cell['failure_round']}, {cell['total_rounds']} rounds, {engine} engine"
    )


def calibrated_wall(engine: str, cell: dict, repeats: int) -> dict:
    """The cell's fastest wall of ``repeats`` and the :func:`calibrate`
    probe, the faster of one before and one after the cells, so neither
    a cold first probe nor one hiccup sets the scale."""
    before = calibrate()
    wall = min(run_cell(engine, cell) for _ in range(repeats))
    calib = min(before, calibrate())
    print(f"  {_cell_name(engine, cell)}: wall {wall:.2f}s, probe {calib:.3f}s")
    return {"wall_s": wall, "calib_s": calib}


def _merge_block(width, height, per, rng, half_step):
    """One merge load on a ``width x height`` torus: every node a
    receiver of ``per`` random peer ids (duplicates included), each at
    its node's lattice position: whole steps, or a whole/half-step mix
    like the positions of a network re-injected on
    ``Grid.parallel(0.5)``."""
    n = width * height
    ids = rng.integers(0, n, (n, per)).astype(np.int32)
    lattice = np.stack(np.divmod(np.arange(n), height), axis=1).astype(float)
    if half_step:
        lattice += 0.5 * rng.integers(0, 2, (n, 1))
    return lattice, ids, lattice[ids], rng.integers(0, 50, (n, per)).astype(np.int64)


def _merge_blocked(kernels, space, pos, ids, coords, ages, cap):
    """``merge_rank_truncate`` over budget-sized row blocks, cut the way
    ``_apply_merges`` cuts them (``block_rows(stride, width, dim)``).
    There a row is the view block plus whole messages, refused entries
    left behind as ``-1`` holes; here every column is a live entry.
    Returns the kept ``(ids, ages)``."""
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
    ``space.distance_rows``, id tie-break, truncate, re-padded."""
    n, per = ids.shape
    recv = np.repeat(np.arange(n, dtype=np.int64), per)
    flat_coords = coords.reshape(-1, coords.shape[2])

    def dist_of(kept):
        return space.distance_rows(pos[recv[kept]], flat_coords[kept])

    sel, slot, age = kernels.dedup_rank_truncate_reference(
        recv, ids.ravel(), dist_of, cap, ages.ravel()
    )
    out_ids = np.full((n, cap), -1, dtype=ids.dtype)
    out_ages = np.zeros((n, cap), dtype=np.int64)
    out_ids[recv[sel], slot] = ids.ravel()[sel]
    out_ages[recv[sel], slot] = age
    return out_ids, out_ages


def merge_kernel(shape: tuple, repeats: int) -> dict:
    """The kernel that actually runs against the flat reference, on
    both lattices, min-of-``repeats`` per side.  The lattices' repeats
    are interleaved (integer, half-step, integer, ...), so a burst of
    load on a shared machine lands on both sides of the lattice ratio
    instead of on one lattice's whole series."""
    from repro.sim.batch import kernels
    from repro.spaces import FlatTorus

    label, width, height, per, cap = shape
    space = FlatTorus(float(width), float(height))
    lattices = ("integer", "half-step")
    blocks = {
        lattice: _merge_block(
            width, height, per, np.random.default_rng(0), lattice == "half-step"
        )
        for lattice in lattices
    }
    timings = {lattice: [float("inf"), float("inf")] for lattice in lattices}
    outputs = {}
    for _ in range(repeats):
        for lattice in lattices:
            for side, fn in enumerate((_merge_flat_reference, _merge_blocked)):
                t0 = time.perf_counter()
                outputs[lattice, side] = fn(kernels, space, *blocks[lattice], cap)
                elapsed = time.perf_counter() - t0
                timings[lattice][side] = min(timings[lattice][side], elapsed)
    (t_ref, t_int), t_half = timings["integer"], timings["half-step"][1]
    print(
        f"  kernel {label} (R={width * height * per}, cap={cap}): flat "
        f"reference {t_ref * 1e3:.2f}ms, merge_rank_truncate {t_int * 1e3:.2f}ms "
        f"on the integer lattice, {t_half * 1e3:.2f}ms on the half-step one"
    )
    readings = {"speedup": t_ref / t_int, "half-step-ratio": t_half / t_int}
    for lattice in lattices:
        readings[f"{lattice}-equal"] = all(
            np.array_equal(a, b)
            for a, b in zip(outputs[lattice, 0], outputs[lattice, 1])
        )
    return readings


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
    """Replica of the pre-instrumentation ``Simulation.step`` body, the
    uninstrumented baseline of the obs gate."""
    for event in self._events.pop(self.round, []):
        event(self)
    for layer in self.layers:
        layer.step(self)
    completed = self.round
    self.meter.end_round()
    for observer in self.observers:
        observer.on_round_end(self)
    self.round += 1
    return completed


def disabled_obs(repeats: int) -> dict:
    """The *disabled* observability path's fractional cost over an
    uninstrumented build, on the gate cell.

    Interleaved min-of-``repeats`` with alternating order: each repeat
    runs the cell once with the kernels unwrapped and
    ``Simulation.step`` swapped for the vanilla replica and once with
    the instrumentation in place (but disabled, as it ships), flipping
    which goes first so neither side systematically benefits from
    running second in the warm process; the minima are compared so one
    background hiccup cannot fail the gate.  The per-exchange counter
    calls stay on both sides (they cannot be unwrapped without
    rewriting the callers); they are one global-check function call per
    exchange.

    The instrumented side carries *both* disabled fast paths: the
    counter checks and the span-tracing checks (``obs.trace.ENABLED``
    in ``Simulation.step``, per layer, around the observers and inside
    every ``@timed`` kernel wrapper), so this one budget covers the
    whole observability surface.
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
        sides = (run_vanilla, run_cell) if i % 2 == 0 else (run_cell, run_vanilla)
        for side in sides:
            (vanilla if side is run_vanilla else instrumented).append(side())
    base, inst = min(vanilla), min(instrumented)
    print(f"  gate cell: vanilla {base:.3f}s, instrumented but disabled {inst:.3f}s")
    return {"overhead": inst / base - 1.0}


def _run_with_ledger(engine: str, cell: dict, watch=None) -> dict:
    """Run one cell with the memory ledger enabled, and return the
    ledger snapshot."""
    from repro.obs import mem as obs_mem

    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        wall = run_cell(engine, cell, watch)
        snap = obs_mem.snapshot()
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()
    snap["wall_s"] = wall
    return snap


def _fmt_mb(n: float) -> str:
    return f"{n / 1e6:.1f}MB"


def _peak_row(engine: str, cell: dict, snap: dict) -> dict:
    """The ledger snapshot as a baseline row."""
    return {
        "cell": _cell_name(engine, cell),
        "peak_tracked_bytes": snap["total"]["peak"],
        "peak_round": snap["total"]["peak_round"],
        "peak_rss_bytes": snap["peak_rss_bytes"],
        "families": {
            name: fam["peak"] for name, fam in sorted(snap["families"].items())
        },
    }


def tracked_peak(engine: str, cell: dict, repeats: int) -> dict:
    """The cell's ledger-tracked peak bytes (deterministic: one run).
    Catches allocation regressions (a kernel that starts padding
    quadratically, a view table that stops reusing its arrays) that
    wall-clock gates miss on small cells."""
    row = _peak_row(engine, cell, _run_with_ledger(engine, cell))
    by_peak = sorted(row["families"].items(), key=lambda kv: kv[1], reverse=True)
    print(
        f"  {row['cell']}: tracked peak {_fmt_mb(row['peak_tracked_bytes'])} at "
        f"round {row['peak_round']} (RSS peak {_fmt_mb(row['peak_rss_bytes'])}); "
        + ", ".join(f"{name} {_fmt_mb(peak)}" for name, peak in by_peak)
    )
    return {"peak_tracked_bytes": row["peak_tracked_bytes"], "row": row}


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


def paper_profile(cell: dict, repeats: int) -> dict:
    """The paper cell once under the batch engine with the ledger on:
    the per-family and per-site peak bytes (the paper-scale memory
    profile ROADMAP item 1 asks for) and, per round, VmRSS, VmHWM and
    the layer step that raised it."""
    watchers = []
    snap = _run_with_ledger(
        "batch", cell, (lambda sim: watchers.append(_HighWater(sim))) if _status_mb() else None
    )
    row = _peak_row("batch", cell, snap)
    print(
        f"  {row['cell']}: wall {snap['wall_s']:.1f}s, tracked peak "
        f"{_fmt_mb(row['peak_tracked_bytes'])} at round {row['peak_round']}, "
        f"RSS peak {_fmt_mb(row['peak_rss_bytes'])}"
    )
    rounds = watchers[0].rounds if watchers else []
    if watchers:
        print("  per round: VmRSS / VmHWM (MB), and what raised VmHWM")
    else:
        print("  per round VmRSS / VmHWM: skipped (no /proc/self/status here)")
    for rnd, rss, hwm, raised in rounds:
        by = ", ".join(f"{name} +{rise:.1f}" for name, rise in raised)
        print(f"    round {rnd:>2}  {rss:7.1f} / {hwm:7.1f}  {by}")
    for name, fam in sorted(
        snap["families"].items(), key=lambda kv: kv[1]["peak"], reverse=True
    ):
        print(f"  {name:<16} peak {_fmt_mb(fam['peak']):>10} at round {fam['peak_round']}")
    top_sites = sorted(snap["sites"].items(), key=lambda kv: kv[1]["peak"], reverse=True)[:8]
    for name, site in top_sites:
        print(
            f"    {name:<34} {_fmt_mb(site['peak']):>10} "
            f"({site['family']}, round {site['peak_round']})"
        )
    row["wall_s"] = round(snap["wall_s"], 3)
    row["rounds_vm_mb"] = [
        {
            "round": rnd,
            "rss": round(rss, 1),
            "hwm": round(hwm, 1),
            "raised_by": {name: round(rise, 1) for name, rise in raised},
        }
        for rnd, rss, hwm, raised in rounds
    ]
    row["top_sites"] = {
        name: {
            "family": site["family"],
            "peak_bytes": site["peak"],
            "peak_round": site["peak_round"],
        }
        for name, site in top_sites
    }
    return {"peak_tracked_bytes": row["peak_tracked_bytes"], "row": row}


class Check(NamedTuple):
    """One named check.  ``measure(repeats)`` returns named readings;
    rows that share a measure object share one measurement.  Without a
    reference row the check's value is the reading itself.  With one,
    the reading is compared against the row's field of the same name,
    each divided by its ``calib_s`` probe where the row carries one:
    the value is measured / recorded under ``<=`` (how many times the
    reference it may cost) and recorded / measured under ``>=`` (how
    many times faster it must run).  A row without a bound is a
    profile: it is printed, never gated, and runs only by name."""

    name: str
    measure: Callable[[int], dict]
    reading: str
    ref: Optional[str]
    op: Optional[str]
    bound: object
    repeats: int


#: The gates, one row per check:
#: (name, measure, reading, reference row, comparison, bound, repeats).
CHECKS = (
    Check("seed", functools.partial(calibrated_wall, "event", CELL), "wall_s",
          "gate_cell.seed", "<=", 2.0, 1),
    Check("engine", functools.partial(calibrated_wall, "batch", ENGINE_GATE_CELL),
          "wall_s", "engine_gate.event", ">=", 6.0, 1),
    *(
        Check(f"mem.{engine}", functools.partial(tracked_peak, engine, ENGINE_GATE_CELL),
              "peak_tracked_bytes", ref, "<=", 1.25, 1)
        for engine, ref in (("batch", "mem_gate"), ("event", "mem_gate_event"))
    ),
    Check("obs", disabled_obs, "overhead", None, "<=", 0.02, 9),
    *(
        Check(f"kernel.{shape[0]}.{reading}", merge, reading, None, op, bound, 9)
        for shape in KERNEL_SHAPES
        for merge in [functools.partial(merge_kernel, shape)]
        for reading, op, bound in (
            ("integer-equal", "==", True),
            ("half-step-equal", "==", True),
            ("speedup", ">=", 2.0),
            ("half-step-ratio", "<=", 1.3),
        )
    ),
    Check("paper-mem", functools.partial(paper_profile, PAPER_MEM_CELL),
          "peak_tracked_bytes", "paper_memory_profile", None, None, 1),
)

#: The names the command line takes: each selects its rows.
NAMES = tuple(dict.fromkeys(check.name.split(".")[0] for check in CHECKS))

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def select(names) -> list:
    """The rows the names select; no names selects every gate."""
    if not names:
        return [check for check in CHECKS if check.bound is not None]
    return [check for check in CHECKS if check.name.split(".")[0] in names]


def _recorded(baseline: dict, path: str):
    return functools.reduce(lambda row, key: (row or {}).get(key), path.split("."), baseline)


def _value(check: Check, got: dict, ref: Optional[dict]):
    if check.ref is None:
        return got[check.reading]
    ratio = (got[check.reading] / got.get("calib_s", 1.0)) / (
        ref[check.reading] / ref.get("calib_s", 1.0)
    )
    return 1.0 / ratio if check.op == ">=" else ratio


def evaluate(names=(), record: bool = False) -> int:
    """Run the selected checks; 1 if any fails, else 0.  With
    ``record``, a check whose measure returns a ``row`` writes it as
    its reference instead of comparing."""
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf8"))
    measured, failed, recorded = {}, False, False
    for check in select(names):
        if check.measure not in measured:
            measured[check.measure] = check.measure(repeats=check.repeats)
        got = measured[check.measure]
        if record and "row" in got:
            baseline[check.ref] = got["row"]
            recorded = True
            print(f"recorded {check.name} as {check.ref}")
            continue
        ref = _recorded(baseline, check.ref) if check.ref else None
        if check.ref and ref is None:
            print(f"FAIL {check.name} no {check.ref} row in {BASELINE_PATH.name}")
            failed = True
            continue
        value = _value(check, got, ref)
        shown = value if isinstance(value, bool) else f"{value:.4f}"
        if check.op is None:
            print(f"   {check.name} {shown} x recorded (profile, not gated)")
            continue
        ok = _OPS[check.op](value, check.bound)
        failed |= not ok
        print(f"{'OK' if ok else 'FAIL'} {check.name} {shown} {check.op} {check.bound}")
    if recorded:
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"recorded to {BASELINE_PATH}")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"checks to run, of {', '.join(NAMES)} (default: every gate; "
        "paper-mem runs only by name)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the measured mem / paper-mem rows to the baseline "
        "file instead of comparing them",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(NAMES))
    if unknown:
        parser.error(f"unknown check(s) {', '.join(unknown)}; choose from {', '.join(NAMES)}")
    return evaluate(args.names, args.record)


if __name__ == "__main__":
    sys.exit(main())
