"""Command-line entry point: ``repro`` / ``repro-experiments`` /
``python -m repro``.

Examples::

    repro list
    repro run fig6a --scale reduced --seed 1
    repro run fig10a --scale smoke --workers 4
    repro run --resume sweep.ckpt --rounds 20 --save-checkpoint sweep2.ckpt
    repro sweep --scale smoke --ks 2,4 --seeds 3 --workers 4 --store results.jsonl
    repro sweep --scale smoke --fork --failure-fractions 0.25,0.5 --reinjection both
    repro sweep --scale smoke --fork --queue /mnt/share/q --store results.jsonl
    repro worker --queue /mnt/share/q --drain
    repro queue status /mnt/share/q
    repro queue merge /mnt/share/q --store results.jsonl
    repro checkpoints ls
    repro checkpoints gc --older-than 7 --queue /mnt/share/q
    repro results results.jsonl --diff other.jsonl
    repro results results.jsonl --verify
    repro sweep --scale smoke --obs-dir runs/r1 --log-level info --profile
    repro obs report runs/r1
    repro obs report runs/r1 --format json
    repro obs tail runs/r1 --stream metrics --lines 10
    repro obs tail runs/r1 --stream spans --follow
    repro obs series runs/r1 --column wall_s
    repro obs series runs/r1 --cell k4 --round-range 20:60
    repro obs mem runs/r1 --top 10
    repro obs trace tree runs/r1
    repro obs trace critical-path runs/r1
    repro obs export runs/r1 --format chrome --out trace.json
    repro obs export runs/r1 --format prometheus --out -
    repro obs diff runs/base runs/candidate --gate
    repro eval list --scale reduced
    repro eval run --gate --engine batch --scale reduced --store eval.jsonl
    repro eval run --scale reduced --update-expected --store eval.jsonl
    repro eval report eval-report.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ReproError
from .experiments.presets import PRESETS, get_preset
from .experiments.registry import DESCRIPTIONS, experiment_names, run_experiment
from .runtime.dispatch import ExecOptions, run_sweep


def _parse_int_list(text: str) -> List[int]:
    """``"2,4,8"`` → ``[2, 4, 8]``; a bare integer N → ``range(N)``
    semantics are handled by the callers that want counts."""
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> List[float]:
    """``"0.25,0.5"`` → ``[0.25, 0.5]``."""
    return [float(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Polystyrene (ICDCS 2014) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every command that executes
    # simulations (run/sweep/worker); `repro obs` reads what they wrote.
    obs_options = argparse.ArgumentParser(add_help=False)
    obs_options.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "off"),
        default=None,
        help="structured event logging to stderr (and, with --obs-dir, "
        "to obs/events.jsonl); default: $REPRO_LOG or off",
    )
    obs_options.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=None,
        help="run directory for observability artifacts "
        "(obs/events.jsonl, metrics.jsonl, spans.jsonl, series.jsonl, "
        "mem.json, profile.json); setting it enables every stream",
    )
    obs_options.add_argument(
        "--profile",
        action="store_true",
        help="profile the run (cProfile + peak RSS / ledger-tracked "
        "bytes + counters) and write obs/profile.json under --obs-dir "
        "(default: ./obs/)",
    )

    # What a grid runs and how — shared by run/sweep/eval, read back
    # with ExecOptions.from_args.  --workers, --fork and --queue never
    # change a result; --scale and --engine do.
    exec_options = argparse.ArgumentParser(add_help=False)
    exec_options.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default=None,
        help="scale preset (default: $REPRO_SCALE or 'reduced')",
    )
    exec_options.add_argument(
        "--engine",
        choices=("event", "batch"),
        default=None,
        help="execution engine: 'event' (per-node) or 'batch' "
        "(batch-synchronous vectorised — statistically equivalent "
        "results, several times faster); default: event, and for "
        "'eval run' both engines",
    )
    exec_options.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the grid's independent simulations across N local "
        "worker processes (identical results to --workers 1)",
    )
    exec_options.add_argument(
        "--fork",
        action="store_true",
        help="simulate each shared pre-failure prefix once, checkpoint "
        "it in the persistent cache, and fork every cell from the "
        "cached snapshot — locally or on a --queue (byte-identical "
        "results to cold-starting every cell, the default; see 'repro "
        "checkpoints')",
    )
    exec_options.add_argument(
        "--queue",
        metavar="QUEUE",
        default=None,
        help="run the grid through this shared work queue (a directory, "
        "NFS-style share) and help drain it instead of running it "
        "locally; any 'repro worker --queue' pointed here participates "
        "(identical results)",
    )

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run",
        help="run one experiment and print its report, or resume a "
        "simulation checkpoint",
        parents=[obs_options, exec_options],
    )
    run.add_argument(
        "experiment",
        nargs="?",
        choices=experiment_names(),
        help="experiment id (omit when using --resume)",
    )
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        default=None,
        help="resume a saved simulation checkpoint instead of running "
        "an experiment",
    )
    run.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="with --resume: how many additional rounds to run",
    )
    run.add_argument(
        "--save-checkpoint",
        metavar="PATH",
        default=None,
        help="with --resume: write the post-run state to a new checkpoint",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a (K × split × seed) scenario grid — cold or forked "
        "(--fork), locally (--workers) or through a shared work queue "
        "(--queue) — persisting every cell to a result store",
        parents=[obs_options, exec_options],
    )
    sweep.add_argument(
        "--ks",
        type=_parse_int_list,
        default=[2, 4, 8],
        metavar="K,K,...",
        help="replication factors to sweep (default 2,4,8)",
    )
    sweep.add_argument(
        "--splits",
        default="advanced",
        metavar="S,S,...",
        help="comma-separated SPLIT functions (default: advanced)",
    )
    sweep.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="number of seeds per cell (default: the preset's repetitions)",
    )
    sweep.add_argument(
        "--failure-fractions",
        type=_parse_float_list,
        default=None,
        metavar="F,F,...",
        help="ablate the failed fraction of the torus (adds a grid "
        "axis; cells differing only here share a Phase-1 prefix "
        "under --fork)",
    )
    sweep.add_argument(
        "--reinjection",
        choices=("on", "off", "both"),
        default="on",
        help="keep the preset's reinjection phase, drop it, or ablate "
        "both variants as a grid axis (default: on)",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="checkpoint cache directory for --fork (default: "
        "$REPRO_CHECKPOINT_DIR or .repro-checkpoints; with --queue, "
        "checkpoints/ inside the queue)",
    )
    sweep.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="append results to this JSONL store (enables --resume-run)",
    )
    sweep.add_argument(
        "--run-id",
        default=None,
        help="run id to record under (with --resume-run: the run to continue)",
    )
    sweep.add_argument(
        "--resume-run",
        action="store_true",
        help="skip cells already recorded ok in the store (latest run, "
        "or --run-id)",
    )
    sweep.add_argument(
        "--no-join",
        action="store_true",
        help="with --queue: only publish (the grid and, with --fork, "
        "its prefix checkpoints) and exit; do not run local workers or "
        "wait",
    )
    sweep.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --queue: lease duration before a silent "
        "worker's cell is re-offered (default 120)",
    )
    sweep.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="with --queue: attempts per cell before it is "
        "recorded as an error (default 3)",
    )

    worker = sub.add_parser(
        "worker",
        help="run one cluster worker: claim, simulate, and record cells "
        "from a shared queue until it completes",
        parents=[obs_options],
    )
    worker.add_argument(
        "--queue",
        metavar="QUEUE",
        required=True,
        help="the shared work queue directory",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N cells",
    )
    worker.add_argument(
        "--drain",
        action="store_true",
        help="exit as soon as nothing is claimable (instead of waiting "
        "for the whole queue to complete)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: <host>-<pid>)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="idle polling interval (default 0.5)",
    )

    queue = sub.add_parser(
        "queue",
        help="inspect, repair, or merge a distributed-sweep work queue",
    )
    queue.add_argument(
        "action",
        choices=("status", "requeue", "merge"),
        help="status: progress/leases/workers; requeue: release leases "
        "or reset cells; merge: fold worker shards into a result store",
    )
    queue.add_argument(
        "queue", metavar="QUEUE", help="the shared work queue directory"
    )
    queue.add_argument(
        "--task",
        action="append",
        default=None,
        metavar="ID",
        help="with requeue: force this cell back to pending (repeatable)",
    )
    queue.add_argument(
        "--failed",
        action="store_true",
        help="with requeue: reset every errored cell to pending",
    )
    queue.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="with merge: the JSONL result store to merge into",
    )
    queue.add_argument(
        "--run-id",
        default=None,
        help="with merge: record under this run id (default: the "
        "queue's published run id)",
    )

    checkpoints = sub.add_parser(
        "checkpoints",
        help="inspect or clean the phase-fork checkpoint cache",
    )
    checkpoints.add_argument(
        "action",
        choices=("ls", "gc"),
        help="ls: list cached prefixes; gc: delete them",
    )
    checkpoints.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory "
        "(default: $REPRO_CHECKPOINT_DIR or .repro-checkpoints)",
    )
    checkpoints.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="with gc: only delete checkpoints older than DAYS days "
        "(default: delete everything)",
    )
    checkpoints.add_argument(
        "--queue",
        action="append",
        default=None,
        metavar="QUEUE",
        help="with gc: never delete checkpoints still referenced by "
        "this work queue's unfinished cells (repeatable)",
    )

    results = sub.add_parser(
        "results", help="inspect a result store written by 'repro sweep'"
    )
    results.add_argument("store", help="path to the JSONL result store")
    results.add_argument("--run-id", default=None, help="restrict to one run")
    results.add_argument(
        "--status", choices=("ok", "error"), default=None, help="filter by status"
    )
    results.add_argument(
        "--diff",
        metavar="OTHER",
        default=None,
        help="compare per-cell summaries against another store (exit 1 "
        "on any difference) — the distributed-vs-serial equivalence "
        "check",
    )
    results.add_argument(
        "--verify",
        action="store_true",
        help="run a full offline integrity check of the store (record "
        "kinds, config hashes, torn tail vs mid-file corruption, "
        "duplicates); exit 1 on any fatal problem",
    )

    eval_cmd = sub.add_parser(
        "eval",
        help="the paper-conformance claims gate: run claim cases, score "
        "them against recorded expectations, report, and gate CI "
        "(--scale picks the preset's claims, --engine the one engine to "
        "gate; cross-engine claims always run both engines at smoke "
        "scale)",
        parents=[obs_options, exec_options],
    )
    eval_cmd.add_argument(
        "action",
        choices=("run", "report", "list"),
        help="run: execute + score the claims dataset; report: render a "
        "saved JSON report; list: show the dataset's cases",
    )
    eval_cmd.add_argument(
        "target",
        nargs="?",
        default=None,
        help="with report: path to a JSON report written by "
        "'eval run --report'",
    )
    eval_cmd.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only cases whose id contains SUBSTR (repeatable)",
    )
    eval_cmd.add_argument(
        "--store",
        metavar="PATH",
        default="eval-results.jsonl",
        help="result store backing the run — cells already recorded ok "
        "for an identical configuration are reused instead of "
        "re-simulated (default: eval-results.jsonl)",
    )
    eval_cmd.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        dest="report_path",
        help="also write the machine-readable JSON report here",
    )
    eval_cmd.add_argument(
        "--gate",
        action="store_true",
        help="exit nonzero if any claim fails (the CI regression gate)",
    )
    eval_cmd.add_argument(
        "--update-expected",
        action="store_true",
        help="regenerate the recorded expectations for the cases just "
        "run (also triggered by REPRO_UPDATE_EXPECTED=1); incompatible "
        "with --gate and --engine",
    )
    eval_cmd.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="scale every recorded tolerance band by X (0 = zero-width "
        "bands; the gate self-test uses this to prove perturbed "
        "expectations fail)",
    )
    obs_cmd = sub.add_parser(
        "obs",
        help="inspect observability artifacts written by "
        "--log-level/--obs-dir/--profile runs",
    )
    obs_sub = obs_cmd.add_subparsers(
        dest="obs_action", required=True, metavar="ACTION"
    )
    target_help = (
        "a run directory (containing obs/), an obs/ directory, a "
        "metrics/events/spans/series .jsonl file, a mem.json, or a "
        "profile.json"
    )

    obs_tail = obs_sub.add_parser(
        "tail", help="last structured events/metrics/spans lines"
    )
    obs_tail.add_argument("target", help=target_help)
    obs_tail.add_argument(
        "--lines",
        type=int,
        default=20,
        metavar="N",
        help="how many trailing lines to show (default 20)",
    )
    obs_tail.add_argument(
        "--stream",
        choices=("events", "metrics", "spans", "series"),
        default="events",
        help="which stream to read (default events)",
    )
    obs_tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling the stream and print records as they are "
        "appended (tail -f); Ctrl-C to stop",
    )
    obs_tail.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="with --follow: poll interval in seconds (default 0.5)",
    )

    obs_report = obs_sub.add_parser(
        "report",
        help="one timing row per span name (exact percentiles over "
        "every duration) and the run's counters",
    )
    obs_report.add_argument("target", help=target_help)
    obs_report.add_argument(
        "--format",
        dest="fmt",
        choices=("table", "json"),
        default="table",
        help="table: aligned text tables (default); json: the counters "
        "and timing rows as one machine-readable JSON object",
    )

    obs_series = obs_sub.add_parser(
        "series",
        help="per-round time-series: min/max/last + sparkline per "
        "column (round wall, per-layer/per-kernel time, node counts, "
        "memory ledger, health probes)",
    )
    obs_series.add_argument("target", help=target_help)
    obs_series.add_argument(
        "--cell",
        default=None,
        metavar="SUBSTR",
        help="only records whose run/worker/cell context contains this "
        "substring (sweeps interleave cells)",
    )
    obs_series.add_argument(
        "--column",
        default=None,
        metavar="SUBSTR",
        help="only columns whose dotted name contains this substring "
        "(e.g. wall_s, layers.tman, mem.node_table)",
    )
    obs_series.add_argument(
        "--round-range",
        default=None,
        metavar="LO:HI",
        help="inclusive round range, either end optional (e.g. 10:80, "
        ":40, 60:)",
    )

    obs_mem = obs_sub.add_parser(
        "mem",
        help="the memory ledger's peak-attribution report: per-family "
        "current/peak bytes and the top allocation sites with their "
        "peak rounds",
    )
    obs_mem.add_argument("target", help=target_help)
    obs_mem.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="how many allocation sites to show (default 20)",
    )

    obs_trace_cmd = obs_sub.add_parser(
        "trace",
        help="causal span analysis: the reconstructed trace tree, or "
        "the critical path with per-worker idle attribution",
    )
    obs_trace_cmd.add_argument(
        "trace_action",
        choices=("tree", "critical-path"),
        help="tree: the span tree (orphans annotated); critical-path: "
        "the longest blocking chain + worker busy/idle lanes",
    )
    obs_trace_cmd.add_argument("target", help=target_help)
    obs_trace_cmd.add_argument(
        "--depth",
        type=int,
        default=4,
        metavar="N",
        help="with tree: maximum tree depth to render (default 4)",
    )

    obs_export = obs_sub.add_parser(
        "export",
        help="export a run's spans for external viewers",
    )
    obs_export.add_argument("target", help=target_help)
    obs_export.add_argument(
        "--format",
        dest="fmt",
        choices=("chrome", "prometheus"),
        default="chrome",
        help="chrome: Chrome trace-event JSON — open in "
        "https://ui.perfetto.dev or chrome://tracing (default); "
        "prometheus: text exposition format for a node_exporter "
        "textfile collector",
    )
    obs_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default <target>/obs/trace_chrome.json for "
        "chrome, <target>/obs/metrics.prom for prometheus, '-' for "
        "stdout)",
    )

    obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two runs' per-span-name timings (exact mean/p95) "
        "with noise floors",
    )
    obs_diff.add_argument("baseline", help=f"baseline run: {target_help}")
    obs_diff.add_argument("candidate", help=f"candidate run: {target_help}")
    obs_diff.add_argument(
        "--gate",
        action="store_true",
        help="exit nonzero when any timing row regresses past the "
        "threshold (CI regression gate)",
    )
    obs_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative regression threshold on mean/p95 (default 0.5 "
        "= +50%%)",
    )
    obs_diff.add_argument(
        "--min-total",
        type=float,
        default=None,
        metavar="S",
        help="ignore timing rows whose baseline total is under this "
        "many seconds (default 0.02)",
    )
    return parser


def _setup_obs(args):
    """Apply --log-level/--obs-dir/--profile for commands that execute
    simulations.  Returns an armed :class:`~repro.obs.profiling.Profiler`
    (to be written after the command body) or None."""
    from . import obs

    if not (args.log_level or args.obs_dir or args.profile):
        return None
    run_dir = args.obs_dir
    if args.profile and run_dir is None:
        run_dir = "."  # profile.json needs somewhere to land
    obs.configure(
        log_level=args.log_level,
        dir=run_dir,
        profile=True if args.profile else None,
    )
    if not args.profile:
        return None
    from .obs.profiling import Profiler

    profiler = Profiler()
    # Resolve the destination now, while the run dir this function just
    # configured is guaranteed to be set — _finish_obs then has no
    # unreachable "no dir" branch to pretend to cover.
    profiler.out_path = obs.profile_path()
    profiler.start()
    return profiler


def _finish_obs(args, profiler) -> None:
    """Write obs/profile.json for a profiled command."""
    if profiler is None:
        return
    wall = profiler.stop()
    profiler.write(profiler.out_path, ctx={"command": args.command}, wall_s=wall)
    print(f"profile written to {profiler.out_path}", file=sys.stderr)


def _cmd_list() -> int:
    width = max(len(name) for name in experiment_names())
    for name in experiment_names():
        print(f"{name.ljust(width)}  {DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_resume(args) -> int:
    if args.engine is not None:
        print(
            "error: a checkpoint continues under the engine that wrote it",
            file=sys.stderr,
        )
        return 2
    from .runtime import checkpoint as ckpt
    from .sim.batch import BatchSimulation

    loaded = ckpt.load(args.resume)
    print(f"loaded {loaded.describe()} from {args.resume}")
    sim = ckpt.restore(loaded)
    engine = "batch" if isinstance(sim, BatchSimulation) else "event"
    print(f"running under the {engine} engine")
    if args.rounds > 0:
        sim.run(args.rounds)
        print(
            f"ran {args.rounds} rounds -> round {sim.round}, "
            f"{sim.network.n_alive}/{sim.network.n_total} nodes alive"
        )
    print(f"state digest: {ckpt.state_digest(sim)}")
    if args.save_checkpoint:
        path = ckpt.save(ckpt.snapshot(sim), args.save_checkpoint)
        print(f"saved checkpoint to {path}")
    return 0


def _cmd_run(args) -> int:
    if args.resume is not None:
        return _cmd_resume(args)
    if args.experiment is None:
        print("error: provide an experiment id or --resume", file=sys.stderr)
        return 2
    preset = get_preset(args.scale)
    print(
        run_experiment(
            args.experiment,
            preset=preset,
            seed=args.seed,
            options=ExecOptions.from_args(args),
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.scenario import ScenarioConfig
    from .runtime.forksweep import CheckpointCache
    from .runtime.runner import grid_tasks
    from .runtime.store import ResultStore, cell_record
    from .viz.tables import format_store_cells

    preset = get_preset(args.scale)
    seeds = args.seeds if args.seeds is not None else preset.repetitions
    splits = [part for part in args.splits.split(",") if part.strip()]
    overrides = {}
    if args.reinjection == "off":
        overrides["reinjection_round"] = None
    if args.engine:
        overrides["engine"] = args.engine
    base = ScenarioConfig.from_preset(
        preset, metrics=("homogeneity",), **overrides
    )
    axes = {
        "replication": args.ks,
        "split": splits,
        "seed": range(seeds),
    }
    # Only explicitly-requested ablation axes join the grid (and the
    # task ids), so default sweeps keep their historical cell names.
    if args.failure_fractions is not None:
        axes["failure_fraction"] = args.failure_fractions
    if args.reinjection == "both":
        axes["reinjection_round"] = (preset.reinjection_round, None)
    tasks = grid_tasks(base, axes)

    store = ResultStore(args.store) if args.store else None
    run_id = args.run_id
    if args.resume_run:
        if store is None:
            print("error: --resume-run needs --store", file=sys.stderr)
            return 2
        run_id = run_id or store.latest_run_id()
        if run_id is None:
            print("error: store has no run to resume", file=sys.stderr)
            return 2

    def progress(done: int, total: int, cell) -> None:
        mark = "ok " if cell.ok else "ERR"
        print(
            f"[{done}/{total}] {mark} {cell.task_id} "
            f"({cell.duration_s:.2f}s)",
            file=sys.stderr,
        )

    def queue_status(status) -> None:
        print(
            f"[{status.get('done', 0)}/{status.get('total', '?')}] "
            f"{status.get('leased', 0)} leased, "
            f"{status.get('pending', 0)} pending",
            file=sys.stderr,
        )

    options = ExecOptions.from_args(args)
    # What only the queue's coordinator takes; the table below needs the
    # cells' results back, so a queue run carries payloads.
    queue_options = {
        "join": not args.no_join,
        "payloads": True,
        "log": lambda message: print(message, file=sys.stderr),
        "on_status": queue_status,
    }
    if args.lease is not None:
        queue_options["lease_s"] = args.lease
    if args.max_attempts is not None:
        queue_options["max_attempts"] = args.max_attempts
    executor = options.executor(progress, **queue_options)
    cells = run_sweep(
        tasks,
        fork=options.fork,
        executor=executor,
        cache=CheckpointCache(args.checkpoint_dir) if args.checkpoint_dir else None,
        store=store,
        run_id=run_id,
        metadata={
            "preset": preset.name,
            "ks": list(args.ks),
            "splits": splits,
            "seeds": seeds,
            "failure_fractions": args.failure_fractions,
            "reinjection": args.reinjection,
            "fork": options.fork,
            "engine": args.engine or "event",
        },
    )
    if options.queue is not None and args.no_join and executor.manifest:
        return _sweep_published(args, executor.manifest)

    records = [
        cell_record(
            run_id or "",
            cell.task_id,
            cell.config,
            status=cell.status,
            result=cell.result,
            duration_s=cell.duration_s,
        )
        for cell in cells
    ]
    title = f"sweep over {len(cells)} cells ({preset.name} scale)"
    if not cells:
        if not tasks:
            print("nothing to do: the sweep grid is empty")
        else:
            print("nothing to do: every cell is already in the store")
    else:
        print(format_store_cells(records, title=title))
    errored = sum(1 for cell in cells if not cell.ok)
    if errored:
        print(f"warning: {errored} cells errored", file=sys.stderr)
    return 1 if errored else 0


def _sweep_published(args, manifest) -> int:
    """``--queue Q --no-join``: say what was published and how to go on."""
    print(
        f"published {manifest['n_tasks']} cells as run "
        f"{manifest['run_id']} to {args.queue}"
    )
    print(
        f"drain with:   repro worker --queue {args.queue}\n"
        f"inspect with: repro queue status {args.queue}\n"
        f"merge with:   repro queue merge {args.queue} --store "
        f"{args.store or 'results.jsonl'}"
    )
    return 0


def _cmd_worker(args) -> int:
    import signal
    import threading

    from .runtime.cluster import Worker

    stop = threading.Event()

    def _handle(signum, frame):  # finish the current cell, then exit
        stop.set()

    previous = {
        sig: signal.signal(sig, _handle)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        worker = Worker(
            args.queue,
            worker_id=args.worker_id,
            poll_s=args.poll,
            log=lambda message: print(message, file=sys.stderr),
        )
        stats = worker.run(
            max_cells=args.max_cells, drain=args.drain, stop=stop
        )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(
        f"worker {stats.worker_id}: {stats.cells_ok} ok, "
        f"{stats.cells_error} error, {stats.cells_lost} lost-race"
    )
    return 1 if stats.cells_error else 0


def _cmd_queue(args) -> int:
    from .runtime.cluster import merge_queue, open_queue
    from .runtime.store import ResultStore

    queue = open_queue(args.queue)
    if args.action == "status":
        status = queue.status()
        if not status.get("published"):
            print(f"queue {args.queue} has no published grid")
            return 1
        print(
            f"queue {status['path']}  run {status['run_id']}  "
            f"created {status['created']}"
        )
        print(
            f"{status['done']}/{status['total']} done "
            f"({status['ok']} ok, {status['failed']} failed, "
            f"{status['retried']} retried), "
            f"{status['leased']} leased, {status['pending']} pending; "
            f"lease {status['lease_s']:.0f}s, "
            f"max attempts {status['max_attempts']}"
        )
        # Per-worker rollup: heartbeat age and attempt counts replace
        # the raw lease dump — a stale heartbeat is the signal that a
        # lease is about to be re-offered.
        now = status.get("now")
        leases_by_worker = {}
        for task_id, lease in sorted(status["leases"].items()):
            leases_by_worker.setdefault(lease["worker"], []).append(
                (task_id, lease.get("attempt", 1))
            )
        for worker_id, info in sorted(status["workers"].items()):
            last_seen = info.get("last_seen")
            age = (
                f"{max(0.0, now - last_seen):.0f}s ago"
                if now is not None and last_seen is not None
                else "never"
            )
            held = leases_by_worker.pop(worker_id, [])
            lease_text = ""
            if held:
                cells = ", ".join(
                    f"{task_id} (attempt {attempt})"
                    for task_id, attempt in held
                )
                lease_text = f"; working on {cells}"
            print(
                f"  worker {worker_id}: heartbeat {age}, "
                f"{info.get('cells_ok', 0)} ok, "
                f"{info.get('cells_error', 0)} error, "
                f"{info.get('cells_lost', 0)} lost-race{lease_text}"
            )
        # Leases whose holder never registered (e.g. a worker that died
        # before its first heartbeat) still deserve a line.
        for worker_id, held in sorted(leases_by_worker.items()):
            cells = ", ".join(
                f"{task_id} (attempt {attempt})" for task_id, attempt in held
            )
            print(f"  worker {worker_id}: unregistered; working on {cells}")
        return 0
    if args.action == "requeue":
        if args.task:
            reset = queue.reset(task_ids=args.task)
            print(f"reset {len(reset)} cell(s): {reset}")
        if args.failed:
            reset = queue.reset(failed_only=True)
            print(f"reset {len(reset)} failed cell(s): {reset}")
        if not args.task and not args.failed:
            released = queue.release_leases()
            print(f"released {released} lease(s) for immediate re-claim")
        return 0
    # merge
    if not args.store:
        print("error: queue merge needs --store", file=sys.stderr)
        return 2
    report = merge_queue(queue, ResultStore(args.store), run_id=args.run_id)
    print(report.describe())
    return 1 if report.missing else 0


def _cmd_checkpoints(args) -> int:
    import time as _time

    from .runtime.forksweep import CheckpointCache

    cache = CheckpointCache(args.dir)
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"no checkpoints cached under {cache.root}")
            return 0
        from .viz.tables import format_table

        now = _time.time()
        rows = []
        total = 0
        for entry in entries:
            total += entry.get("size_bytes", 0)
            rows.append(
                [
                    entry.get("prefix_hash", "?"),
                    entry.get("state_digest", "?")[:12],
                    entry.get("round", "?"),
                    entry.get("seed", "?"),
                    f"{entry.get('n_alive', '?')}/{entry.get('n_total', '?')}",
                    f"{entry.get('size_bytes', 0) / 1e6:.1f}MB",
                    f"{(now - entry['mtime']) / 3600.0:.1f}h",
                ]
            )
        print(
            format_table(
                ["prefix", "digest", "round", "seed", "alive", "size", "age"],
                rows,
                title=(
                    f"{len(entries)} cached prefix(es) under {cache.root} "
                    f"({total / 1e6:.1f}MB)"
                ),
            )
        )
        return 0
    older = None if args.older_than is None else args.older_than * 86400.0
    protect = set()
    if args.queue:
        from .runtime.cluster import open_queue

        for queue_path in args.queue:
            protect |= open_queue(queue_path).referenced_prefixes()
    removed = cache.gc(older_than_s=older, protect=protect)
    print(f"removed {len(removed)} checkpoint(s) from {cache.root}")
    if protect:
        print(
            f"(protected {len(protect)} prefix(es) still referenced by "
            "live queue cells)"
        )
    return 0


def _cmd_results(args) -> int:
    from .runtime.store import ResultStore
    from .viz.tables import format_store_cells

    store = ResultStore(args.store)
    if args.verify:
        report = store.verify()
        print(
            f"{report['path']}: {report['runs']} run(s), "
            f"{report['cells']} cell(s) "
            f"({report['cells_ok']} ok, {report['cells_error']} error), "
            f"{report['duplicates']} duplicate(s)"
        )
        if report["torn_tail"]:
            print(
                "note: torn trailing line (interrupted append) — "
                "ignored by readers, repaired by the next append"
            )
        for problem in report["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        print("verify: OK" if report["ok"] else "verify: FAILED")
        return 0 if report["ok"] else 1
    if args.diff is not None:
        from .runtime.cluster import diff_stores

        diffs = diff_stores(
            store, ResultStore(args.diff), run_a=args.run_id
        )
        if diffs:
            for line in diffs:
                print(line)
            print(f"{len(diffs)} cell(s) differ", file=sys.stderr)
            return 1
        print(f"{args.store} and {args.diff} hold equivalent cells")
        return 0
    runs = store.runs()
    if not runs:
        print(f"no runs recorded in {args.store}")
        return 1
    for record in runs:
        if args.run_id is not None and record["run_id"] != args.run_id:
            continue
        print(
            f"run {record['run_id']}  created {record['created']}  "
            f"git {record['git_rev'][:12]}"
        )
    cells = store.cells(run_id=args.run_id, status=args.status)
    print(format_store_cells(cells, title=f"{len(cells)} cells"))
    return 0


def _cmd_eval(args) -> int:
    from .analysis.bands import expected_value_and_tolerance
    from .eval import dataset as eval_dataset
    from .eval.report import (
        build_report,
        format_report,
        gate_exit,
        load_report,
        score_run,
        write_report,
    )
    from .eval.runner import ensembles_for_update, run_cases
    from .runtime.store import ResultStore

    if args.action == "report":
        if not args.target:
            print("error: eval report needs a JSON report path", file=sys.stderr)
            return 2
        report = load_report(args.target)
        print(format_report(report))
        return gate_exit(report) if args.gate else 0

    preset = get_preset(args.scale)
    cases = eval_dataset.claim_cases(preset.name)
    if args.case:
        cases = [
            case
            for case in cases
            if any(needle in case.case_id for needle in args.case)
        ]
        if not cases:
            print(
                f"error: no case id contains any of {args.case}",
                file=sys.stderr,
            )
            return 2

    if args.action == "list":
        from .viz.tables import format_table

        rows = [
            [
                case.case_id,
                case.paper_ref,
                case.scorer,
                case.engine,
                len(case.configs("event")),
                case.title,
            ]
            for case in cases
        ]
        print(
            format_table(
                ["case", "paper", "scorer", "engines", "cells/engine", "claim"],
                rows,
                title=f"{len(rows)} claim case(s) at {preset.name} scale",
            )
        )
        return 0

    update = args.update_expected or eval_dataset.update_expected_requested()
    if update and args.gate:
        print(
            "error: --update-expected rewrites the expectations the gate "
            "checks; run them separately",
            file=sys.stderr,
        )
        return 2
    if update and args.engine is not None:
        print(
            "error: --update-expected needs both engines' ensembles "
            "(run without --engine)",
            file=sys.stderr,
        )
        return 2

    store = ResultStore(args.store)
    data = run_cases(
        cases,
        store,
        engine=args.engine,
        workers=args.workers,
        fork=args.fork,
        queue=args.queue,
        metadata={"preset": preset.name, "engine": args.engine or "both"},
        log=lambda message: print(message, file=sys.stderr),
    )

    if update:
        expected = eval_dataset.load_expected()
        expected.setdefault("cases", {})
        updated = 0
        for case in cases:
            if case.scorer != "band":
                continue
            groups = {}
            for label in case.variant_labels:
                stats = {}
                for stat, floor in sorted(case.param_dict["stats"].items()):
                    ensembles = ensembles_for_update(data, case, stat, label)
                    if not ensembles:
                        continue
                    value, tol = expected_value_and_tolerance(
                        ensembles, floor=floor
                    )
                    stats[stat] = {"value": value, "tol": tol}
                if stats:
                    groups[label] = stats
            if groups:
                expected["cases"][case.case_id] = {"groups": groups}
                updated += 1
        path = eval_dataset.save_expected(expected)
        print(f"recorded expectations for {updated} case(s) in {path}")

    scores = score_run(
        cases, data, tolerance_scale=args.tolerance_scale
    )
    report = build_report(
        scores,
        data,
        preset=preset.name,
        engine=args.engine,
        tolerance_scale=args.tolerance_scale,
    )
    if args.report_path:
        path = write_report(report, args.report_path)
        print(f"report written to {path}", file=sys.stderr)
    print(format_report(report))
    if args.gate:
        return gate_exit(report)
    return 1 if report["run"]["errors"] else 0


def _cmd_obs(args) -> int:
    import json
    from pathlib import Path

    from .obs import report as obs_report
    from .obs import trace as obs_trace

    try:
        if args.obs_action == "tail":
            print(
                obs_report.format_tail(
                    args.target, lines=args.lines, stream=args.stream
                )
            )
            if args.follow:
                try:
                    for line in obs_report.follow_stream(
                        args.target, stream=args.stream, poll_s=args.poll
                    ):
                        print(line, flush=True)
                except KeyboardInterrupt:
                    pass
            return 0
        if args.obs_action == "report":
            if args.fmt == "json":
                print(
                    json.dumps(
                        obs_report.build_report(args.target),
                        sort_keys=True,
                        indent=2,
                    )
                )
            else:
                print(obs_report.format_report(args.target))
            return 0
        if args.obs_action == "series":
            from .obs import series as obs_series

            print(
                obs_series.format_series(
                    args.target,
                    cell=args.cell,
                    column=args.column,
                    round_range=args.round_range,
                )
            )
            return 0
        if args.obs_action == "mem":
            from .obs import mem as obs_mem

            print(obs_mem.format_mem(args.target, top=args.top))
            return 0
        if args.obs_action == "trace":
            if args.trace_action == "tree":
                print(obs_trace.format_tree(args.target, max_depth=args.depth))
            else:
                print(obs_trace.format_critical_path(args.target))
            return 0
        if args.obs_action == "export":
            out = args.out
            target = Path(args.target)
            base = target.parent if target.is_file() else target / "obs"
            if args.fmt == "prometheus":
                text = obs_report.format_prometheus(args.target)
                if out == "-":
                    print(text, end="")
                    return 0
                out = Path(out) if out is not None else base / "metrics.prom"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(text, encoding="utf8")
                print(f"prometheus metrics written to {out}")
                return 0
            if out == "-":
                trace = obs_trace.chrome_trace(obs_trace.load_spans(args.target))
                print(json.dumps(trace, sort_keys=True))
                return 0
            if out is None:
                out = base / "trace_chrome.json"
            path = obs_trace.write_chrome_trace(args.target, out)
            print(
                f"chrome trace written to {path}; open it in "
                "https://ui.perfetto.dev or chrome://tracing"
            )
            return 0
        # diff
        kwargs = {}
        if args.threshold is not None:
            kwargs["threshold"] = args.threshold
        if args.min_total is not None:
            kwargs["min_total_s"] = args.min_total
        diff = obs_report.diff_runs(args.baseline, args.candidate, **kwargs)
        print(obs_report.format_diff(diff))
        if args.gate and diff["regressions"]:
            print(
                f"obs diff gate: FAIL ({len(diff['regressions'])} "
                "regression(s))",
                file=sys.stderr,
            )
            return 1
        if args.gate:
            print("obs diff gate: ok", file=sys.stderr)
        return 0
    except FileNotFoundError as exc:
        # A run dir with no obs/ data: one clear line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profiler = None
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command in ("run", "sweep", "worker", "eval"):
            profiler = _setup_obs(args)
            try:
                if args.command == "run":
                    return _cmd_run(args)
                if args.command == "sweep":
                    return _cmd_sweep(args)
                if args.command == "eval":
                    return _cmd_eval(args)
                return _cmd_worker(args)
            finally:
                _finish_obs(args, profiler)
        if args.command == "queue":
            return _cmd_queue(args)
        if args.command == "checkpoints":
            return _cmd_checkpoints(args)
        if args.command == "results":
            return _cmd_results(args)
        if args.command == "obs":
            return _cmd_obs(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
