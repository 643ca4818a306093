"""One sweep: the plan × executor equivalence matrix.

``run_sweep`` is resume filter → bind the fork plan (or not) → hand the
tasks to an executor.  Every combination of ``plan ∈ {cold, fork}`` and
``executor ∈ {inline, pool, queue drained inline, queue drained by two
processes}`` must store exactly what the serial run stores; a resumed
run must execute only the pending cells *and simulate only their
prefixes*; an errored prefix or a damaged checkpoint must cost time,
never a result — on both executors, because the plan is bound in one
place.  Also here: the two bugs the old per-mode schedulers had (a queue
run ignored ``fork``; dead local workers were waited on for ever) and
the structural "one path" checks the CI lint job greps for.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ClusterError
from repro.experiments.scenario import ScenarioConfig
from repro.obs import metrics as obs_metrics
from repro.runtime.cluster import (
    Coordinator,
    Worker,
    diff_stores,
    drain_queue,
    merge_queue,
    open_queue,
)
from repro.runtime.dispatch import ExecOptions, execute_scenarios, run_sweep
from repro.runtime.forksweep import (
    CheckpointCache,
    PrefixTask,
    clear_checkpoint_memo,
)
from repro.runtime.runner import ParallelRunner, grid_tasks
from repro.runtime.store import ResultStore, summary_digest

SRC = Path(__file__).resolve().parents[1] / "src"

PLANS = ("cold", "fork")
EXECUTORS = ("inline", "pool", "queue-inline", "queue-procs")


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=5,
        reinjection_round=12,
        total_rounds=16,
        metrics=("homogeneity",),
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def grid():
    """2 × 2: two seeds (two Phase-1 prefixes), each failing at two
    fractions (two cells sharing that prefix)."""
    return grid_tasks(
        small_config(), {"seed": (0, 1), "failure_fraction": (0.25, 0.5)}
    )


N_PREFIXES = 2


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serial") / "serial.jsonl")
    ParallelRunner(workers=1).run(grid(), store=store, run_id="serial")
    return store


def make_executor(kind: str, tmp_path, **queue_options):
    if kind == "inline":
        return ParallelRunner(workers=1)
    if kind == "pool":
        return ParallelRunner(workers=2)
    workers = 1 if kind == "queue-inline" else 2
    return Coordinator(
        tmp_path / "q", workers=workers, poll_s=0.02, **queue_options
    )


def cache_of(executor, tmp_path) -> CheckpointCache:
    """The cache a sweep on ``executor`` forks through: the queue's own
    shared directory, or an explicit local one."""
    return CheckpointCache(executor.cache_root or tmp_path / "ck")


def sweep(executor, tmp_path, plan="fork", tasks=None, store=None, run_id="run"):
    store = store or ResultStore(tmp_path / "store.jsonl")
    cells = run_sweep(
        grid() if tasks is None else tasks,
        fork=plan == "fork",
        executor=executor,
        cache=cache_of(executor, tmp_path),
        store=store,
        run_id=run_id,
    )
    return cells, store


def checkpoints(cache: CheckpointCache):
    return sorted(cache.root.glob("*.ckpt")) if cache.root.is_dir() else []


# -- the matrix ----------------------------------------------------------------


@pytest.mark.parametrize("kind", EXECUTORS)
@pytest.mark.parametrize("plan", PLANS)
def test_every_plan_on_every_executor_stores_the_serial_run(
    plan, kind, tmp_path, serial
):
    executor = make_executor(kind, tmp_path)
    cells, store = sweep(executor, tmp_path, plan)

    assert [cell.task_id for cell in cells] == [t.task_id for t in grid()]
    assert diff_stores(serial, store, run_a="serial", run_b="run") == []
    by_id = {rec["task_id"]: rec for rec in serial.cells(run_id="serial")}
    for record in store.cells(run_id="run"):
        assert summary_digest(record) == summary_digest(by_id[record["task_id"]])
    # ``fork`` means the same thing wherever the cells ran.
    forked = [bool(cell.forked_from) for cell in cells]
    assert forked == [plan == "fork"] * len(cells)
    assert [bool(r["forked_from"]) for r in store.cells(run_id="run")] == forked
    assert len(checkpoints(cache_of(executor, tmp_path))) == (
        N_PREFIXES if plan == "fork" else 0
    )


@pytest.mark.parametrize("kind", EXECUTORS)
def test_resumed_run_executes_pending_cells_and_only_their_prefixes(
    kind, tmp_path, serial
):
    """WHEN a run that finished the seed-0 cells is resumed, fork plan,
    THEN only the seed-1 cells execute and only seed 1's Phase 1 is
    simulated — the resume filter runs before planning."""
    tasks = grid()
    store = ResultStore(tmp_path / "store.jsonl")
    ParallelRunner(workers=1).run(tasks[:2], store=store, run_id="run")

    executor = make_executor(kind, tmp_path)
    cells, _ = sweep(executor, tmp_path, tasks=tasks, store=store)

    assert [cell.task_id for cell in cells] == [t.task_id for t in tasks[2:]]
    assert all(cell.forked_from for cell in cells)
    assert len(checkpoints(cache_of(executor, tmp_path))) == 1
    assert store.completed("run") == {t.task_id for t in tasks}
    assert diff_stores(serial, store, run_a="serial", run_b="run") == []

    # Resuming the finished run plans, publishes and runs nothing.
    again, _ = sweep(make_executor(kind, tmp_path), tmp_path, store=store)
    assert again == []
    assert len(checkpoints(cache_of(executor, tmp_path))) == 1


@pytest.fixture
def cell_metrics():
    obs_metrics.set_enabled(True)
    yield
    obs_metrics.set_enabled(False)
    obs_metrics.registry().reset()


@pytest.mark.parametrize("kind", ("inline", "queue-inline"))
def test_errored_prefix_runs_its_cells_cold(
    kind, tmp_path, serial, monkeypatch, cell_metrics
):
    """WHEN every prefix simulation raises, THEN the sweep still
    completes: each cell is a continuation with no fork point, falls
    back cold and says so in ``cells.cold``."""

    def explode(self):
        raise RuntimeError("prefix exploded on purpose")

    monkeypatch.setattr(PrefixTask, "run", explode)
    executor = make_executor(kind, tmp_path)
    cells, store = sweep(executor, tmp_path)

    assert all(cell.ok and cell.forked_from is None for cell in cells)
    assert [cell.metrics["counters"]["cells.cold"] for cell in cells] == [1] * 4
    assert checkpoints(cache_of(executor, tmp_path)) == []
    assert diff_stores(serial, store, run_a="serial", run_b="run") == []


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:100])


def _flip_a_bit(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("damage", (_truncate, _flip_a_bit))
@pytest.mark.parametrize("kind", ("inline", "queue-inline"))
def test_damaged_checkpoint_runs_cold_and_is_discarded(
    kind, damage, tmp_path, serial, cell_metrics
):
    """WHEN a parked fork point is damaged after the plan was bound to
    its digest, THEN its cells run cold, the file is discarded, and the
    intact prefix's cells still fork."""
    executor = make_executor(kind, tmp_path)
    cache = cache_of(executor, tmp_path)
    sweep(ParallelRunner(workers=1), tmp_path, store=ResultStore(tmp_path / "warm.jsonl"))
    if kind != "inline":  # park the same fork points in the queue's cache
        cache.root.parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "ck").rename(cache.root)
    victim, intact = checkpoints(cache)
    damage(victim)
    clear_checkpoint_memo()

    cells, store = sweep(executor, tmp_path)

    cold = [cell for cell in cells if cell.forked_from is None]
    assert len(cold) == 2 and len({cell.seed for cell in cold}) == 1
    assert all(cell.metrics["counters"]["cells.cold"] == 1 for cell in cold)
    assert not victim.exists() and intact.exists()
    assert diff_stores(serial, store, run_a="serial", run_b="run") == []


# -- bugfix: a queue run honours ``fork`` ------------------------------------


SMOKE_GRID = [
    "--scale", "smoke", "--engine", "batch", "--ks", "2", "--seeds", "2",
    "--failure-fractions", "0.25,0.5", "--reinjection", "off",
]


@pytest.fixture(scope="module")
def smoke_serial(tmp_path_factory):
    path = tmp_path_factory.mktemp("smoke") / "serial.jsonl"
    assert main(["sweep", *SMOKE_GRID, "--store", str(path)]) == 0
    return ResultStore(path)


@pytest.mark.parametrize("fork", (False, True))
def test_cli_queue_sweep_honours_fork_and_records_it(
    fork, tmp_path, smoke_serial, capsys
):
    """``repro sweep --queue Q`` publishes cold cells and simulates no
    Phase 1 on the publisher; with ``--fork`` it publishes fork cells
    bound to one parked checkpoint per prefix.  The run's metadata says
    which happened."""
    queue_path, store_path = tmp_path / "q", tmp_path / "queue.jsonl"
    argv = ["sweep", *SMOKE_GRID, "--queue", str(queue_path), "--store", str(store_path)]
    assert main(argv + (["--fork"] if fork else [])) == 0
    assert "sweep over 4 cells" in capsys.readouterr().out

    queue = open_queue(queue_path)
    assert {spec.kind for spec in queue.tasks()} == {"fork" if fork else "cold"}
    store = ResultStore(store_path)
    [run] = store.runs()
    assert run["metadata"]["fork"] is fork
    assert [bool(c["forked_from"]) for c in store.cells(status="ok")] == [fork] * 4
    assert len(checkpoints(CheckpointCache(queue.cache_root()))) == (2 if fork else 0)
    assert diff_stores(smoke_serial, store) == []


@pytest.mark.parametrize("fork", (False, True))
def test_execute_scenarios_on_a_queue_honours_fork(fork, tmp_path):
    configs = [task.config for task in grid()]
    queue_path = tmp_path / "q"
    results = execute_scenarios(
        configs, ExecOptions(queue=str(queue_path), fork=fork)
    )
    serial = execute_scenarios(configs)
    assert [r.series for r in results] == [r.series for r in serial]
    queue = open_queue(queue_path)
    assert {spec.kind for spec in queue.tasks()} == {"fork" if fork else "cold"}
    assert [bool(r["forked_from"]) for r in queue.cell_records()] == [fork] * 4
    assert len(checkpoints(CheckpointCache(queue.cache_root()))) == (
        N_PREFIXES if fork else 0
    )


# -- bugfix: dead local workers are reported ------------------------------------


def _die(queue_path, **kwargs):
    os._exit(3)


def test_dead_local_workers_are_reported_not_waited_on(
    tmp_path, serial, monkeypatch
):
    """WHEN every local worker process dies without claiming anything
    and no one else holds a lease, THEN draining raises — naming the
    exit codes — instead of polling the incomplete queue for ever, and
    the queue is still there for any worker to finish."""
    from repro.runtime.cluster import coordinator

    tasks = grid()
    queue = open_queue(tmp_path / "q")
    Coordinator(queue, lease_s=30).publish(tasks, run_id="run")
    monkeypatch.setattr(coordinator, "run_worker", _die)

    started = time.monotonic()
    with pytest.raises(ClusterError, match=r"exited with codes \[3, 3\]"):
        drain_queue(queue, workers=2, poll_s=0.02)
    assert time.monotonic() - started < 30  # well under a lease
    assert not queue.is_complete()

    stats = Worker(queue, worker_id="rescuer", poll_s=0.02).run()
    assert stats.cells_ok == len(tasks) and queue.is_complete()
    merged = ResultStore(tmp_path / "merged.jsonl")
    assert not merge_queue(queue, merged).missing
    assert diff_stores(serial, merged, run_a="serial") == []


# -- the frozen benchmark's call ------------------------------------------------


def test_run_cases_keeps_the_keywords_the_benchmark_calls_it_with(
    tmp_path, monkeypatch
):
    """``bench/child.py`` calls ``run_cases(cases, store, engine="batch",
    fork=True)`` and shims ``eval.runner.execute_scenarios`` as a module
    global: both must keep working."""
    from repro.eval import claim_cases, run_cases
    from repro.eval import runner as eval_runner

    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "checkpoints"))
    seen = []
    real = eval_runner.execute_scenarios

    def shim(configs, options):
        seen.append(options)
        return real(configs, options)

    monkeypatch.setattr(eval_runner, "execute_scenarios", shim)
    cases = claim_cases("smoke", include_equivalence=False)[:1]
    store = ResultStore(tmp_path / "store.jsonl")
    data = run_cases(cases, store, engine="batch", fork=True)

    assert seen == [ExecOptions(fork=True)]
    assert data.executed > 0 and not data.run_errors
    assert checkpoints(CheckpointCache(tmp_path / "checkpoints"))
    again = run_cases(cases, store, engine="batch", fork=True)
    assert again.executed == 0 and again.cached == data.executed


# -- one path ---------------------------------------------------------------------


def _sources(*roots: str):
    for root in roots:
        for path in sorted((SRC / "repro" / root).rglob("*.py")):
            yield path, path.read_text(encoding="utf8")


def _call_counts() -> Counter:
    """How often each name is *called* under ``src/`` (calls, not
    definitions or mentions in prose)."""
    counts: Counter = Counter()
    for _path, text in _sources(""):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                counts[getattr(func, "id", None) or getattr(func, "attr", None)] += 1
    return counts


def test_one_planner_call_one_prefix_constructor_one_strict_collector():
    counts = _call_counts()
    for name in (
        "plan_fork_sweep",
        "PrefixTask",
        "collect_scenario_results",
        "bind_fork_plan",
    ):
        assert counts[name] == 1, name


def test_the_per_mode_schedulers_are_gone():
    gone = re.compile(
        r"def (run_scenarios|fork_scenarios|distributed_scenarios|"
        r"run_fork_sweep|run_distributed_sweep)\b|mp_context|DistributedRun"
    )
    hits = [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path, text in _sources("")
        for match in gone.finditer(text)
    ]
    assert hits == []


def test_only_run_cases_spells_the_exec_parameters_out():
    """Everything under ``experiments`` and ``eval`` takes one
    ``ExecOptions``; ``run_cases`` alone keeps the four keywords, for
    the frozen benchmark."""
    spelled = []
    for path, text in _sources("experiments", "eval"):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                names = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
                if names & {"workers", "fork", "queue"}:
                    spelled.append(
                        f"{path.name}::{getattr(node, 'name', '<lambda>')}"
                    )
    assert spelled == ["runner.py::run_cases"]
    from repro.eval.runner import run_cases

    assert list(inspect.signature(run_cases).parameters)[:6] == [
        "cases", "store", "engine", "workers", "fork", "queue",
    ]


def test_cli_sweep_picks_no_runner_itself():
    from repro import cli

    body = inspect.getsource(cli._cmd_sweep)
    assert body.count("run_sweep(") == 1
    assert "if args.fork" not in body and "args.distributed" not in body
    assert "ParallelRunner" not in body and "Coordinator" not in body


@pytest.mark.parametrize(
    "module",
    (
        "repro.runtime.dispatch",
        "repro.runtime.cluster.worker",
        "repro.experiments.scenario",
        "repro.experiments.suite",
        "repro.eval.runner",
    ),
)
def test_import_cycle_resolves_from_every_entry_point(module):
    """``experiments`` imports ``runtime.dispatch`` at module top and
    ``runtime`` imports ``experiments.scenario``: whichever side a fresh
    interpreter enters through, the import must complete."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
