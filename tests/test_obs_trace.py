"""Causal span tracing: emission, cross-process propagation (pool
children, fork-mode cells, cluster workers and spawned ``repro worker``
daemons), tree reconstruction, critical-path analysis, Chrome trace
export, tail --follow, and cross-run regression diffing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.experiments.scenario import ScenarioConfig
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import mem as obs_mem
from repro.obs import series as obs_series
from repro.obs import trace as obs_trace
from repro.runtime.cluster import Coordinator, open_queue
from repro.runtime.dispatch import run_sweep
from repro.runtime.runner import ParallelRunner, SweepTask

WORKERS = 2


def _reset_obs() -> None:
    obs_metrics.set_enabled(False)
    obs_metrics.registry().reset()
    obs_log.set_level("off")
    obs_log.set_events_path(None)
    obs.profiling.set_active(False)
    obs._RUN_DIR = None
    obs_trace.set_enabled(False)
    obs_trace.set_spans_path(None)
    obs_trace._STREAM.clear()
    obs_trace._CTX.set(None)
    obs_trace.reset_totals()
    obs_series.set_enabled(False)
    obs_series.set_series_path(None)
    obs_series._STREAM.clear()
    obs_series.reset_cell()
    obs_mem.set_enabled(False)
    obs_mem.reset()
    for var in (
        obs.ENV_LOG,
        obs.ENV_OBS_DIR,
        obs.ENV_PROFILE,
        obs_trace.ENV_CTX,
    ):
        os.environ.pop(var, None)


@pytest.fixture(autouse=True)
def obs_clean():
    yield
    _reset_obs()


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=6,
        height=3,
        failure_round=3,
        reinjection_round=None,
        total_rounds=6,
        metrics=("homogeneity",),
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_tasks(n: int = 4):
    return [
        SweepTask(task_id=f"seed-{seed}", config=tiny_config(seed=seed))
        for seed in range(n)
    ]


def one_trace(spans) -> str:
    """Assert all spans share one trace id and return it."""
    ids = {rec["trace"] for rec in spans}
    assert len(ids) == 1, f"expected one trace id, got {ids}"
    return ids.pop()


# -- shared real runs (expensive; built once) --------------------------------


@pytest.fixture(scope="module")
def pool_run(tmp_path_factory) -> Path:
    """One 2-worker pool sweep traced into a run dir."""
    run_dir = tmp_path_factory.mktemp("pool_run")
    obs.configure(dir=run_dir)
    try:
        ParallelRunner(workers=WORKERS).run(tiny_tasks())
    finally:
        obs_trace.flush()
        _reset_obs()
    return run_dir


@pytest.fixture(scope="module")
def pool_run_twin(tmp_path_factory) -> Path:
    """A second, identically-configured pool sweep (the diff baseline's
    clean candidate)."""
    run_dir = tmp_path_factory.mktemp("pool_run_twin")
    obs.configure(dir=run_dir)
    try:
        ParallelRunner(workers=WORKERS).run(tiny_tasks())
    finally:
        obs_trace.flush()
        _reset_obs()
    return run_dir


# -- span emission -----------------------------------------------------------


class TestSpanEmission:
    def test_disabled_span_is_null_and_writes_nothing(self, tmp_path):
        obs_trace.set_spans_path(tmp_path / "spans.jsonl")
        assert obs_trace.span("anything", key=1) is obs_trace.NULL_SPAN
        with obs_trace.span("anything"):
            pass
        assert obs_trace.flush() == 0
        assert not (tmp_path / "spans.jsonl").exists()

    def test_nested_spans_parent_correctly(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)
        with obs_trace.span("outer", n_tasks=2):
            with obs_trace.span("inner"):
                pass
        obs_trace.flush()
        spans = obs_trace.load_spans(path)
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        one_trace(spans)
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]
        assert outer["attrs"] == {"n_tasks": 2}
        assert inner["dur"] >= 0 and outer["dur"] >= inner["dur"]

    def test_exception_annotates_and_propagates(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)
        with pytest.raises(ValueError):
            with obs_trace.span("doomed"):
                raise ValueError("boom")
        obs_trace.flush()
        [span] = obs_trace.load_spans(path)
        assert span["attrs"]["error"] == "ValueError"

    def test_record_leaf_under_current_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)
        with obs_trace.span("parent"):
            obs_trace.record("kernel.x", time.time(), 0.001)
        obs_trace.flush()
        spans = obs_trace.load_spans(path)
        by_name = {s["name"]: s for s in spans}
        assert by_name["kernel.x"]["parent"] == by_name["parent"]["span"]

    def test_adopt_token_tolerates_garbage(self):
        for bad in (None, "", "notoken", ":", "a:", ":b"):
            with obs_trace.adopt_token(bad):
                assert obs_trace.current() is None
        with obs_trace.adopt_token("t1:s1"):
            assert obs_trace.current() == ("t1", "s1")
            assert obs_trace.context_token() == "t1:s1"
        assert obs_trace.current() is None  # binding restored

    def test_timed_kernels_emit_leaf_spans_when_tracing(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)

        @obs_trace.timed("kernel.test_leaf")
        def kernel():
            return 42

        with obs_trace.span("parent"):
            assert kernel() == 42
        obs_trace.flush()
        names = [s["name"] for s in obs_trace.load_spans(path)]
        assert "kernel.test_leaf" in names

    def test_load_spans_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)
        with obs_trace.span("whole"):
            pass
        obs_trace.flush()
        with open(path, "a", encoding="utf8") as handle:
            handle.write('{"kind": "span", "torn...')
        [span] = obs_trace.load_spans(path)
        assert span["name"] == "whole"


# -- tree reconstruction ------------------------------------------------------


def synth(name, span, parent=None, start=0.0, dur=1.0, **attrs):
    rec = {
        "kind": "span",
        "trace": "t0",
        "span": span,
        "parent": parent,
        "name": name,
        "start": start,
        "dur": dur,
        "pid": 1,
    }
    if attrs:
        rec["attrs"] = attrs
    return rec


class TestTree:
    def test_orphans_are_flagged_not_dropped(self, tmp_path):
        spans = [
            synth("sweep", "a", None, 0.0, 5.0),
            synth("cell", "b", "a", 0.1, 1.0),
            synth("round", "c", "missing-parent", 0.2, 0.5),
        ]
        roots, orphans = obs_trace.build_tree(spans)
        assert [r.name for r in roots] == ["sweep"]
        assert [o.name for o in orphans] == ["round"]
        assert orphans[0].orphan
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "\n".join(json.dumps(s) for s in spans) + "\n", encoding="utf8"
        )
        rendered = obs_trace.format_tree(path)
        assert "1 orphan(s)" in rendered
        assert "[orphaned: parent span missing]" in rendered

    def test_sibling_collapse(self, tmp_path):
        spans = [synth("sweep", "root", None, 0.0, 10.0)]
        for i in range(8):
            spans.append(
                synth("round", f"r{i}", "root", float(i), 1.0, round=i)
            )
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "\n".join(json.dumps(s) for s in spans) + "\n", encoding="utf8"
        )
        rendered = obs_trace.format_tree(path)
        assert "×7 more round" in rendered
        # Only the first sibling renders individually.
        assert rendered.count("round=") == 1


class TestCriticalPath:
    def test_chain_follows_last_finishing_child(self):
        spans = [
            synth("sweep", "root", None, 0.0, 10.0, n_tasks=2),
            synth("cell", "c1", "root", 0.0, 3.0, task_id="t1", worker="w1"),
            synth("cell", "c2", "root", 1.0, 8.5, task_id="t2", worker="w2"),
            synth("round", "r1", "c2", 1.0, 8.0, round=0),
        ]
        analysis = obs_trace.critical_path(spans)
        assert [s["name"] for s in analysis["chain"]] == [
            "sweep", "cell", "round",
        ]
        assert analysis["chain"][1]["attrs"]["task_id"] == "t2"
        assert analysis["wall_s"] == 10.0
        lanes = {w["worker"]: w for w in analysis["workers"]}
        assert set(lanes) == {"w1", "w2"}
        # w1 runs 3s of a 10s window: idle ~70%, biggest gap is the
        # 7s tail after its one cell.
        assert lanes["w1"]["cells"] == 1
        assert lanes["w1"]["idle_frac"] == pytest.approx(0.7)
        assert lanes["w1"]["gap_before"] == "(end of sweep)"
        # w2's biggest gap is the 1s wait before its first cell.
        assert lanes["w2"]["gap_before"] == "t2"

    def test_empty_stream(self):
        assert obs_trace.critical_path([]) == {
            "chain": [],
            "workers": [],
            "wall_s": 0.0,
        }


class TestChromeExport:
    def test_schema(self, tmp_path):
        spans = [
            synth("sweep", "root", None, 100.0, 2.0),
            synth("cell", "c1", "root", 100.5, 1.0, worker="w1", task_id="t"),
        ]
        trace = obs_trace.chrome_trace(spans)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2 and len(meta) == 1
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0  # relative to earliest span
        # The pid hosting a worker-attributed cell is named as a lane.
        assert meta[0]["args"]["name"] == "worker w1"
        [cell] = [e for e in complete if e["name"] == "cell"]
        assert cell["ts"] == pytest.approx(0.5e6)
        assert cell["args"]["parent"] == "root"

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            json.dumps(synth("sweep", "root", None)) + "\n", encoding="utf8"
        )
        out = obs_trace.write_chrome_trace(path, tmp_path / "chrome.json")
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"]


# -- cross-process propagation ------------------------------------------------


class TestPoolPropagation:
    def test_pool_sweep_stitches_into_one_tree(self, pool_run):
        spans = obs_trace.load_spans(pool_run)
        assert spans, "pool sweep recorded no spans"
        one_trace(spans)
        roots, orphans = obs_trace.build_tree(spans)
        assert len(roots) == 1 and roots[0].name == "sweep"
        assert orphans == []
        names = {s["name"] for s in spans}
        assert {"sweep", "cell", "round"} <= names
        cells = [s for s in spans if s["name"] == "cell"]
        assert len(cells) == 4
        assert {c["attrs"]["task_id"] for c in cells} == {
            f"seed-{i}" for i in range(4)
        }
        # Cells ran in pool children: more than one emitting pid total.
        assert len({s["pid"] for s in spans}) > 1

    def test_spawn_children_adopt_env_token(self, tmp_path):
        """The spawn seam itself: a child with no inherited contextvar
        re-joins the sweep through REPRO_TRACE_CTX."""
        obs.configure(dir=tmp_path)
        env = {obs_trace.ENV_CTX: "tid0:sid0"}
        obs.configure_from_env({**env, obs.ENV_OBS_DIR: str(tmp_path)})
        assert obs_trace.current() == ("tid0", "sid0")
        with obs_trace.span("child"):
            pass
        obs_trace.flush()
        [span] = [
            s
            for s in obs_trace.load_spans(tmp_path)
            if s["name"] == "child"
        ]
        assert span["trace"] == "tid0" and span["parent"] == "sid0"


class TestDistributedPropagation:
    def test_two_worker_distributed_sweep_is_one_tree(self, tmp_path):
        run_dir = tmp_path / "run"
        obs.configure(dir=run_dir)
        try:
            run_sweep(
                tiny_tasks(),
                fork=True,
                executor=Coordinator(
                    tmp_path / "q", workers=WORKERS, poll_s=0.05
                ),
            )
        finally:
            obs_trace.flush()
        spans = obs_trace.load_spans(run_dir)
        one_trace(spans)
        roots, orphans = obs_trace.build_tree(spans)
        assert len(roots) == 1 and roots[0].name == "sweep.fork"
        assert orphans == []
        names = {s["name"] for s in spans}
        assert {"sweep.distributed", "checkpoint.publish", "cell", "round"} <= names
        cells = [s for s in spans if s["name"] == "cell"]
        workers = {
            c["attrs"].get("worker")
            for c in cells
            if c["attrs"].get("worker")
        }
        assert workers, "no cell carries a worker identity"

    def test_heartbeat_spans_join_the_manifest_trace(self, tmp_path):
        """The heartbeat thread starts with an empty context; it adopts
        the token the worker read from the queue manifest, so its
        ``queue.heartbeat`` spans hang under the sweep, never new roots."""
        import threading

        from repro.runtime.cluster.queue import TaskSpec
        from repro.runtime.cluster.worker import Worker

        path = tmp_path / "spans.jsonl"
        obs_trace.set_spans_path(path)
        obs_trace.set_enabled(True)
        queue = open_queue(tmp_path / "q")
        queue.publish([TaskSpec(task_id="cell-0", config=tiny_config())])
        lease = queue.claim("w1")
        stop = threading.Event()
        beat = threading.Thread(
            target=Worker(queue, worker_id="w1")._heartbeat_loop,
            args=(lease, 0.01, stop, "tid0:sid0"),
        )
        beat.start()
        time.sleep(0.2)
        stop.set()
        beat.join()
        obs_trace.flush()
        beats = [
            s for s in obs_trace.load_spans(path) if s["name"] == "queue.heartbeat"
        ]
        assert beats
        assert {(s["trace"], s["parent"]) for s in beats} == {("tid0", "sid0")}

    def test_spawned_worker_daemon_joins_trace_via_env_and_manifest(
        self, tmp_path
    ):
        """A real ``repro worker`` subprocess — sharing no fork state
        with the coordinator — picks the obs config up from the
        environment and the trace parent from the queue manifest."""
        run_dir = tmp_path / "run"
        queue_path = tmp_path / "q"
        obs.configure(dir=run_dir)
        try:
            run_sweep(
                tiny_tasks(2),
                fork=True,
                executor=Coordinator(queue_path, workers=1, join=False),
            )
        finally:
            obs_trace.flush()
        manifest = open_queue(queue_path).manifest()
        assert manifest.get("trace"), "manifest carries no trace token"

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        env[obs.ENV_OBS_DIR] = str(run_dir)
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--queue",
                str(queue_path),
                "--worker-id",
                "daemon-1",
                "--poll",
                "0.05",
            ],
            env=env,
            check=True,
            timeout=300,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert open_queue(queue_path).is_complete()
        spans = obs_trace.load_spans(run_dir)
        one_trace(spans)
        roots, orphans = obs_trace.build_tree(spans)
        assert len(roots) == 1 and roots[0].name == "sweep.fork"
        assert orphans == []
        # The grid's cells all ran in the daemon; any other cell spans
        # are the coordinator's local prefix-checkpoint computations.
        cells = [s for s in spans if s["name"] == "cell"]
        daemon_cells = [
            c for c in cells if c["attrs"].get("worker") == "daemon-1"
        ]
        assert {c["attrs"]["task_id"] for c in daemon_cells} == {
            "seed-0",
            "seed-1",
        }


# -- tail --follow ------------------------------------------------------------


class TestFollowStream:
    def test_yields_appends_and_buffers_torn_lines(self, tmp_path):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        path = obs_dir / "events.jsonl"
        line1 = json.dumps(
            {"kind": "event", "ts": "t", "level": "info", "event": "one"}
        )
        line2 = json.dumps(
            {"kind": "event", "ts": "t", "level": "info", "event": "two"}
        )
        torn, rest = line2[:10], line2[10:]
        path.write_text(line1 + "\n" + torn, encoding="utf8")

        polls = {"n": 0}

        def stop():
            polls["n"] += 1
            return polls["n"] > 200  # safety valve

        gen = obs_report.follow_stream(
            tmp_path, stream="events", poll_s=0.01, stop=stop, from_start=True
        )
        first = next(gen)
        assert "one" in first  # torn tail not yielded yet
        with open(path, "a", encoding="utf8") as handle:
            handle.write(rest + "\n")
        second = next(gen)
        assert "two" in second
        gen.close()

    def test_stop_without_data_terminates(self, tmp_path):
        lines = list(
            obs_report.follow_stream(
                tmp_path, stream="events", poll_s=0.01, stop=lambda: True
            )
        )
        assert lines == []


# -- diffing ------------------------------------------------------------------


class TestDiff:
    def test_identical_data_does_not_regress(self, pool_run, tmp_path):
        same = obs_report.write_scaled_copy(pool_run, tmp_path / "same", 1.0)
        diff = obs_report.diff_runs(pool_run, same)
        assert diff["rows"], "copied run shares no histograms"
        assert diff["regressions"] == []
        assert diff["counters"] == []

    def test_twin_runs_pass_under_jitter_tolerant_floors(
        self, pool_run, pool_run_twin
    ):
        """Two real runs of the same grid: sub-millisecond histograms
        jitter hard on a busy host, so this asserts the *configurable*
        contract — generous floors keep honest twins green."""
        diff = obs_report.diff_runs(
            pool_run, pool_run_twin, threshold=5.0, min_total_s=0.5
        )
        assert diff["rows"], "twin runs share no histograms"
        assert diff["regressions"] == []

    def test_scaled_copy_regresses_and_counters_stay_informational(
        self, pool_run, tmp_path
    ):
        slow = obs_report.write_scaled_copy(pool_run, tmp_path / "slow", 4.0)
        diff = obs_report.diff_runs(pool_run, slow)
        assert diff["regressions"], "4x slowdown not flagged"
        # Counter deltas never regress anything on their own.
        assert all(r["regressed"] for r in diff["regressions"])
        rendered = obs_report.format_diff(diff)
        assert "REGRESSED" in rendered

    def test_span_histograms_fold_into_diff(self, pool_run):
        hists = obs_report._diff_hists(pool_run)
        assert any(name.startswith("span.") for name in hists)
        assert "span.cell" in hists
        cell = hists["span.cell"]
        assert cell["count"] == 4
        assert cell["min"] <= cell["p50"] <= cell["p95"] <= cell["max"]

    def test_missing_obs_data_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no obs data"):
            obs_report.diff_runs(tmp_path, tmp_path)


# -- CLI surfaces -------------------------------------------------------------


class TestCli:
    def test_trace_tree_and_critical_path(self, pool_run, capsys):
        assert cli_main(["obs", "trace", "tree", str(pool_run)]) == 0
        out = capsys.readouterr().out
        assert "1 root(s), 0 orphan(s)" in out
        assert "sweep" in out
        assert cli_main(["obs", "trace", "critical-path", str(pool_run)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "worker utilisation" in out

    def test_export_default_path(self, pool_run, capsys):
        assert cli_main(["obs", "export", str(pool_run), "--format", "chrome"]) == 0
        out_path = pool_run / "obs" / "trace_chrome.json"
        assert out_path.is_file()
        trace = json.loads(out_path.read_text())
        assert trace["traceEvents"]
        assert "perfetto" in capsys.readouterr().out

    def test_export_chrome_to_stdout(self, pool_run, tmp_path, capsys, monkeypatch):
        """``--out -`` means stdout for the chrome format as for
        prometheus: the trace is printed, no file named ``-`` appears."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(
            ["obs", "export", str(pool_run), "--format", "chrome", "--out", "-"]
        ) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["traceEvents"]
        assert not (tmp_path / "-").exists()

    def test_watch_is_tail_follow(self):
        """Following a stream is ``obs tail --follow``; there is no
        second subcommand for it."""
        args = build_parser().parse_args(["obs", "tail", "r", "--follow"])
        assert args.follow
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "watch", "r"])

    def test_tail_spans_stream(self, pool_run, capsys):
        assert cli_main(
            ["obs", "tail", str(pool_run), "--stream", "spans", "--lines", "5"]
        ) == 0
        assert "span " in capsys.readouterr().out

    def test_diff_gate_exit_codes(self, pool_run, tmp_path, capsys):
        same = obs_report.write_scaled_copy(pool_run, tmp_path / "same", 1.0)
        assert cli_main(
            ["obs", "diff", str(pool_run), str(same), "--gate"]
        ) == 0
        assert "obs diff gate: ok" in capsys.readouterr().err
        slow = obs_report.write_scaled_copy(pool_run, tmp_path / "slow", 4.0)
        assert cli_main(
            ["obs", "diff", str(pool_run), str(slow), "--gate"]
        ) == 1
        assert "obs diff gate: FAIL" in capsys.readouterr().err

    def test_missing_data_is_one_clear_line(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["obs", "trace", "tree", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no span stream found")
        assert "Traceback" not in captured.err
        assert cli_main(["obs", "report", str(empty)]) == 1
        assert capsys.readouterr().err.startswith("error: no metrics stream")
