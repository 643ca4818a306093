"""Metrics registry (counters), flushing, per-cell scope and\nconfiguration; the ``@timed`` kernel spans; exact timing rows."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro import obs
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import mem as obs_mem
from repro.obs import series as obs_series
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import timed


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test leaves observability exactly as it found it: off."""
    yield
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


class TestHistogram:
    """A timing row (``report._exact_hist``): the exact summary of every
    duration one span name recorded."""

    def test_five_number_summary(self):
        snap = obs_report._exact_hist([3.0, 1.0, 2.0])
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(6.0)
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_merge_is_exact(self, tmp_path):
        """Spans of one name from several processes pool into one row
        equal to summarising every duration at once — percentiles
        included, since nothing is sampled."""
        path = tmp_path / "spans.jsonl"
        durs = [0.5, 4.0, 1.5, 2.5, 0.1]
        path.write_text(
            "".join(
                json.dumps(
                    {"kind": "span", "span": f"s{i}", "parent": None,
                     "name": "round", "dur": dur, "pid": 100 + i % 2}
                ) + "\n"
                for i, dur in enumerate(durs)
            )
        )
        rows = obs_report.timing_rows(path)
        assert rows == {"span.round": obs_report._exact_hist(durs)}

    def test_percentiles_exact_when_under_cap(self):
        snap = obs_report._exact_hist([float(v) for v in range(1, 21)])
        assert snap["p50"] == 10.0
        assert snap["p95"] == 19.0
        assert snap["p99"] == 20.0


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x", 4)
        assert reg.counter_value("x") == 5
        assert reg.counter_value("absent") == 0

    def test_reset_and_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.count("x")
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()

    def test_merge_snapshot_counters_add_gauges_max(self):
        """Merging adds counters; a snapshot's other sections are not
        the registry's to keep."""
        reg = MetricsRegistry()
        reg.count("c", 2)
        reg.merge_snapshot({"counters": {"c": 3, "d": 1}, "hists": {"h": {}}})
        assert reg.snapshot() == {"counters": {"c": 5, "d": 1}}

    def test_thread_safety_under_contention(self):
        """Concurrent counting from many threads loses no updates (the
        worker heartbeat thread shares the registry with the drain
        loop)."""
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def pound():
            for _ in range(per_thread):
                reg.count("c")

        threads = [threading.Thread(target=pound) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("c") == n_threads * per_thread


class TestModuleFastPath:
    def test_disabled_records_nothing(self):
        obs_metrics.registry().reset()
        obs_metrics.set_enabled(False)
        obs_metrics.count("x")
        assert obs_metrics.registry().is_empty()

    def test_enabled_records(self):
        obs_metrics.registry().reset()
        obs_metrics.set_enabled(True)
        obs_metrics.count("x", 2)
        assert obs_metrics.registry().counter_value("x") == 2


class TestTimedDecorator:
    def test_preserves_function_and_marks_wrapper(self):
        @timed("kernel.probe")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        assert add.__obs_timed__ == "kernel.probe"
        assert add.__wrapped__(3, 4) == 7
        assert add.__name__ == "add"

    def test_times_only_when_enabled(self, tmp_path):
        @timed("kernel.probe2")
        def work():
            return 42

        obs_trace.set_spans_path(tmp_path / "spans.jsonl")
        work()
        assert "kernel.probe2" not in obs_trace.totals()
        obs_trace.set_enabled(True)
        work()
        work()
        assert obs_trace.totals()["kernel.probe2"][0] == 2
        obs_trace.flush()
        spans = obs_trace.load_spans(tmp_path)
        assert [s["name"] for s in spans] == ["kernel.probe2"] * 2
        # Stream durations are rounded to the nanosecond.
        assert obs_trace.totals()["kernel.probe2"][1] == pytest.approx(
            sum(s["dur"] for s in spans), abs=1e-8
        )

    def test_records_even_when_the_kernel_raises(self):
        @timed("kernel.boom")
        def boom():
            raise ValueError("x")

        obs_trace.set_enabled(True)
        with pytest.raises(ValueError):
            boom()
        assert obs_trace.totals()["kernel.boom"][0] == 1

    @pytest.mark.parametrize("which", ["advanced", "pd", "md"])
    @pytest.mark.parametrize(
        "coords", [[(1.0, 1.0)], [(2.0, 2.0)] * 3], ids=["one-point", "degenerate"]
    )
    def test_one_split_is_one_timed_call(self, which, coords):
        """A SPLIT that falls back on the basic rule (a pool under two
        points, all points identical, or MD's basic partition) is still
        one timed call: no nested ``kernel.split.basic`` span."""
        from repro.core.split import make_split
        from repro.spaces import Euclidean
        from repro.types import DataPoint

        points = [DataPoint(i, c) for i, c in enumerate(coords)]
        obs_trace.set_enabled(True)
        make_split(which)(Euclidean(2), points, (0.0, 0.0), (4.0, 0.0))
        assert {n: c for n, (c, _) in obs_trace.totals().items()} == {
            f"kernel.split.{which}": 1
        }

    def test_shipped_kernels_are_wrapped(self):
        from repro.core import split as core_split
        from repro.sim.batch import kernels as batch_kernels

        assert core_split.split_basic.__obs_timed__ == "kernel.split.basic"
        assert (
            batch_kernels.merge_rank_truncate.__obs_timed__
            == "kernel.merge_rank_truncate"
        )


def _flush_lines(path, worker):
    """Child body for the concurrent-flush test (module-level: pickles
    under spawn)."""
    reg = MetricsRegistry()
    for i in range(50):
        reg.count("cells", 1)
        obs_metrics.flush(path, ctx={"worker": worker}, snapshot=reg.snapshot())


class TestFlush:
    def test_flush_appends_one_parseable_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        reg = MetricsRegistry()
        reg.count("c", 1)
        record = obs_metrics.flush(path, ctx={"task": "t1"}, snapshot=reg.snapshot())
        assert record["kind"] == "metrics"
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["ctx"] == {"task": "t1"}
        assert parsed["counters"] == {"c": 1}

    def test_metrics_line_carries_counters_only(self, tmp_path):
        """An instrumented cell's metrics line is its counters: every
        duration it measured is a span, not a registry entry."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        obs.configure(dir=tmp_path, export_env=False)
        config = ScenarioConfig(
            width=6, height=3, failure_round=3, reinjection_round=None,
            total_rounds=4, metrics=("homogeneity",), seed=0,
        )
        sim, *_ = prepare_scenario(config)
        sim.run(config.total_rounds)
        snap = obs.flush_cell_metrics({"task_id": "c"})
        assert set(snap) == {"counters"}
        assert snap["counters"]["rounds"] == 4
        [line] = (tmp_path / "obs" / "metrics.jsonl").read_text().splitlines()
        assert set(json.loads(line)) == {"kind", "ts", "ctx", "counters"}
        names = {s["name"] for s in obs_trace.load_spans(tmp_path)}
        assert {"round", "observers", "layer.tman"} <= names

    def test_concurrent_flushers_interleave_whole_lines(self, tmp_path):
        """O_APPEND single-write flushing: many processes appending to
        one metrics.jsonl never tear each other's lines."""
        path = str(tmp_path / "metrics.jsonl")
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_flush_lines, args=(path, f"w{i}"))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        lines = open(path).read().splitlines()
        assert len(lines) == 4 * 50
        for line in lines:
            json.loads(line)  # every line parses — no interleaving


class TestCellScope:
    def test_reset_for_cell_clears_registry_and_binds_context(self):
        obs_metrics.set_enabled(True)
        obs_metrics.count("stale", 9)
        with obs.reset_for_cell(task_id="cell-1", seed=7):
            assert obs_metrics.registry().is_empty()
            assert obs_log.context() == {"task_id": "cell-1", "seed": 7}
        assert obs_log.context() == {}

    def test_flush_cell_metrics_disabled_returns_none(self):
        obs_metrics.set_enabled(False)
        assert obs.flush_cell_metrics() is None

    def test_flush_cell_metrics_empty_registry_returns_none(self):
        obs_metrics.set_enabled(True)
        obs_metrics.registry().reset()
        assert obs.flush_cell_metrics() is None

    def test_flush_cell_metrics_writes_and_returns_snapshot(self, tmp_path):
        obs.configure(dir=tmp_path, export_env=False)
        obs_metrics.count("c", 3)
        with obs_log.bind(task_id="cell-9"):
            snap = obs.flush_cell_metrics({"status": "ok"})
        assert snap["counters"]["c"] == 3
        lines = (tmp_path / "obs" / "metrics.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["ctx"] == {"task_id": "cell-9", "status": "ok"}


class TestConfigure:
    def test_configure_exports_env_for_children(self, tmp_path):
        obs.configure(log_level="info", dir=tmp_path, profile=True)
        assert os.environ[obs.ENV_LOG] == "info"
        assert os.environ[obs.ENV_OBS_DIR] == str(tmp_path)
        assert os.environ[obs.ENV_PROFILE] == "1"
        assert obs_metrics.ENABLED  # dir implies metrics

    def test_configure_from_env_adopts_without_reexport(self, tmp_path):
        env = {
            obs.ENV_LOG: "warning",
            obs.ENV_OBS_DIR: str(tmp_path),
        }
        obs.configure_from_env(env)
        assert obs_log.LEVEL == obs_log.WARNING
        assert obs.metrics_path() == tmp_path / "obs" / "metrics.jsonl"
        assert obs_metrics.ENABLED

    def test_none_arguments_leave_settings_untouched(self, tmp_path):
        obs.configure(log_level="debug", dir=tmp_path, export_env=False)
        obs.configure(export_env=False)
        assert obs_log.LEVEL == obs_log.DEBUG
        assert obs.run_dir() == tmp_path
