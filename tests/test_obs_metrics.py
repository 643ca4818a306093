"""Metrics registry: counters, gauges, histograms, timers, flushing."""

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
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry, timed


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
    obs_series.set_enabled(False)
    obs_series.set_series_path(None)
    obs_series._STREAM.clear()
    obs_series.reset_cell()
    obs_mem.set_enabled(False)
    obs_mem.reset()
    for var in (
        obs.ENV_LOG,
        obs.ENV_OBS_DIR,
        obs.ENV_OBS,
        obs.ENV_PROFILE,
        obs_trace.ENV_CTX,
    ):
        os.environ.pop(var, None)


class TestHistogram:
    def test_five_number_summary(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(6.0)
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_empty_snapshot_has_finite_bounds(self):
        snap = Histogram().snapshot()
        assert snap == {
            "count": 0,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "res": [],
        }

    def test_merge_is_exact(self):
        """Merging per-process snapshots equals observing everything in
        one histogram — exactly for count/sum/min/max/mean (the
        property the obs report's aggregation rests on); the percentile
        reservoirs carry the same sample here (both under cap) merely
        in a different order."""
        a, b, whole = Histogram(), Histogram(), Histogram()
        for i, v in enumerate([0.5, 4.0, 1.5, 2.5, 0.1]):
            (a if i % 2 else b).observe(v)
            whole.observe(v)
        merged = Histogram()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        got, want = merged.snapshot(), whole.snapshot()
        for key in ("count", "sum", "min", "max", "mean", "p50", "p95", "p99"):
            assert got[key] == want[key], key
        assert sorted(got["res"]) == sorted(want["res"])

    def test_percentiles_from_reservoir(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100, fewer than fits exactly? no: cap 64
            h.observe(float(v))
        snap = h.snapshot()
        # Reservoir is an unbiased sample; with values spanning 1..100
        # the estimates must land inside the observed range and be
        # ordered.
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert 1.0 <= snap["p50"] <= snap["p95"] <= snap["p99"] <= 100.0
        assert len(snap["res"]) == obs_metrics.RESERVOIR_CAP

    def test_percentiles_exact_when_under_cap(self):
        h = Histogram()
        for v in range(1, 21):  # 20 values, cap is 64 -> exact sample
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["p50"] == 10.0
        assert snap["p95"] == 19.0
        assert snap["p99"] == 20.0

    def test_merging_empty_snapshot_is_noop(self):
        h = Histogram()
        h.observe(1.0)
        before = h.snapshot()
        h.merge_snapshot(Histogram().snapshot())
        assert h.snapshot() == before


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x", 4)
        assert reg.counter_value("x") == 5
        assert reg.counter_value("absent") == 0

    def test_gauge_last_wins_gauge_max_keeps_peak(self):
        reg = MetricsRegistry()
        reg.gauge("g", 10.0)
        reg.gauge("g", 3.0)
        reg.gauge_max("peak", 10.0)
        reg.gauge_max("peak", 3.0)
        snap = reg.snapshot()
        assert snap["gauges"]["g"] == 3.0
        assert snap["gauges"]["peak"] == 10.0

    def test_timer_records_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        h = reg.hist("t")
        assert h["count"] == 1
        assert h["min"] >= 0.0

    def test_timer_nesting_same_name_is_independent(self):
        """Nested timings of one name are separate observations with
        the outer >= the inner (each ``timer`` call returns a fresh
        instance)."""
        reg = MetricsRegistry()
        with reg.timer("t"):
            with reg.timer("t"):
                pass
        h = reg.hist("t")
        assert h["count"] == 2
        assert h["max"] >= h["min"]

    def test_reset_and_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.count("x")
        reg.observe("h", 1.0)
        reg.gauge("g", 1.0)
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()

    def test_merge_snapshot_counters_add_gauges_max(self):
        reg = MetricsRegistry()
        reg.count("c", 2)
        reg.gauge("g", 5.0)
        reg.merge_snapshot({"counters": {"c": 3}, "gauges": {"g": 1.0}})
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 5.0

    def test_thread_safety_under_contention(self):
        """Concurrent counting/observing from many threads loses no
        updates (the worker heartbeat thread shares the registry with
        the drain loop)."""
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def pound():
            for _ in range(per_thread):
                reg.count("c")
                reg.observe("h", 1.0)

        threads = [threading.Thread(target=pound) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("c") == n_threads * per_thread
        assert reg.hist("h")["count"] == n_threads * per_thread


class TestModuleFastPath:
    def test_disabled_records_nothing(self):
        obs_metrics.registry().reset()
        obs_metrics.set_enabled(False)
        obs_metrics.count("x")
        obs_metrics.observe("h", 1.0)
        obs_metrics.gauge("g", 1.0)
        with obs_metrics.timer("t"):
            pass
        assert obs_metrics.registry().is_empty()

    def test_disabled_timer_is_the_null_singleton(self):
        obs_metrics.set_enabled(False)
        assert obs_metrics.timer("t") is obs_metrics.NULL_TIMER

    def test_enabled_records(self):
        obs_metrics.registry().reset()
        obs_metrics.set_enabled(True)
        obs_metrics.count("x", 2)
        with obs_metrics.timer("t"):
            pass
        reg = obs_metrics.registry()
        assert reg.counter_value("x") == 2
        assert reg.hist("t")["count"] == 1


class TestTimedDecorator:
    def test_preserves_function_and_marks_wrapper(self):
        @timed("kernel.probe")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        assert add.__obs_timed__ == "kernel.probe"
        assert add.__wrapped__(3, 4) == 7
        assert add.__name__ == "add"

    def test_times_only_when_enabled(self):
        @timed("kernel.probe2")
        def work():
            return 42

        obs_metrics.registry().reset()
        obs_metrics.set_enabled(False)
        work()
        assert obs_metrics.registry().hist("kernel.probe2") is None
        obs_metrics.set_enabled(True)
        work()
        work()
        assert obs_metrics.registry().hist("kernel.probe2")["count"] == 2

    def test_records_even_when_the_kernel_raises(self):
        @timed("kernel.boom")
        def boom():
            raise ValueError("x")

        obs_metrics.registry().reset()
        obs_metrics.set_enabled(True)
        with pytest.raises(ValueError):
            boom()
        assert obs_metrics.registry().hist("kernel.boom")["count"] == 1

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
        reg.observe("h", float(i))
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
            obs.ENV_OBS: "1",
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
