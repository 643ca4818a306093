"""Structured event logging: levels, context binding, sinks, readers."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.report import (
    format_report,
    format_tail,
    load_jsonl,
    load_metrics_records,
    resolve_events_path,
    resolve_metrics_path,
)


@pytest.fixture(autouse=True)
def obs_clean():
    yield
    obs_metrics.set_enabled(False)
    obs_metrics.registry().reset()
    obs_log.set_level("off")
    obs_log.set_events_path(None)
    obs.profiling.set_active(False)
    obs._RUN_DIR = None
    obs.series.set_enabled(False)
    obs.series.set_series_path(None)
    obs.series._STREAM.clear()
    obs.series.reset_cell()
    obs.mem.set_enabled(False)
    obs.mem.reset()
    for var in (obs.ENV_LOG, obs.ENV_OBS_DIR, obs.ENV_OBS, obs.ENV_PROFILE):
        os.environ.pop(var, None)


class TestLevels:
    def test_parse_level_names(self):
        assert obs_log.parse_level("debug") == obs_log.DEBUG
        assert obs_log.parse_level("WARN") == obs_log.WARNING
        assert obs_log.parse_level("off") == obs_log.OFF
        assert obs_log.parse_level(None) == obs_log.OFF
        assert obs_log.parse_level("nonsense") == obs_log.OFF

    def test_disabled_emits_nothing(self, capsys):
        obs_log.set_level("off")
        obs_log.info("should.vanish", x=1)
        obs_log.error("also.vanishes")
        assert capsys.readouterr().err == ""

    def test_stderr_gated_by_level(self, capsys):
        obs_log.set_level("warning")
        obs_log.info("below.threshold")
        obs_log.warning("at.threshold", n=2)
        err = capsys.readouterr().err
        assert "below.threshold" not in err
        assert "at.threshold" in err
        assert "n=2" in err


class TestBinding:
    def test_bind_merges_and_restores(self):
        assert obs_log.context() == {}
        with obs_log.bind(run="r1"):
            with obs_log.bind(task="t1"):
                assert obs_log.context() == {"run": "r1", "task": "t1"}
            assert obs_log.context() == {"run": "r1"}
        assert obs_log.context() == {}

    def test_bound_fields_ride_on_records(self, tmp_path):
        events = tmp_path / "events.jsonl"
        obs_log.set_events_path(events)
        with obs_log.bind(worker="w9"):
            obs_log.info("probe", extra=1)
        record = json.loads(events.read_text())
        assert record["worker"] == "w9"
        assert record["extra"] == 1
        assert record["event"] == "probe"

    def test_explicit_fields_shadow_bound_context(self, tmp_path):
        events = tmp_path / "events.jsonl"
        obs_log.set_events_path(events)
        with obs_log.bind(task="bound"):
            obs_log.info("probe", task="explicit")
        assert json.loads(events.read_text())["task"] == "explicit"


class TestFileSink:
    def test_file_records_all_levels_regardless_of_stderr_level(
        self, tmp_path, capsys
    ):
        """The on-disk stream is complete even when the console is
        quiet: stderr shows warnings only, events.jsonl gets debug."""
        events = tmp_path / "events.jsonl"
        obs_log.set_level("warning")
        obs_log.set_events_path(events)
        obs_log.debug("quiet.detail")
        obs_log.warning("loud.warning")
        err = capsys.readouterr().err
        assert "quiet.detail" not in err
        levels = [json.loads(l)["event"] for l in events.read_text().splitlines()]
        assert levels == ["quiet.detail", "loud.warning"]

    def test_unserialisable_fields_fall_back_to_repr(self, tmp_path):
        events = tmp_path / "events.jsonl"
        obs_log.set_events_path(events)
        obs_log.info("probe", weird={1, 2})
        record = json.loads(events.read_text())
        assert "1" in record["weird"] and "2" in record["weird"]


class TestReaders:
    def test_load_jsonl_skips_torn_lines(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"a": 1}\n{"broken...\n{"b": 2}\n{"torn tail')
        records = load_jsonl(path)
        assert records == [{"a": 1}, {"b": 2}]

    def test_resolvers_accept_run_dir_obs_dir_and_file(self, tmp_path):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        events = obs_dir / "events.jsonl"
        metrics = obs_dir / "metrics.jsonl"
        events.write_text("{}\n")
        metrics.write_text("{}\n")
        assert resolve_events_path(tmp_path) == events
        assert resolve_events_path(obs_dir) == events
        assert resolve_events_path(events) == events
        assert resolve_metrics_path(tmp_path) == metrics
        assert resolve_events_path(tmp_path / "nowhere") is None

    def test_format_tail_renders_events_and_metrics(self, tmp_path):
        obs.configure(dir=tmp_path, log_level="debug", export_env=False)
        obs_log.info("hello.world", n=1)
        obs_metrics.count("c", 2)
        obs.flush_cell_metrics({"task_id": "cell-0"})
        tail = format_tail(tmp_path, lines=5)
        assert "hello.world" in tail and "n=1" in tail
        mtail = format_tail(tmp_path, lines=5, stream="metrics")
        assert "task_id=cell-0" in mtail and "1 counters" in mtail

    def test_format_tail_missing_stream(self, tmp_path):
        assert "no events stream" in format_tail(tmp_path / "void")

    def test_format_report_sections_and_aggregation(self, tmp_path):
        """Two flushed cell lines aggregate: counters add, histogram
        counts add, and names land in their prefix sections."""
        obs.configure(dir=tmp_path, export_env=False)
        for _ in range(2):
            obs_metrics.registry().reset()
            obs_metrics.count("rounds", 10)
            obs_metrics.observe("round.wall", 0.5)
            obs_metrics.observe("kernel.split.basic", 0.001)
            obs_metrics.observe("unprefixed.thing", 1.0)
            obs.flush_cell_metrics()
        report = format_report(tmp_path)
        assert "Per-round phases" in report
        assert "Kernels" in report
        assert "Other distributions" in report
        assert "rounds" in report
        # Aggregated across both lines: round.wall count is 2.
        wall_row = next(
            l for l in report.splitlines() if l.startswith("wall")
        )
        assert "| 2 " in wall_row

    def test_format_report_reads_profile_json(self, tmp_path):
        from repro.obs.profiling import Profiler

        obs_metrics.set_enabled(True)
        obs_metrics.registry().reset()
        obs_metrics.observe("round.wall", 0.25)
        prof = Profiler(top=5)
        prof.start()
        sum(range(1000))
        prof.write(tmp_path / "profile.json")
        report = format_report(tmp_path / "profile.json")
        assert "Per-round phases" in report
        data = json.loads((tmp_path / "profile.json").read_text())
        assert data["kind"] == "profile"
        assert data["peak_rss_bytes"] > 0
        assert data["peak_tracked_bytes"] == obs.mem.total_peak()
        assert "peak_array_bytes" not in data
        assert isinstance(data["hot_functions"], list)

    def test_load_metrics_records_raises_when_nothing_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_metrics_records(tmp_path / "void")
