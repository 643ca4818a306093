"""Structured event logging: levels, context binding, sinks, readers."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import stream as obs_stream
from repro.obs import trace as obs_trace
from repro.obs.report import format_report, format_tail, load_metrics_records


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
    obs_trace.set_enabled(False)
    obs_trace.set_spans_path(None)
    obs_trace._STREAM.clear()
    for var in (obs.ENV_LOG, obs.ENV_OBS_DIR, obs.ENV_PROFILE):
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

    def test_format_tail_holds_only_the_last_n_records(self, tmp_path, monkeypatch):
        """Tailing a 100k-line stream keeps N records, never the whole
        stream: at most N (+ the one being read) are alive at once."""
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(
                f'{{"kind":"event","level":"info","event":"e","i":{i}}}\n'
                for i in range(100_000)
            )
        )
        live = {"now": 0, "peak": 0}

        class Tracked(dict):
            def __init__(self, record):
                super().__init__(record)
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])

            def __del__(self):
                live["now"] -= 1

        real_read = obs_stream.read
        monkeypatch.setattr(
            obs_report._stream, "read", lambda p: map(Tracked, real_read(p))
        )
        tail = format_tail(tmp_path, lines=5)
        assert "(last 5 of stream)" in tail and "i=99999" in tail
        assert live["peak"] <= 5 + 1

    def test_format_report_sections_and_aggregation(self, tmp_path):
        """Two flushed cell lines aggregate: counters add, each span name
        is one exact row (counts add across cells), and names land in
        their prefix sections."""
        obs.configure(dir=tmp_path, export_env=False)
        for _ in range(2):
            obs_metrics.registry().reset()
            obs_metrics.count("rounds", 10)
            with obs_trace.span("round"):
                obs_trace.record("kernel.split.basic", 0.0, 0.001)
            obs.flush_cell_metrics()
        report = format_report(tmp_path)
        assert "Spans" in report
        assert "Kernels" in report
        assert "rounds" in report and "| 20 " in report
        # Aggregated across both cells: the round row counts 2.
        round_row = next(
            l for l in report.splitlines() if l.startswith("round ")
        )
        assert "| 2 " in round_row

    def test_format_report_reads_profile_json(self, tmp_path):
        from repro.obs.profiling import Profiler

        obs_metrics.set_enabled(True)
        obs_metrics.registry().reset()
        obs_metrics.count("checkpoint.hit", 3)
        prof = Profiler(top=5)
        prof.start()
        sum(range(1000))
        prof.write(tmp_path / "profile.json")
        report = format_report(tmp_path / "profile.json")
        assert "Counters" in report and "checkpoint.hit" in report
        data = json.loads((tmp_path / "profile.json").read_text())
        assert data["kind"] == "profile"
        assert data["peak_rss_bytes"] > 0
        assert data["peak_tracked_bytes"] == obs.mem.total_peak()
        assert "peak_array_bytes" not in data
        assert isinstance(data["hot_functions"], list)

    def test_load_metrics_records_raises_when_nothing_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_metrics_records(tmp_path / "void")
