"""Tests for the per-round metrics recorder."""

import csv

import pytest

from repro.core.protocol import StaticHolderLayer
from repro.metrics.collector import MetricsRecorder
from repro.spaces import FlatTorus

from .helpers import grid_coords, make_sim

TORUS = FlatTorus(4.0, 2.0)


def recorded_sim(metrics=("homogeneity", "storage", "message_cost")):
    # The static holder gives the nodes the placement the metrics read.
    sim, factory, points = make_sim(
        TORUS, grid_coords(4, 2), layers=[StaticHolderLayer()]
    )
    recorder = MetricsRecorder(TORUS, points, metrics=metrics)
    sim.observers.append(recorder)
    return sim, recorder


class TestRecorder:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            MetricsRecorder(TORUS, [], metrics=("latency",))

    def test_records_each_round(self):
        sim, recorder = recorded_sim()
        sim.run(4)
        assert len(recorder.n_alive) == 4
        for name in recorder.metrics:
            assert len(recorder.series[name]) == 4

    def test_only_requested_metrics(self):
        sim, recorder = recorded_sim(metrics=("storage",))
        sim.run(2)
        assert set(recorder.series) == {"storage"}

    def test_message_cost_from_meter(self):
        sim, recorder = recorded_sim(metrics=("message_cost",))
        sim.meter.charge("tman", 80.0)
        sim.step()
        assert recorder.series["message_cost"][0] == pytest.approx(10.0)

    def test_alive_counts_track_failures(self):
        sim, recorder = recorded_sim(metrics=("storage",))
        sim.schedule(1, lambda s: s.network.fail([0, 1], s.round))
        sim.run(2)
        assert recorder.n_alive == [8, 6]

    def test_rows_and_header_consistent(self):
        sim, recorder = recorded_sim()
        sim.run(2)
        rows = recorder.rows()
        header = recorder.header()
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][0] == 0 and rows[1][0] == 1

    def test_write_csv(self, tmp_path):
        sim, recorder = recorded_sim(metrics=("storage",))
        sim.run(3)
        path = tmp_path / "series.csv"
        recorder.write_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "n_alive", "storage"]
        assert len(rows) == 4
