"""Per-round series telemetry and the memory ledger: schema stability,
round monotonicity per cell, ledger-vs-tracemalloc cross-checks, live
watch over a writing process, the mem gate, Prometheus export, the
JSON report, series-aware diffing, and the reservoir env knob."""

from __future__ import annotations

import importlib.util
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.experiments.scenario import ScenarioConfig
from repro.obs import log as obs_log
from repro.obs import mem as obs_mem
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import series as obs_series
from repro.obs import trace as obs_trace
from repro.runtime.runner import ParallelRunner, SweepTask

WORKERS = 2

#: Top-level keys every series record must carry, and the full set a
#: record may carry — the schema-stability contract external tooling
#: (the CI parse checks, dashboards) relies on.
SERIES_REQUIRED = {"kind", "ctx", "round", "wall_s", "layers", "splits"}
SERIES_ALLOWED = SERIES_REQUIRED | {
    "messages",
    "nodes",
    "kernels",
    "exchanges",
    "mem",
    "probes",
}


@pytest.fixture(autouse=True)
def obs_clean():
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
    obs_series.set_probe_every(10)
    obs_mem.set_enabled(False)
    obs_mem.reset()
    obs_metrics.set_reservoir_cap(64)
    for var in (
        obs.ENV_LOG,
        obs.ENV_OBS_DIR,
        obs.ENV_OBS,
        obs.ENV_PROFILE,
        obs_trace.ENV_CTX,
        obs_series.ENV_SERIES_EVERY,
        obs_metrics.ENV_RESERVOIR,
    ):
        os.environ.pop(var, None)


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=6,
        height=3,
        failure_round=3,
        reinjection_round=None,
        total_rounds=8,
        metrics=("homogeneity",),
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _run_cells(tmp_path, n=2, workers=1, **overrides):
    obs.configure(dir=tmp_path, export_env=(workers > 1))
    tasks = [
        SweepTask(task_id=f"cell-{s}", config=tiny_config(seed=s, **overrides))
        for s in range(n)
    ]
    ParallelRunner(workers=workers).run(tasks)
    return tmp_path


class TestSeriesSchema:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_one_record_per_round_with_stable_schema(self, tmp_path, engine):
        _run_cells(tmp_path, n=1, engine=engine)
        records = obs_series.load_series(tmp_path)
        assert len(records) == 8
        for rec in records:
            keys = set(rec)
            assert SERIES_REQUIRED <= keys
            assert keys <= SERIES_ALLOWED, keys - SERIES_ALLOWED
            assert rec["kind"] == "series"
            assert rec["ctx"]["task_id"] == "cell-0"
            assert rec["wall_s"] >= 0.0
            assert set(rec["layers"]) == {"rps", "tman", "polystyrene"}
            assert rec["nodes"]["live"] + rec["nodes"]["dead"] == 18

    def test_rounds_monotonic_per_cell_across_workers(self, tmp_path):
        _run_cells(tmp_path, n=3, workers=WORKERS)
        records = obs_series.load_series(tmp_path)
        cells = {r["ctx"]["task_id"] for r in records}
        assert cells == {"cell-0", "cell-1", "cell-2"}
        for cell in cells:
            rounds = [
                r["round"] for r in records if r["ctx"]["task_id"] == cell
            ]
            assert rounds == sorted(rounds)
            assert rounds == list(range(8))

    def test_batch_records_carry_kernels_exchanges_and_mem(self, tmp_path):
        _run_cells(tmp_path, n=1, engine="batch")
        records = obs_series.load_series(tmp_path)
        assert any("kernels" in r for r in records)
        assert any("exchanges" in r for r in records)
        with_mem = [r for r in records if "mem" in r]
        assert with_mem
        fam = with_mem[-1]["mem"]
        assert any(v["peak"] > 0 for v in fam.values())

    def test_probes_at_cadence(self, tmp_path):
        obs_series.set_probe_every(4)
        _run_cells(tmp_path, n=1)
        records = obs_series.load_series(tmp_path)
        probed = {r["round"] for r in records if "probes" in r}
        # Observer fires when sim.round % every == 0; round 0's probe is
        # staged before any record exists, so rounds 4 (and 0) carry it.
        assert 4 in probed
        rec = next(r for r in records if r["round"] == 4)
        assert {"homogeneity", "proximity", "holder_multiplicity"} <= set(
            rec["probes"]
        )

    def test_failure_round_shows_in_node_counts(self, tmp_path):
        _run_cells(tmp_path, n=1)
        records = obs_series.load_series(tmp_path)
        dead = {r["round"]: r["nodes"]["dead"] for r in records}
        assert dead[2] == 0
        assert dead[3] > 0  # the catastrophic failure at round 3

    def test_series_cli_table_and_filters(self, tmp_path, capsys):
        _run_cells(tmp_path, n=2, engine="batch")
        assert cli_main(["obs", "series", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out and "2 cell(s)" in out
        assert any(ch in out for ch in obs_series.SPARK_CHARS)
        assert (
            cli_main(
                [
                    "obs", "series", str(tmp_path),
                    "--cell", "cell-1",
                    "--column", "nodes.live",
                    "--round-range", "2:5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "nodes.live" in out
        assert "4 round record(s), rounds 2..5, 1 cell(s)" in out


class TestSeriesInvariance:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_digest_identical_with_series_and_ledger(self, tmp_path, engine):
        from repro.experiments.scenario import prepare_scenario
        from repro.runtime import checkpoint as ckpt

        def digest():
            sim, *_ = prepare_scenario(tiny_config(engine=engine))
            sim.run(8)
            return ckpt.state_digest(sim)

        plain = digest()
        obs.configure(dir=tmp_path, export_env=False)
        assert obs_series.ENABLED and obs_mem.ENABLED
        assert digest() == plain


class TestMemLedger:
    def test_node_table_growth_matches_nbytes_delta(self):
        from repro.sim.arrays import NodeTable

        obs_mem.set_enabled(True)
        obs_mem.reset()
        table = NodeTable()
        before = table.nbytes
        for i in range(500):
            table.add(i, (float(i), 0.0))
        snap = obs_mem.snapshot()
        tracked = snap["families"]["node_table"]["cur"]
        assert tracked == table.nbytes - before

    def test_ledger_scratch_within_tracemalloc_envelope(self):
        """The padded-kernel scratch accounting agrees with what the
        allocator actually hands out: for a synthetic merge block the
        ledger's tracked scratch bytes are a lower bound on (and within
        4x of) tracemalloc's peak for the call."""
        from repro.sim.batch import kernels
        from repro.spaces.torus import FlatTorus

        rng = np.random.default_rng(0)
        n_rows, width, cap = 64, 120, 40
        space = FlatTorus(16.0, 8.0)
        pos = rng.integers(0, 8, (n_rows, 2)).astype(float)
        ids = rng.integers(0, n_rows, (n_rows, width)).astype(np.int64)
        coords = rng.integers(0, 8, (n_rows, width, 2)).astype(float)
        ages = rng.integers(0, 50, (n_rows, width)).astype(np.int64)
        valid = np.ones((n_rows, width), dtype=bool)
        obs_mem.set_enabled(True)
        obs_mem.reset()
        tracemalloc.start()
        try:
            kernels.merge_rank_truncate(
                space, pos, ids, coords, valid, cap, n_rows, ages
            )
            _, tm_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        snap = obs_mem.snapshot()
        tracked = snap["families"]["kernel_pads"]["peak"]
        assert tracked > 0
        assert tracked <= tm_peak
        assert tm_peak < 4 * tracked + (1 << 20)

    def test_merge_scratch_sites_report_one_block_not_the_network(self):
        """The merge pad and kernel scratch (``tman.merge_pad``,
        ``keep_last_per_row.dense``, ``merge_rank_truncate.out``) and
        the groom, partner-ranking and exchange-pool blocks account each
        row block on its own: the site peak is the largest block, and
        shrinking the blocks shrinks it while the event count grows."""
        from unittest import mock

        from repro.experiments.scenario import prepare_scenario
        from repro.sim.batch import kernels

        sites = (
            "tman.merge_pad",
            "keep_last_per_row.dense",
            "merge_rank_truncate.out",
            "tman.rank_block",
            "tman.exchange_pool",
            "tman.groom",
            "rps.bootstrap_keys",
            "rps.merge_block",
        )

        def ledger(rows_per_block):
            obs_mem.reset()
            obs_mem.set_enabled(True)
            with mock.patch.object(
                kernels, "block_rows", lambda *_: rows_per_block
            ):
                sim, *_ = prepare_scenario(
                    tiny_config(width=12, height=6, engine="batch")
                )
                sim.run(4)
            obs_mem.set_enabled(False)
            return obs_mem.snapshot()["sites"]

        whole, blocked = ledger(1 << 30), ledger(8)
        for site in sites:
            # Up to 72 receivers in blocks of 8 rows: the largest block
            # is at most a ninth of the one whole-network block (and
            # count-sorted blocks are narrower than the global width).
            assert blocked[site]["events"] > 4 * whole[site]["events"]
            assert 9 * blocked[site]["peak"] <= whole[site]["peak"]
        for name in sites:
            family = {"tman": "topology_pads", "rps": "rps_pads"}.get(
                name.split(".")[0], "kernel_pads"
            )
            assert blocked[name]["family"] == family
        # The round's messages are what stays whole-network, in both
        # layers and at any block size; the views are persistent state.
        for name in ("rps.messages", "tman.messages"):
            assert blocked[name]["peak"] == whole[name]["peak"] > 0
            assert blocked[name]["events"] == whole[name]["events"] == 4
        assert blocked["rps.views"] == whole["rps.views"]
        assert blocked["rps.views"]["family"] == "rps_views"
        assert blocked["rps.views"]["cur"] == 2 * 8 * 72 * 20  # ids + ages
        assert blocked["take_rows.index"]["family"] == "kernel_pads"
        # ``take_rows``' flat index is as large as its caller's pick:
        # one block in the topology stages, so the peak falls with the
        # block size (down to the whole-network picks of ``rps.step``).
        assert blocked["take_rows.index"]["events"] > whole["take_rows.index"]["events"]
        assert 4 * blocked["take_rows.index"]["peak"] <= whole["take_rows.index"]["peak"]

    @pytest.mark.parametrize("fill", ["every-row-full", "ragged"])
    def test_merge_harvest_and_take_rows_are_byte_exact(self, fill):
        """``merge_rank_truncate.out`` is the bytes of the blocks the
        kernel returns — on the masked harvest and on the no-mask
        return alike — and ``take_rows.index`` the bytes of one pick."""
        from repro.sim.batch import kernels
        from repro.spaces import FlatTorus

        rng = np.random.default_rng(3)
        n, width, cap = 6, 12, 5
        ids_pad = np.argsort(rng.random((n, width)), axis=1)
        valid = np.ones((n, width), dtype=bool)
        if fill == "ragged":
            valid[::2, 2:] = False
        coords_pad = rng.integers(0, 8, (n, width, 2)) / 2.0
        ages_pad = rng.integers(0, 9, (n, width))
        obs_mem.reset()
        obs_mem.set_enabled(True)
        out = kernels.merge_rank_truncate(
            FlatTorus(16.0, 8.0), coords_pad[:, 0], np.where(valid, ids_pad, -1),
            coords_pad, valid, cap, width, ages_pad,
        )
        obs_mem.set_enabled(False)
        sites = obs_mem.snapshot()["sites"]
        assert [o.shape[:2] for o in out] == [(n, cap)] * 3
        assert sites["merge_rank_truncate.out"]["peak"] == sum(o.nbytes for o in out)
        assert sites["take_rows.index"]["peak"] == 8 * n * cap

    def test_observer_pads_report_one_block_not_lost_times_network(self):
        """Every blocked stage's site records its block's co-live bytes,
        and on a 160x80 batch cell none exceeds ``_COLIVE_MAX`` scratch
        budgets — the lost-point distance block of ``homogeneity`` is
        one ``block_rows`` block, not ``lost x n``; the topology, peer
        sampling and proximity blocks likewise.  The merge pad alone may
        add the last-writer table of its row floor (one row of it is
        network-sized)."""
        from repro.experiments.scenario import prepare_scenario
        from repro.metrics.homogeneity import lost_points
        from repro.sim.arrays import (
            _COLIVE_MAX,
            _MIN_BLOCK_ROWS,
            _SCRATCH_BYTES,
            block_rows,
        )

        obs_mem.reset()
        obs_mem.set_enabled(True)
        config = ScenarioConfig(
            engine="batch", width=160, height=80, seed=1, failure_round=2,
            reinjection_round=None, total_rounds=3,
            metrics=("homogeneity", "proximity"),
        )
        sim, _, _, points, _ = prepare_scenario(config)
        sim.run(config.total_rounds)
        obs_mem.set_enabled(False)
        snap = obs_mem.snapshot()
        sites = snap["sites"]

        n = sim.network.n_alive
        lost = len(lost_points(points, sim.network.alive_nodes(), sim.placement))
        assert lost < len(points) // 2  # the failed half's, not everything
        rows = block_rows(0, n, sim.space.dim, 1)
        assert lost > 4 * rows  # several blocks' worth of lost points
        nearest = sites["homogeneity.nearest"]
        assert nearest["family"] == "observer_pads"
        # The torus kernel holds three (rows, n) float blocks at once.
        assert nearest["peak"] == 3 * 8 * rows * n
        assert 4 * nearest["peak"] < 8 * lost * n

        budget = _COLIVE_MAX * _SCRATCH_BYTES
        # Peer sampling: 12,800 nodes are thousands of oracle blocks and
        # dozens of merge blocks a round.
        for name, blocks in (("rps.bootstrap_keys", 400), ("rps.merge_block", 90)):
            assert sites[name]["family"] == "rps_pads"
            assert sites[name]["events"] >= blocks
        # Topology: the groom, partner ranking and exchange pools are
        # blocks of alive rows; the merge pad a block of receivers.
        for name, blocks in (
            ("tman.groom", 15), ("tman.rank_block", 45), ("tman.exchange_pool", 90),
        ):
            assert sites[name]["family"] == "topology_pads"
            assert sites[name]["events"] >= blocks
        stride = 1 + max(sim.network.nodes)
        stages = [
            name for name, site in sites.items()
            if site["family"] in ("topology_pads", "rps_pads", "observer_pads")
            and not name.endswith(".messages")
        ]
        assert len(stages) == 8
        for name in stages:
            floor = 4 * _MIN_BLOCK_ROWS * stride if name == "tman.merge_pad" else 0
            assert sites[name]["peak"] <= budget + floor, name

        pad = sites["proximity.distance_pad"]
        assert pad["family"] == "observer_pads"
        assert pad["events"] > config.total_rounds  # several blocks a round
        assert snap["families"]["observer_pads"]["peak"] == max(
            nearest["peak"], pad["peak"]
        )

    def test_peak_round_attribution(self):
        obs_mem.set_enabled(True)
        obs_mem.reset()
        obs_mem.set_round(3)
        obs_mem.scratch("kernel_pads", "site.a", 1000)
        obs_mem.set_round(7)
        obs_mem.scratch("kernel_pads", "site.a", 5000)
        obs_mem.set_round(9)
        obs_mem.scratch("kernel_pads", "site.a", 200)
        snap = obs_mem.snapshot()
        assert snap["families"]["kernel_pads"]["peak"] == 5000
        assert snap["families"]["kernel_pads"]["peak_round"] == 7
        assert snap["sites"]["site.a"]["peak_round"] == 7
        assert snap["sites"]["site.a"]["events"] == 3

    def test_mem_json_merges_across_cells_and_cli_renders(
        self, tmp_path, capsys
    ):
        _run_cells(tmp_path, n=2, workers=WORKERS, engine="batch")
        doc = obs_mem.load_mem(tmp_path)
        assert doc["total"]["peak"] > 0
        assert "topology_pads" in doc["families"]
        assert any(
            s["family"] == "topology_pads" for s in doc["sites"].values()
        )
        assert doc["peak_rss_bytes"] >= 0
        assert cli_main(["obs", "mem", str(tmp_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "peak tracked bytes" in out
        assert "tman.merge_pad" in out


def _load_perf_smoke():
    path = Path(__file__).parent.parent / "benchmarks" / "perf_smoke.py"
    spec = importlib.util.spec_from_file_location("perf_smoke", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestMemGate:
    @pytest.fixture()
    def smoke(self, tmp_path, monkeypatch):
        mod = _load_perf_smoke()
        tiny = dict(mod.ENGINE_GATE_CELL)
        tiny.update(width=8, height=4, failure_round=3, total_rounds=8)
        monkeypatch.setattr(mod, "ENGINE_GATE_CELL", tiny)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        monkeypatch.setattr(mod, "BASELINE_PATH", baseline)
        return mod

    def test_record_then_pass(self, smoke, capsys):
        assert smoke.mem_gate(1.25, record=True) == 0
        recorded = json.loads(smoke.BASELINE_PATH.read_text())["mem_gate"]
        assert recorded["peak_tracked_bytes"] > 0
        assert recorded["families"]
        assert smoke.mem_gate(1.25, record=False) == 0
        assert "OK: tracked peak" in capsys.readouterr().out

    def test_fail_when_over_budget(self, smoke, capsys):
        assert smoke.mem_gate(1.25, record=True) == 0
        doc = json.loads(smoke.BASELINE_PATH.read_text())
        doc["mem_gate"]["peak_tracked_bytes"] //= 10
        smoke.BASELINE_PATH.write_text(json.dumps(doc))
        assert smoke.mem_gate(1.25, record=False) == 1
        assert "FAIL: tracked peak" in capsys.readouterr().out

    def test_fail_without_baseline(self, smoke, capsys):
        assert smoke.mem_gate(1.25, record=False) == 1
        assert "no mem_gate baseline" in capsys.readouterr().out

    def test_gate_leaves_obs_disabled(self, smoke):
        smoke.mem_gate(1.25, record=True)
        assert not obs_mem.ENABLED
        assert not obs_metrics.ENABLED
        assert obs_mem.is_empty()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc")
    def test_paper_profile_names_the_step_that_set_the_high_water(
        self, smoke, monkeypatch, capsys
    ):
        tiny = dict(smoke.PAPER_MEM_CELL, width=8, height=4, failure_round=3, total_rounds=6)
        monkeypatch.setattr(smoke, "PAPER_MEM_CELL", tiny)
        assert smoke.mem_profile_paper(record=True) == 0
        out = capsys.readouterr().out
        assert "per round: VmRSS / VmHWM" in out and "round  5" in out
        rounds = json.loads(smoke.BASELINE_PATH.read_text())["paper_memory_profile"][
            "rounds_vm_mb"
        ]
        assert [r["round"] for r in rounds] == list(range(6))
        assert all(0 < r["rss"] <= r["hwm"] for r in rounds)
        hwm = [r["hwm"] for r in rounds]
        assert hwm == sorted(hwm)  # a high-water mark only rises
        names = {"rps", "tman", "polystyrene", "other"}
        assert all(set(r["raised_by"]) <= names for r in rounds)

        monkeypatch.setattr(smoke, "_status_mb", lambda: None)
        assert smoke.mem_profile_paper(record=False) == 0
        assert "skipped (no /proc/self/status here)" in capsys.readouterr().out


class TestWatch:
    def test_follow_stream_over_live_series_writer(self, tmp_path):
        """`repro obs watch` semantics: a reader polling series.jsonl
        sees every record a concurrently flushing writer appends,
        including ones written after the reader started."""
        path = tmp_path / "obs" / "series.jsonl"
        obs_series.set_series_path(path)

        def write_round(rnd):
            obs_series._STREAM.add(
                {
                    "kind": "series",
                    "ctx": {"task_id": "w"},
                    "round": rnd,
                    "wall_s": 0.001 * (rnd + 1),
                    "layers": {},
                    "splits": 0,
                }
            )
            obs_series.flush()

        write_round(0)
        seen = []
        done = threading.Event()

        def reader():
            polls = [0]

            def stop():
                polls[0] += 1
                return len(seen) >= 3 or polls[0] > 100

            for line in obs_report.follow_stream(
                tmp_path, stream="series", poll_s=0.01,
                stop=stop, from_start=True,
            ):
                seen.append(line)
            done.set()

        t = threading.Thread(target=reader)
        t.start()
        write_round(1)
        write_round(2)
        assert done.wait(timeout=10.0)
        t.join()
        assert len(seen) == 3
        assert seen[0].startswith("series round=0")
        assert "wall=1.0ms" in seen[0]
        assert seen[2].startswith("series round=2")

    def test_torn_trailing_line_is_buffered_not_lost(self, tmp_path):
        path = tmp_path / "obs" / "series.jsonl"
        path.parent.mkdir(parents=True)
        rec = json.dumps({"kind": "series", "round": 0, "wall_s": 0.5})
        path.write_text(rec + "\n" + rec[: len(rec) // 2])
        calls = [0]

        def stop():
            calls[0] += 1
            if calls[0] == 2:
                # The writer finishes the torn line between polls.
                with path.open("a") as fh:
                    fh.write(rec[len(rec) // 2 :] + "\n")
            return calls[0] > 4

        lines = list(
            obs_report.follow_stream(
                tmp_path, stream="series", poll_s=0.01,
                stop=stop, from_start=True,
            )
        )
        assert len(lines) == 2


class TestPrometheusExport:
    def test_exposition_format_lint(self, tmp_path):
        _run_cells(tmp_path, n=1, engine="batch")
        text = obs_report.format_prometheus(tmp_path)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines
        typed = set()
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "summary")
                assert name not in typed, f"duplicate TYPE for {name}"
                typed.add(name)
                continue
            assert not line.startswith("#")
            name_part, _, value = line.rpartition(" ")
            float(value)  # every sample value parses
            metric = name_part.split("{", 1)[0]
            assert metric.replace("_", "").isalnum()
            assert metric.startswith("repro_")
        # Counters carry the _total suffix convention.
        assert any(n.endswith("_total") for n in typed)
        # Summaries expose quantile + _count + _sum series.
        assert any('quantile="0.5"' in line for line in lines)
        sample_names = {
            line.rpartition(" ")[0].split("{", 1)[0]
            for line in lines
            if not line.startswith("#")
        }
        assert any(n.endswith("_count") for n in sample_names)
        assert any(n.endswith("_sum") for n in sample_names)

    def test_export_cli_writes_prom_file_and_stdout(self, tmp_path, capsys):
        _run_cells(tmp_path, n=1)
        assert (
            cli_main(
                ["obs", "export", str(tmp_path), "--format", "prometheus"]
            )
            == 0
        )
        capsys.readouterr()
        prom = tmp_path / "obs" / "metrics.prom"
        assert prom.is_file()
        assert "# TYPE repro_rounds_total counter" in prom.read_text()
        assert (
            cli_main(
                [
                    "obs", "export", str(tmp_path),
                    "--format", "prometheus", "--out", "-",
                ]
            )
            == 0
        )
        assert "repro_rounds_total 8" in capsys.readouterr().out


class TestReportJson:
    def test_report_format_json(self, tmp_path, capsys):
        _run_cells(tmp_path, n=2)
        assert (
            cli_main(["obs", "report", str(tmp_path), "--format", "json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "report"
        assert doc["records"] == 2
        assert doc["counters"]["rounds"] == 16
        assert "round.wall" in doc["hists"]
        assert doc["hists"]["round.wall"]["count"] == 16


class TestSeriesDiff:
    def test_series_round_wall_diffed_when_both_have_series(self, tmp_path):
        _run_cells(tmp_path / "a", n=1)
        obs._RUN_DIR = None
        _run_cells(tmp_path / "b", n=1)
        diff = obs_report.diff_runs(tmp_path / "a", tmp_path / "b")
        names = {r["name"] for r in diff["rows"]}
        assert "series.round_wall" in names
        assert diff["notes"] == []
        row = next(
            r for r in diff["rows"] if r["name"] == "series.round_wall"
        )
        assert row["count_a"] == row["count_b"] == 8

    def test_one_sided_series_is_informational(self, tmp_path):
        _run_cells(tmp_path / "a", n=1)
        obs._RUN_DIR = None
        _run_cells(tmp_path / "b", n=1)
        (
            obs_series.resolve_series_path(tmp_path / "b")
        ).unlink()
        diff = obs_report.diff_runs(tmp_path / "a", tmp_path / "b")
        names = {r["name"] for r in diff["rows"]}
        assert "series.round_wall" not in names
        assert len(diff["notes"]) == 1
        assert "only in the baseline run" in diff["notes"][0]
        rendered = obs_report.format_diff(diff)
        assert "note:" in rendered

    def test_scaled_copy_regresses_series_wall(self, tmp_path):
        _run_cells(tmp_path / "a", n=1)
        obs_report.write_scaled_copy(tmp_path / "a", tmp_path / "slow", 8.0)
        diff = obs_report.diff_runs(
            tmp_path / "a", tmp_path / "slow", min_total_s=0.0
        )
        reg = {r["name"] for r in diff["regressions"]}
        assert "series.round_wall" in reg


class TestReservoirEnvKnob:
    def test_default_and_valid(self):
        assert obs_metrics._reservoir_cap_from_env({}) == 64
        assert obs_metrics._reservoir_cap_from_env(
            {"REPRO_OBS_RESERVOIR": "128"}
        ) == 128

    @pytest.mark.parametrize("raw", ["0", "-3", "many", "1.5"])
    def test_invalid_values_raise_with_clear_message(self, raw):
        with pytest.raises(ValueError) as err:
            obs_metrics._reservoir_cap_from_env({"REPRO_OBS_RESERVOIR": raw})
        assert "REPRO_OBS_RESERVOIR" in str(err.value)
        assert repr(raw) in str(err.value)

    def test_cap_applies_to_new_observations(self):
        obs_metrics.set_reservoir_cap(8)
        h = obs_metrics.Histogram()
        for i in range(100):
            h.observe(float(i))
        assert len(h.res) <= 8
        assert h.count == 100

    def test_set_reservoir_cap_validates(self):
        with pytest.raises(ValueError):
            obs_metrics.set_reservoir_cap(0)

    def test_series_every_env_validation(self):
        assert obs_series._probe_every_from_env({}) == 10
        assert (
            obs_series._probe_every_from_env(
                {"REPRO_OBS_SERIES_EVERY": "25"}
            )
            == 25
        )
        for raw in ("0", "x"):
            with pytest.raises(ValueError) as err:
                obs_series._probe_every_from_env(
                    {"REPRO_OBS_SERIES_EVERY": raw}
                )
            assert "REPRO_OBS_SERIES_EVERY" in str(err.value)
