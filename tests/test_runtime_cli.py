"""CLI surface of the runtime subsystem: sweep, results, resume."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime import checkpoint
from repro.runtime.store import ResultStore


class TestParser:
    def test_run_accepts_workers(self):
        args = build_parser().parse_args(
            ["run", "fig6a", "--scale", "smoke", "--workers", "4"]
        )
        assert args.workers == 4

    def test_run_allows_resume_without_experiment(self):
        args = build_parser().parse_args(
            ["run", "--resume", "x.ckpt", "--rounds", "5"]
        )
        assert args.experiment is None
        assert args.resume == "x.ckpt"

    def test_sweep_grid_options(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--scale",
                "smoke",
                "--ks",
                "2,4",
                "--seeds",
                "3",
                "--workers",
                "2",
                "--store",
                "out.jsonl",
            ]
        )
        assert args.ks == [2, 4]
        assert args.seeds == 3
        assert args.store == "out.jsonl"


class TestCommands:
    def test_run_without_experiment_or_resume_fails(self, capsys):
        assert main(["run"]) == 2
        assert "experiment id or --resume" in capsys.readouterr().err

    def test_resume_flow(self, tmp_path, capsys):
        config = ScenarioConfig(
            width=6,
            height=3,
            failure_round=4,
            reinjection_round=None,
            total_rounds=20,
            metrics=("homogeneity",),
            seed=0,
        )
        sim, *_ = prepare_scenario(config)
        sim.run(2)
        path = tmp_path / "run.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)

        out_path = tmp_path / "after.ckpt"
        code = main(
            [
                "run",
                "--resume",
                str(path),
                "--rounds",
                "6",
                "--save-checkpoint",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round=2" in out
        assert "ran 6 rounds" in out
        assert out_path.exists()

        # The CLI-resumed state matches an uninterrupted in-process run.
        straight, *_ = prepare_scenario(config)
        straight.run(8)
        loaded = checkpoint.restore(checkpoint.load(out_path))
        assert checkpoint.state_digest(loaded) == checkpoint.state_digest(
            straight
        )

    def test_resume_refuses_an_engine(self, tmp_path, capsys):
        # The file does not exist: exit 2, not 1, shows the refusal
        # comes before the checkpoint is read.
        path = tmp_path / "run.ckpt"
        for engine in ("event", "batch"):
            code = main(["run", "--resume", str(path), "--engine", engine])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "a checkpoint continues under the engine that wrote it" in err

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_resume_names_the_engine_it_continues_under(
        self, engine, tmp_path, capsys
    ):
        config = ScenarioConfig(
            width=6,
            height=3,
            failure_round=None,
            reinjection_round=None,
            total_rounds=4,
            metrics=("homogeneity",),
            engine=engine,
        )
        sim, *_ = prepare_scenario(config)
        sim.run(1)
        path = checkpoint.save(checkpoint.snapshot(sim), tmp_path / "run.ckpt")
        assert main(["run", "--resume", str(path), "--rounds", "1"]) == 0
        assert f"running under the {engine} engine" in capsys.readouterr().out

    def test_engine_help_no_longer_mentions_conversion(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert "--engine" in out
        assert "convert" not in out

    def test_resume_missing_checkpoint_errors(self, tmp_path, capsys):
        code = main(["run", "--resume", str(tmp_path / "absent.ckpt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_store_results_roundtrip(self, tmp_path, capsys):
        store_path = tmp_path / "cells.jsonl"
        code = main(
            [
                "sweep",
                "--scale",
                "smoke",
                "--ks",
                "2",
                "--seeds",
                "2",
                "--workers",
                "1",
                "--store",
                str(store_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over 2 cells" in out

        store = ResultStore(store_path)
        run_id = store.latest_run_id()
        assert len(store.cells(run_id=run_id, status="ok")) == 2

        # Resuming the finished run does nothing.
        code = main(
            [
                "sweep",
                "--scale",
                "smoke",
                "--ks",
                "2",
                "--seeds",
                "2",
                "--store",
                str(store_path),
                "--resume-run",
            ]
        )
        assert code == 0
        assert "already in the store" in capsys.readouterr().out

        # And `repro results` renders the stored cells.
        assert main(["results", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "replication=2/split=advanced/seed=1" in out

    def test_results_on_empty_store(self, tmp_path, capsys):
        assert main(["results", str(tmp_path / "none.jsonl")]) == 1
        assert "no runs recorded" in capsys.readouterr().out

    def test_resume_run_requires_store(self, capsys):
        assert main(["sweep", "--scale", "smoke", "--resume-run"]) == 2
        assert "--store" in capsys.readouterr().err
