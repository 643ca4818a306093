"""CLI surface of the phase-fork machinery: ``repro sweep --fork``,
``repro checkpoints ls/gc``, resume and cache-corruption flows."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runtime.forksweep import (
    CheckpointCache,
    clear_checkpoint_memo,
    default_cache_dir,
)
from repro.runtime.store import ResultStore


class TestParser:
    def test_sweep_fork_flags(self):
        parser = build_parser()
        assert parser.parse_args(["sweep"]).fork is False
        assert parser.parse_args(["sweep", "--fork"]).fork is True

    def test_no_fork_flag_is_gone(self, capsys):
        """Cold-starting every cell is the default; the flag that said
        so was removed, not kept as a no-op."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--no-fork"])
        assert exc.value.code == 2
        assert "--no-fork" in capsys.readouterr().err

    def test_sweep_ablation_axes(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--failure-fractions",
                "0.25,0.5",
                "--reinjection",
                "both",
                "--checkpoint-dir",
                "ckpts",
            ]
        )
        assert args.failure_fractions == [0.25, 0.5]
        assert args.reinjection == "both"
        assert args.checkpoint_dir == "ckpts"

    def test_checkpoints_subcommand(self):
        args = build_parser().parse_args(
            ["checkpoints", "gc", "--dir", "d", "--older-than", "7"]
        )
        assert args.action == "gc"
        assert args.older_than == 7.0

    def test_run_fork_flag(self):
        assert build_parser().parse_args(["run", "fig1", "--fork"]).fork

    def test_default_cache_dir_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "/tmp/elsewhere")
        assert default_cache_dir() == Path("/tmp/elsewhere")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR")
        assert default_cache_dir() == Path(".repro-checkpoints")


def _sweep_argv(tmp_path, *extra):
    return [
        "sweep",
        "--scale",
        "smoke",
        "--ks",
        "4",
        "--seeds",
        "1",
        "--reinjection",
        "off",
        "--failure-fractions",
        "0.25,0.5",
        "--workers",
        "1",
        "--fork",
        "--checkpoint-dir",
        str(tmp_path / "ckpts"),
        "--store",
        str(tmp_path / "cells.jsonl"),
        *extra,
    ]


class TestForkSweepFlow:
    def test_fork_sweep_populates_cache_and_store(self, tmp_path, capsys):
        assert main(_sweep_argv(tmp_path, "--run-id", "first")) == 0
        err = capsys.readouterr().err
        assert "prefix-" in err  # Phase-1 simulation reported as progress

        store = ResultStore(tmp_path / "cells.jsonl")
        records = store.cells(run_id="first", status="ok")
        assert len(records) == 2
        assert all(record["forked_from"] for record in records)
        cache = CheckpointCache(tmp_path / "ckpts")
        assert len(cache.entries()) == 1

        # Resuming the completed run finds nothing left to do.
        assert main(
            _sweep_argv(tmp_path, "--run-id", "first", "--resume-run")
        ) == 0
        out = capsys.readouterr().out
        assert "already in the store" in out

    def test_interrupted_fork_sweep_resumes(self, tmp_path, capsys):
        assert main(_sweep_argv(tmp_path, "--run-id", "part")) == 0
        capsys.readouterr()
        store_path = tmp_path / "cells.jsonl"
        # Drop the last cell record: the sweep now looks interrupted.
        lines = store_path.read_text().strip().splitlines()
        store_path.write_text("\n".join(lines[:-1]) + "\n")
        assert len(ResultStore(store_path).completed("part")) == 1

        assert main(
            _sweep_argv(tmp_path, "--run-id", "part", "--resume-run")
        ) == 0
        out = capsys.readouterr().out
        assert "sweep over 1 cells" in out  # only the missing cell re-ran
        assert len(ResultStore(store_path).completed("part")) == 2

    def test_truncated_checkpoint_recomputes_instead_of_crashing(
        self, tmp_path, capsys
    ):
        assert main(_sweep_argv(tmp_path, "--run-id", "first")) == 0
        capsys.readouterr()
        cache = CheckpointCache(tmp_path / "ckpts")
        ckpt_path = Path(cache.entries()[0]["path"])
        ckpt_path.write_bytes(ckpt_path.read_bytes()[:128])
        clear_checkpoint_memo()  # a real re-invocation is a fresh process

        assert main(_sweep_argv(tmp_path, "--run-id", "second")) == 0
        records = ResultStore(tmp_path / "cells.jsonl").cells(
            run_id="second", status="ok"
        )
        assert len(records) == 2
        # Cold fallbacks, recorded honestly as such.
        assert all(record["forked_from"] is None for record in records)
        first = ResultStore(tmp_path / "cells.jsonl").cells(
            run_id="first", status="ok"
        )
        # ... with summaries identical to the fork-mode run.
        assert [r["summary"] for r in records] == [
            r["summary"] for r in first
        ]


class TestCheckpointsCommand:
    def _populate(self, tmp_path):
        main(_sweep_argv(tmp_path))

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["checkpoints", "ls", "--dir", str(tmp_path / "none")]) == 0
        assert "no checkpoints cached" in capsys.readouterr().out

    def test_ls_then_gc(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        ckpt_dir = str(tmp_path / "ckpts")

        assert main(["checkpoints", "ls", "--dir", ckpt_dir]) == 0
        out = capsys.readouterr().out
        assert "1 cached prefix(es)" in out
        assert "round" in out

        # Age-gated gc keeps the fresh entry ...
        assert main(
            ["checkpoints", "gc", "--dir", ckpt_dir, "--older-than", "7"]
        ) == 0
        assert "removed 0 checkpoint(s)" in capsys.readouterr().out
        # ... unconditional gc removes it.
        assert main(["checkpoints", "gc", "--dir", ckpt_dir]) == 0
        assert "removed 1 checkpoint(s)" in capsys.readouterr().out
        assert CheckpointCache(ckpt_dir).entries() == []


class TestRunFork:
    def test_run_forwards_fork_flag(self, capsys):
        # fig1 is a single simulation: it absorbs --fork (nothing to
        # share), which proves the CLI -> registry plumbing end to end.
        assert main(["run", "fig1", "--scale", "smoke", "--fork"]) == 0
        assert "Figure 1" in capsys.readouterr().out
