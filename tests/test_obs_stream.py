"""The JSONL stream contract (``repro.obs.stream``), checked once for
every client: the four obs streams and the result store.

Each case writes through the client's own writer and reads back through
its own reader, so a client that stops going through the shared layer
fails here."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.errors import StoreError
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import series as obs_series
from repro.obs import stream as obs_stream
from repro.obs import trace as obs_trace
from repro.runtime import checkpoint
from repro.runtime.store import ResultStore

from .test_obs_trace import _reset_obs

KINDS = ("events", "metrics", "spans", "series", "store")
OBS_KINDS = KINDS[:-1]


@pytest.fixture(autouse=True)
def obs_clean():
    _reset_obs()
    yield
    _reset_obs()


def write(kind, path, worker, i):
    """One record tagged ``(worker, i)`` through ``kind``'s writer."""
    if kind == "events":
        obs_log.set_events_path(path)
        obs_log.emit(obs_log.INFO, "stream.test", worker=worker, i=i)
    elif kind == "metrics":
        obs_metrics.flush(
            path, ctx={"worker": worker, "i": i}, snapshot={"counters": {"n": 1}}
        )
    elif kind == "spans":
        obs_trace.set_spans_path(path)
        obs_trace.record("stream.test", time.time(), 0.0, {"worker": worker, "i": i})
    elif kind == "series":
        obs_series.set_series_path(path)
        obs_series._STREAM.add({"kind": "series", "worker": worker, "i": i})
    else:
        ResultStore(path).append_record({"kind": "cell", "worker": worker, "i": i})


def flush():
    return obs_trace.flush() + obs_series.flush()


def load(kind, path):
    """Every record of ``path`` through ``kind``'s reader, as
    ``(worker, i)`` tags."""
    if kind == "events":
        records = obs_report.load_jsonl(path)
    elif kind == "metrics":
        records = [r["ctx"] for r in obs_report.load_metrics_records(path)]
    elif kind == "spans":
        records = [r["attrs"] for r in obs_trace.load_spans(path)]
    elif kind == "series":
        records = obs_series.load_series(path)
    else:
        records = list(ResultStore(path).records())
    return [(r["worker"], r["i"]) for r in records]


def _write_many(kind, path, worker, n):
    """Child body (module-level: pickles under spawn)."""
    for i in range(n):
        write(kind, path, worker, i)
    flush()


@pytest.mark.parametrize("kind", KINDS)
def test_forked_child_drops_inherited_buffer(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    for i in range(3):
        write(kind, path, "parent", i)  # buffered streams: still unflushed
    pid = os.fork()
    if pid == 0:
        try:
            write(kind, path, "child", 0)
            flush()
        finally:
            os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    flush()
    got = load(kind, path)
    assert sorted(got) == [("child", 0)] + [("parent", i) for i in range(3)]


@pytest.mark.parametrize("kind", KINDS)
def test_torn_tail_skipped_and_mid_file_corruption(tmp_path, kind, recwarn):
    path = tmp_path / f"{kind}.jsonl"
    for i in range(2):
        write(kind, path, "w", i)
    flush()
    good = [("w", 0), ("w", 1)]
    # A torn append: cut inside a record, here inside a multi-byte char.
    with open(path, "ab") as fh:
        fh.write('{"kind":"cell","worker":"é'.encode("utf8")[:-1])
    assert load(kind, path) == good
    if kind == "store":
        assert any("torn trailing record" in str(w.message) for w in recwarn.list)
    # Records after the bad line make it mid-file corruption.
    with open(path, "ab") as fh:
        fh.write(b"\n")
    write(kind, path, "w", 2)
    flush()
    if kind == "store":
        with pytest.raises(StoreError, match="corrupt record at .*:3"):
            load(kind, path)
    else:
        assert load(kind, path) == good + [("w", 2)]


@pytest.mark.parametrize("kind", OBS_KINDS)
@pytest.mark.parametrize("line", ["123", '"x"', "[]", "null"])
def test_obs_readers_skip_non_object_lines(tmp_path, kind, line):
    path = tmp_path / f"{kind}.jsonl"
    write(kind, path, "w", 0)
    flush()
    with open(path, "a", encoding="utf8") as fh:
        fh.write(line + "\n")
    write(kind, path, "w", 1)
    flush()
    assert load(kind, path) == [("w", 0), ("w", 1)]
    followed = obs_report.follow_stream(
        path, stream=kind, stop=lambda: True, from_start=True
    )
    assert len(list(followed)) == 2


def _unwritable(tmp_path, how):
    """A stream path whose directory cannot be created."""
    if how == "parent-is-file":
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        return blocker
    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    return locked


@pytest.mark.parametrize("how", ["parent-is-file", "eacces"])
@pytest.mark.parametrize("kind", KINDS)
def test_unwritable_sink(tmp_path, kind, how):
    path = _unwritable(tmp_path, how) / "obs" / f"{kind}.jsonl"
    if kind == "store":
        with pytest.raises(OSError):
            write(kind, path, "w", 0)
        return
    write(kind, path, "w", 0)  # must not raise
    assert flush() == 0
    assert not path.exists()


@pytest.mark.parametrize("how", ["parent-is-file", "eacces"])
def test_unwritable_obs_dir_leaves_the_cell_intact(tmp_path, how):
    """The failure policy end to end: a run pointed at an obs dir it
    cannot write completes with the same trajectory, and
    ``flush_cell_metrics`` still returns the snapshot for the result
    record instead of failing the cell."""
    config = ScenarioConfig(
        width=8, height=4, failure_round=4, reinjection_round=8,
        total_rounds=10, metrics=("homogeneity",), seed=5,
    )

    def digest():
        sim, *_ = prepare_scenario(config)
        sim.run(config.total_rounds)
        return checkpoint.state_digest(sim)

    plain = digest()
    obs.configure(dir=_unwritable(tmp_path, how), export_env=False)
    assert digest() == plain
    snap = obs.flush_cell_metrics({"task_id": "c"})
    assert snap is not None and snap["hists"]


@pytest.mark.parametrize("kind", KINDS)
def test_concurrent_appenders_interleave_whole_lines(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    n, workers = 150, ("a", "b")
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_write_many, args=(kind, path, w, n)) for w in workers
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert not proc.is_alive() and proc.exitcode == 0
    raw = path.read_bytes().splitlines()
    assert len(raw) == n * len(workers)
    assert all(obs_stream.parse(line)[0] is not None for line in raw)
    got = load(kind, path)
    for w in workers:  # every record once, each writer's own order kept
        assert [i for worker, i in got if worker == w] == list(range(n))


def test_resolve_convention(tmp_path):
    run = tmp_path / "run"
    (run / "obs").mkdir(parents=True)
    nested = run / "obs" / "spans.jsonl"
    nested.write_text("")
    assert obs_stream.sink(run, "spans.jsonl") == nested
    assert obs_stream.resolve(run, "spans.jsonl") == nested  # <run>/obs/<name>
    assert obs_stream.resolve(run / "obs", "spans.jsonl") == nested  # <dir>/<name>
    assert obs_stream.resolve(nested, "anything") == nested  # the file itself
    assert obs_stream.resolve(run, "series.jsonl") is None
    with pytest.raises(FileNotFoundError, match="no series stream found under"):
        obs_stream.resolve(run, "series.jsonl", what="series stream")
