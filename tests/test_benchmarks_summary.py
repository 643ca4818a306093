"""The benchmark session summary never overwrites ``BENCH_core.json``.

``BENCH_core.json`` at the repository root carries hand-recorded
sections (``memory``); a ``pytest benchmarks/…`` session writes its
summary to ``benchmarks/results/session.json`` instead.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_core.json"
SESSION = ROOT / "benchmarks" / "results" / "session.json"


def load_bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_session_summary_leaves_the_perf_record_alone():
    conftest = load_bench_conftest()
    record = RECORD.read_bytes()
    session_before = SESSION.read_bytes() if SESSION.exists() else None
    entry = {"id": "probe", "scale": "smoke", "engine": "event", "report": "r"}
    session = types.SimpleNamespace(
        config=types.SimpleNamespace(_repro_emitted={"probe": entry})
    )
    try:
        conftest.pytest_sessionfinish(session, 0)
        assert RECORD.read_bytes() == record
        summary = json.loads(SESSION.read_text())
        assert summary["experiments"]["probe"]["id"] == "probe"
    finally:
        RECORD.write_bytes(record)
        if session_before is None:
            SESSION.unlink(missing_ok=True)
        else:
            SESSION.write_bytes(session_before)
