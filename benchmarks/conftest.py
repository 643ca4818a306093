"""Shared benchmark infrastructure.

Each benchmark regenerates one table/figure of the paper: it times the
underlying simulation(s) via pytest-benchmark, asserts the paper's
qualitative claim on the produced data, and emits the same rows/series
the paper reports — to the terminal (bypassing capture, so they land in
``bench_output.txt``), to ``benchmarks/results/<id>.txt`` (human
readable), and to ``benchmarks/results/<id>.json`` (machine readable:
the report text plus the structured cells/series when the benchmark
passes them).

At the end of a benchmark session a summary is written to
``benchmarks/results/session.json``: one entry per emitted experiment
plus the pytest-benchmark wall-clock stats per benchmark (compare
against ``benchmarks/baseline_core.json``, the recorded pre-array-core
seed numbers).  No benchmark writes the repository-root
``BENCH_core.json``: its ``memory`` section is recorded by hand.

Scale is controlled by ``REPRO_SCALE`` (smoke / reduced / paper);
benchmarks default to the *reduced* preset, which preserves the shape
of every result at a laptop-friendly runtime.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import time

import pytest

from repro.experiments.presets import get_preset
from repro.sim.engine import semantics_version_for

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Execution engine benchmarks run under — ``REPRO_ENGINE=batch``
#: switches the whole benchmark session to the batch engine (recorded
#: in every results JSON and in the session summary, so numbers from the
#: two engines are never conflated).
ENGINE_ENV = "REPRO_ENGINE"


def session_engine() -> str:
    return os.environ.get(ENGINE_ENV, "event")


SUMMARY_PATH = RESULTS_DIR / "session.json"


def _jsonable(value):
    """Best-effort conversion of benchmark payloads to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


@pytest.fixture(scope="session")
def preset():
    return get_preset()


@pytest.fixture(scope="session")
def engine():
    """Engine override for benchmarks that thread it through
    (``None`` means the configs' own engine, i.e. the event default)."""
    chosen = session_engine()
    return None if chosen == "event" else chosen


@pytest.fixture(scope="session")
def workers():
    """Worker-process count for the sweep benchmarks.

    ``REPRO_WORKERS`` overrides (parsed by the runtime's own
    :func:`default_workers`); otherwise cap at 4 so benchmark timings
    stay comparable across machines.  Cell results are identical at
    any worker count — only wall-clock changes.
    """
    from repro.runtime.runner import default_workers

    if os.environ.get("REPRO_WORKERS"):
        return default_workers()
    return min(4, default_workers())


@pytest.fixture(scope="session")
def emit(request, preset):
    """Archive a benchmark's report (text + JSON) and print it through
    the capture manager so it is visible in piped output."""
    capture = request.config.pluginmanager.getplugin("capturemanager")
    RESULTS_DIR.mkdir(exist_ok=True)
    emitted = _session_emitted(request.config)

    def _emit(experiment_id: str, text: str, data=None, engine=None) -> None:
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
        # ``engine`` overrides the session engine; benchmarks that mix
        # engines in one record pass "mixed" (no single semantics
        # version applies — their data carries per-cell engines).
        used_engine = engine or session_engine()
        entry = {
            "id": experiment_id,
            "scale": preset.name,
            "engine": used_engine,
            "semantics_version": (
                semantics_version_for(used_engine)
                if used_engine in ("event", "batch")
                else None
            ),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "report": text,
            "data": _jsonable(data) if data is not None else None,
        }
        (RESULTS_DIR / f"{experiment_id}.json").write_text(
            json.dumps(entry, indent=2, sort_keys=True) + "\n"
        )
        emitted[experiment_id] = entry
        banner = f"\n===== {experiment_id} =====\n{text}\n"
        if capture is not None:
            with capture.global_and_fixture_disabled():
                print(banner)
        else:  # pragma: no cover - capture always present under pytest
            print(banner)

    return _emit


def _session_emitted(config) -> dict:
    if not hasattr(config, "_repro_emitted"):
        config._repro_emitted = {}
    return config._repro_emitted


def _benchmark_timings(session) -> list:
    """Wall-clock stats per benchmark from the pytest-benchmark plugin
    (empty when the plugin is missing or no benchmark ran)."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    out = []
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        # pytest-benchmark nests the numbers one level deeper on some
        # versions (Metadata.stats.stats); reach whichever holds them.
        inner = getattr(stats, "stats", stats)
        out.append(
            {
                "name": bench.name,
                "mean_s": getattr(inner, "mean", None),
                "min_s": getattr(inner, "min", None),
                "max_s": getattr(inner, "max", None),
                "rounds": getattr(inner, "rounds", None),
                "extra_info": _jsonable(getattr(bench, "extra_info", {})),
            }
        )
    return out


def _timings_metrics_record(timings: list) -> dict:
    """The benchmark timings as one obs metrics record carrying a stored
    ``hists`` section of ``bench.<name>`` summaries, which ``repro obs
    report benchmarks/results/session.json`` renders as given in its
    Benchmarks section."""
    from repro.obs.metrics import metrics_record

    hists = {}
    for row in timings:
        rounds = int(row.get("rounds") or 0)
        mean = row.get("mean_s")
        if rounds <= 0 or mean is None:
            continue
        lo = row.get("min_s")
        hi = row.get("max_s")
        hists[f"bench.{row['name']}"] = {
            "count": rounds,
            "sum": mean * rounds,
            "min": mean if lo is None else lo,
            "max": mean if hi is None else hi,
            "mean": mean,
        }
    record = metrics_record(
        ctx={
            "source": "benchmarks",
            "scale": get_preset().name,
            "engine": session_engine(),
        },
        snapshot={"counters": {}},
    )
    record["hists"] = hists
    return record


def pytest_sessionfinish(session, exitstatus):
    """Write the machine-readable session summary (``SUMMARY_PATH``)."""
    emitted = _session_emitted(session.config)
    if not emitted:
        return
    summary = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": get_preset().name,
        "engine": session_engine(),
        "semantics_version": semantics_version_for(session_engine()),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "experiments": {
            eid: {k: v for k, v in entry.items() if k != "report"}
            for eid, entry in sorted(emitted.items())
        },
        "timings": _benchmark_timings(session),
        "baseline": "benchmarks/baseline_core.json",
    }
    if summary["timings"]:
        summary["metrics"] = _timings_metrics_record(summary["timings"])
    try:
        import numpy

        summary["environment"]["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    SUMMARY_PATH.parent.mkdir(exist_ok=True)
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
