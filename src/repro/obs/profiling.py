"""Profiling hooks: cProfile wrapping and ``profile.json``.

``--profile`` (or ``REPRO_PROFILE=1``) arms a :class:`Profiler` around a
run: the whole run executes under :mod:`cProfile`, and at the end
everything — hot functions, peak RSS, the byte ledger's peak tracked
bytes (:mod:`repro.obs.mem`), and the metrics registry's counters —
lands in one ``obs/profile.json``.  Timings are not repeated here: the
run's spans (``obs/spans.jsonl``, written whenever an obs dir is set,
as ``--profile`` always arranges) are its one timing record.

Profiling is read-only: it draws no RNG and mutates no state, so a
profiled run's trajectory and golden digests are bit-identical to an
unprofiled one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import mem, metrics

#: Whether a profiler is armed for this process (set by
#: :func:`repro.obs.configure`, which turns counting on with it).
ACTIVE = False


def set_active(on: bool) -> None:
    global ACTIVE
    ACTIVE = bool(on)


class Profiler:
    """One profiled run: ``start()`` ... work ... ``write(path)``."""

    def __init__(self, top: int = 40) -> None:
        import cProfile

        self.top = top
        self._profile = cProfile.Profile()
        self._t0: Optional[float] = None

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._profile.enable()

    def stop(self) -> float:
        self._profile.disable()
        return time.perf_counter() - (self._t0 or time.perf_counter())

    def hot_functions(self) -> list:
        """Top functions by cumulative time, as JSON-ready dicts."""
        import pstats

        stats = pstats.Stats(self._profile)
        rows = []
        entries = sorted(
            stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
        )
        for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in entries[
            : self.top
        ]:
            rows.append(
                {
                    "function": f"{Path(filename).name}:{lineno}:{funcname}",
                    "ncalls": nc,
                    "tottime_s": round(tt, 6),
                    "cumtime_s": round(ct, 6),
                }
            )
        return rows

    def write(
        self,
        path: Union[str, Path],
        ctx: Optional[Dict[str, Any]] = None,
        wall_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Stop (if still running) and write ``profile.json``: context,
        wall time, peak memory, hot functions, and the counters."""
        if self._t0 is not None and wall_s is None:
            wall_s = self.stop()
        snap = metrics.registry().snapshot()
        report = {
            "kind": "profile",
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "ctx": dict(ctx or {}),
            "wall_s": round(wall_s, 6) if wall_s is not None else None,
            "peak_rss_bytes": mem.peak_rss_bytes(),
            "peak_tracked_bytes": mem.total_peak(),
            "hot_functions": self.hot_functions(),
            "metrics": snap,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return report
