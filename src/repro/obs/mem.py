"""The byte ledger: memory attribution at allocation chokepoints.

``repro.obs.mem`` answers "where did the bytes go, and in which round?"
for the array core and the batch engine.  The instrumented chokepoints
— :class:`~repro.sim.arrays.NodeTable`/``ViewStore`` row growth,
the padded kernel buffers in ``repro.sim.batch`` (topology merge pads,
dedup/merge kernel scratch, SPLIT pair blocks, migration pools),
checkpoint pickle blobs — report every allocation with a *family* (the
coarse series column) and a *site* (the concrete allocator, e.g.
``NodeTable.rows`` or ``tman.merge_pad``).

Two allocation kinds:

* :func:`add` — **persistent** growth (a backing array grew by
  ``delta`` bytes and stays).  Family/site current bytes move by the
  delta; peaks track the running current.
* :func:`scratch` — **transient** buffers (a padded kernel block that
  dies at the end of the call).  Current bytes are untouched; the
  family peak is bumped to ``cur + nbytes`` (the footprint while the
  scratch block was live) and the site peak to the largest single
  allocation.

Every peak remembers the simulation round it occurred in
(:func:`set_round`, fed by ``Simulation.step``), so the attribution
snapshot can say "``tman.merge_pad`` peaked at 38MB in round 21" — the
repair wave after the catastrophic failure.

The ledger is process-wide, thread-safe, and off by default behind the
same one-branch ``ENABLED`` fast path as metrics and spans; callers
must guard with ``if mem.ENABLED:`` so the disabled path stays within
the obs-gate budget.  Accounting is read-only — no RNG, no copies — so
trajectories and golden digests are bit-identical with the ledger on.

Per-family current/peak bytes ride the per-round series records
(:func:`series_fields`); the peak-attribution snapshot lands in
``obs/mem.json`` (:func:`write_snapshot`), max-merged across cells and
worker processes and cross-checked against the process peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import stream

#: The one global switch every ledger call site checks first.
ENABLED = False

_LOCK = threading.Lock()

#: Round stamp for peak attribution (set by the engine each round).
_ROUND = 0

# family -> {"cur", "peak", "peak_round"}
_FAMILIES: Dict[str, Dict[str, int]] = {}
# site -> {"family", "cur", "peak", "peak_round", "events"}
_SITES: Dict[str, Dict[str, Any]] = {}

_TOTAL_CUR = 0
_TOTAL_PEAK = 0
_TOTAL_PEAK_ROUND = 0


def set_enabled(on: bool) -> None:
    global ENABLED
    ENABLED = bool(on)


def enabled() -> bool:
    return ENABLED


def set_round(rnd: int) -> None:
    """Stamp the round subsequent allocations are attributed to."""
    global _ROUND
    _ROUND = int(rnd)


def reset() -> None:
    """Clear the ledger (a worker starting a fresh cell)."""
    global _TOTAL_CUR, _TOTAL_PEAK, _TOTAL_PEAK_ROUND, _ROUND
    with _LOCK:
        _FAMILIES.clear()
        _SITES.clear()
        _TOTAL_CUR = 0
        _TOTAL_PEAK = 0
        _TOTAL_PEAK_ROUND = 0
        _ROUND = 0


def _family_slot(family: str) -> Dict[str, int]:
    fam = _FAMILIES.get(family)
    if fam is None:
        fam = _FAMILIES[family] = {"cur": 0, "peak": 0, "peak_round": 0}
    return fam


def _site_slot(family: str, site: str) -> Dict[str, Any]:
    s = _SITES.get(site)
    if s is None:
        s = _SITES[site] = {
            "family": family,
            "cur": 0,
            "peak": 0,
            "peak_round": 0,
            "events": 0,
        }
    return s


def add(family: str, site: str, delta: int) -> None:
    """Account a **persistent** allocation change: ``delta`` bytes were
    added to (or, negative, released from) a long-lived backing array."""
    global _TOTAL_CUR, _TOTAL_PEAK, _TOTAL_PEAK_ROUND
    delta = int(delta)
    with _LOCK:
        fam = _family_slot(family)
        fam["cur"] += delta
        if fam["cur"] > fam["peak"]:
            fam["peak"] = fam["cur"]
            fam["peak_round"] = _ROUND
        s = _site_slot(family, site)
        s["cur"] += delta
        s["events"] += 1
        if s["cur"] > s["peak"]:
            s["peak"] = s["cur"]
            s["peak_round"] = _ROUND
        _TOTAL_CUR += delta
        if _TOTAL_CUR > _TOTAL_PEAK:
            _TOTAL_PEAK = _TOTAL_CUR
            _TOTAL_PEAK_ROUND = _ROUND


def scratch(family: str, site: str, nbytes: int) -> None:
    """Account a **transient** allocation: ``nbytes`` of scratch lived
    inside one call.  Bumps peaks (footprint while live), not current."""
    global _TOTAL_PEAK, _TOTAL_PEAK_ROUND
    nbytes = int(nbytes)
    if nbytes <= 0:
        return
    with _LOCK:
        fam = _family_slot(family)
        live = fam["cur"] + nbytes
        if live > fam["peak"]:
            fam["peak"] = live
            fam["peak_round"] = _ROUND
        s = _site_slot(family, site)
        s["events"] += 1
        if nbytes > s["peak"]:
            s["peak"] = nbytes
            s["peak_round"] = _ROUND
        live_total = _TOTAL_CUR + nbytes
        if live_total > _TOTAL_PEAK:
            _TOTAL_PEAK = live_total
            _TOTAL_PEAK_ROUND = _ROUND


# -- reading -----------------------------------------------------------------


def series_fields() -> Dict[str, Dict[str, int]]:
    """Per-family ``{"cur", "peak"}`` bytes for one series record."""
    with _LOCK:
        return {
            name: {"cur": fam["cur"], "peak": fam["peak"]}
            for name, fam in _FAMILIES.items()
        }


def total_peak() -> int:
    """Peak simultaneous tracked bytes — what the mem-gate gates and
    ``profile.json`` reports as ``peak_tracked_bytes``."""
    with _LOCK:
        return _TOTAL_PEAK


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def is_empty() -> bool:
    with _LOCK:
        return not _FAMILIES


def snapshot() -> Dict[str, Any]:
    """The peak-attribution snapshot: total/family/site peaks with the
    round each peak occurred in, cross-checked against process RSS."""
    with _LOCK:
        return {
            "kind": "mem",
            "total": {
                "cur": _TOTAL_CUR,
                "peak": _TOTAL_PEAK,
                "peak_round": _TOTAL_PEAK_ROUND,
            },
            "families": {
                name: dict(fam) for name, fam in sorted(_FAMILIES.items())
            },
            "sites": {name: dict(s) for name, s in sorted(_SITES.items())},
            "peak_rss_bytes": peak_rss_bytes(),
        }


# -- merging & persistence ---------------------------------------------------


def merge_snapshot(
    into: Dict[str, Any], snap: Dict[str, Any]
) -> Dict[str, Any]:
    """Max-merge one attribution snapshot into an accumulated one —
    peaks keep the larger value (and its round), ``events`` sum, so the
    merged document names the worst cell each site saw across a sweep."""
    tot_a, tot_b = into.setdefault(
        "total", {"cur": 0, "peak": 0, "peak_round": 0}
    ), snap.get("total", {})
    if tot_b.get("peak", 0) > tot_a.get("peak", 0):
        tot_a["peak"] = tot_b["peak"]
        tot_a["peak_round"] = tot_b.get("peak_round", 0)
    tot_a["cur"] = max(tot_a.get("cur", 0), tot_b.get("cur", 0))
    fams = into.setdefault("families", {})
    for name, fam in (snap.get("families") or {}).items():
        have = fams.get(name)
        if have is None:
            fams[name] = dict(fam)
        else:
            have["cur"] = max(have.get("cur", 0), fam.get("cur", 0))
            if fam.get("peak", 0) > have.get("peak", 0):
                have["peak"] = fam["peak"]
                have["peak_round"] = fam.get("peak_round", 0)
    sites = into.setdefault("sites", {})
    for name, s in (snap.get("sites") or {}).items():
        have = sites.get(name)
        if have is None:
            sites[name] = dict(s)
        else:
            have["events"] = have.get("events", 0) + s.get("events", 0)
            have["cur"] = max(have.get("cur", 0), s.get("cur", 0))
            if s.get("peak", 0) > have.get("peak", 0):
                have["peak"] = s["peak"]
                have["peak_round"] = s.get("peak_round", 0)
    into["peak_rss_bytes"] = max(
        into.get("peak_rss_bytes", 0), snap.get("peak_rss_bytes", 0)
    )
    into["kind"] = "mem"
    return into


def write_snapshot(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Merge this process's ledger into ``mem.json`` at ``path``.

    Read-modify-write under an advisory ``flock`` on the target (workers
    flush concurrently), written via a same-directory temp file +
    ``os.replace`` so readers never see a torn document.  Sink failures
    are swallowed — accounting must never kill a run."""
    if is_empty():
        return None
    snap = snapshot()
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                import fcntl

                fcntl.flock(fd, fcntl.LOCK_EX)
            except (ImportError, OSError):  # pragma: no cover - non-posix
                pass
            raw = b""
            try:
                raw = os.read(fd, 1 << 26)
            except OSError:
                pass
            merged: Dict[str, Any] = {}
            if raw.strip():
                try:
                    merged = json.loads(raw)
                except (ValueError, TypeError):
                    merged = {}
            merged = merge_snapshot(merged, snap)
            text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
            stream.atomic_write(path, text.encode("utf8"))
            return merged
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - sink failure must not kill runs
        return None


# -- reading back ------------------------------------------------------------


def load_mem(target: Union[str, Path]) -> Dict[str, Any]:
    path = stream.resolve(target, "mem.json", what="memory snapshot")
    return json.loads(path.read_text())


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GB"  # pragma: no cover - unreachable


def format_mem(target: Union[str, Path], top: int = 20) -> str:
    """The ``repro obs mem`` report: total + per-family peaks and the
    top allocation sites by peak bytes, each with its peak round."""
    doc = load_mem(target)
    out = []
    tot = doc.get("total", {})
    out.append(
        "peak tracked bytes: "
        f"{_fmt_bytes(tot.get('peak', 0))} "
        f"(round {tot.get('peak_round', 0)}); "
        f"peak RSS {_fmt_bytes(doc.get('peak_rss_bytes', 0))}"
    )
    fams = doc.get("families") or {}
    if fams:
        out.append("")
        out.append(f"{'family':<18} {'cur':>10} {'peak':>10} {'@round':>7}")
        for name, fam in sorted(
            fams.items(), key=lambda kv: -kv[1].get("peak", 0)
        ):
            out.append(
                f"{name:<18} {_fmt_bytes(fam.get('cur', 0)):>10} "
                f"{_fmt_bytes(fam.get('peak', 0)):>10} "
                f"{fam.get('peak_round', 0):>7}"
            )
    sites = doc.get("sites") or {}
    if sites:
        out.append("")
        out.append(
            f"{'site':<34} {'family':<16} {'peak':>10} {'@round':>7} "
            f"{'events':>8}"
        )
        ranked = sorted(sites.items(), key=lambda kv: -kv[1].get("peak", 0))
        for name, s in ranked[:top]:
            out.append(
                f"{name:<34} {s.get('family', ''):<16} "
                f"{_fmt_bytes(s.get('peak', 0)):>10} "
                f"{s.get('peak_round', 0):>7} {s.get('events', 0):>8}"
            )
        if len(ranked) > top:
            out.append(f"... {len(ranked) - top} more site(s)")
    return "\n".join(out)
