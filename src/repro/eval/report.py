"""Per-claim reports and the CI gate over scored claim cases.

:func:`score_run` turns an :class:`~repro.eval.runner.EvalRunData` into
:class:`ClaimScore` verdicts; :func:`build_report` packages them — with
run provenance (git revision, cache hits, wall clock) and the run's
observability counters (the same snapshot schema
``repro obs report`` aggregates) — into a machine-readable dict written
as JSON; :func:`format_report` renders the human table; and
:func:`gate_exit` is the CI contract: 0 only when no claim failed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs import metrics as obs_metrics
from ..runtime.store import git_revision
from ..viz.tables import format_table
from .dataset import (
    DATASET_VERSION,
    ClaimCase,
    expected_for,
    load_expected,
)
from .runner import EvalRunData
from .scorers import FAIL, PASS, SKIP, ClaimScore, score_case

REPORT_FORMAT = 1


def score_run(
    cases: Sequence[ClaimCase],
    data: EvalRunData,
    expected: Optional[Dict[str, Any]] = None,
    tolerance_scale: float = 1.0,
) -> List[ClaimScore]:
    """Score every case against the cells the run left in the store."""
    if expected is None:
        expected = load_expected()
    scores: List[ClaimScore] = []
    for case in cases:
        cells_by_engine = {
            eng: cells
            for (case_id, eng), cells in data.cells.items()
            if case_id == case.case_id
        }
        if not cells_by_engine:
            continue
        scores.extend(
            score_case(
                case,
                cells_by_engine,
                expected_for(case.case_id, expected),
                tolerance_scale,
            )
        )
    return scores


def build_report(
    scores: Sequence[ClaimScore],
    data: EvalRunData,
    preset: Optional[str] = None,
    engine: Optional[str] = None,
    tolerance_scale: float = 1.0,
) -> Dict[str, Any]:
    """The machine-readable eval report (what ``--report`` writes)."""
    counts = {
        PASS: sum(1 for s in scores if s.status == PASS),
        FAIL: sum(1 for s in scores if s.status == FAIL),
        SKIP: sum(1 for s in scores if s.status == SKIP),
    }
    report: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "dataset_version": DATASET_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_revision(),
        "preset": preset,
        "engine": engine or "both",
        "tolerance_scale": tolerance_scale,
        "gate_ok": counts[FAIL] == 0 and not data.run_errors,
        "counts": counts,
        "run": {
            "run_id": data.run_id,
            "cells_executed": data.executed,
            "cells_cached": data.cached,
            "duration_s": round(data.duration_s, 3),
            "errors": list(data.run_errors),
        },
        "claims": [score.to_dict() for score in scores],
    }
    # The run's counters ride along in the repro.obs snapshot schema,
    # so `repro obs report` renders the eval report's section as is.
    snapshot = obs_metrics.registry().snapshot()
    if snapshot:
        report["metrics"] = snapshot
    return report


def write_report(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    with Path(path).open("r", encoding="utf8") as fh:
        return json.load(fh)


def format_report(report: Dict[str, Any]) -> str:
    """Human rendering: one row per claim verdict, then diagnoses."""
    rows = []
    for claim in report["claims"]:
        worst = ""
        margins = [
            d["margin"] for d in claim.get("details", []) if "margin" in d
        ]
        if margins:
            worst = f"{min(margins):+.4f}"
        rows.append(
            [
                claim["case_id"],
                claim["engine"],
                claim["paper_ref"],
                claim["scorer"],
                claim["status"].upper(),
                worst,
            ]
        )
    counts = report["counts"]
    run = report["run"]
    title = (
        f"claims gate — {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped']} skipped "
        f"({run['cells_executed']} cells executed, "
        f"{run['cells_cached']} cached, {run['duration_s']:.1f}s)"
    )
    lines = [
        format_table(
            ["claim", "engine", "paper", "scorer", "status", "margin"],
            rows,
            title=title,
        )
    ]
    for claim in report["claims"]:
        if claim["status"] != PASS and claim["diagnosis"]:
            lines.append(
                f"{claim['status'].upper()} {claim['case_id']} "
                f"[{claim['engine']}]: {claim['diagnosis']}"
            )
    for error in run.get("errors", []):
        lines.append(f"EXECUTION ERROR: {error}")
    lines.append("gate: OK" if report["gate_ok"] else "gate: FAILED")
    return "\n".join(lines)


def gate_exit(report: Dict[str, Any]) -> int:
    """CI contract: 0 iff no claim failed and execution was clean."""
    return 0 if report.get("gate_ok") else 1
