"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Closed loop, one client: this parent starts one fresh child process at
a time (``child.py``, one *repeat* each), interleaves the repeats of the
selected workloads round-robin so machine drift hits them alike, and
reports medians over repeats (``wall_s``: the per-round lower envelope,
see ``envelope_wall``) next to the raw per-repeat values.
``BENCHMARK.json`` at the repo root is the single list of metric names,
units and regression bounds; ``bench/README.md`` explains them.

* ``--trace 0`` (default): the full untraced set; prints the end-to-end
  metrics.
* ``--trace 1``: one untraced and one traced repeat per workload;
  prints the per-layer metrics and writes ``bench/out/trace-<w>.json``.
* ``--trace``: both of the above in one go.

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Exit status is 1 when any
operation failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: ``state_digest`` of the 12,800-node workload costs seconds, so only
#: the first repeats of a run are fingerprinted — two is what the
#: nondeterminism check needs.
DIGEST_REPEATS = 2
CHILD_TIMEOUT_S = 170


def load_contract() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf8") as fh:
        return json.load(fh)


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    if not path.exists():
        return {"seed": None, "workloads": {}}
    with path.open(encoding="utf8") as fh:
        return json.load(fh)


# -- environment ---------------------------------------------------------------


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "kernel_backend": "numpy",
        "loadavg_start": os.getloadavg()[0],
    }


def child_env() -> Dict[str, str]:
    """The children's environment: fixed hashing, one thread per math
    library, and none of the program's own switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


# -- running repeats -----------------------------------------------------------


def run_child(
    workload: Workload,
    seed: int,
    index: int,
    env_record: Dict[str, Any],
    digest: bool,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One repeat in a fresh process; a crash is a failed operation."""
    workdir = OUT_DIR / "tmp" / f"{workload.name}-{os.getpid()}-{index}"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--spec",
        json.dumps(workload.spec(seed)),
        "--workdir",
        str(workdir),
    ]
    if digest:
        cmd.append("--digest")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out), "--env", json.dumps(env_record)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.time())],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        error = proc.stderr[-2000:] if proc.returncode != 0 else None
        stdout = proc.stdout
    except subprocess.TimeoutExpired:
        error, stdout = f"timed out after {CHILD_TIMEOUT_S}s", ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if error is None:
        try:
            record = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = f"unreadable child output: {stdout[-500:]!r}"
    if error is not None:
        record = {"attempted": 1, "failed": 1, "failures": [f"raised: {error}"], "crashed": True}
    record["child_s"] = time.perf_counter() - started
    return record


class Session:
    """The repeats of one workload within one benchmark run."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.repeats: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None

    @property
    def spent(self) -> float:
        return sum(r["child_s"] for r in self.repeats)

    def wants_more(self, per_layer_only: bool) -> bool:
        # The per-layer run needs one untraced repeat only: the baseline
        # of trace.overhead_pct and the digest the traced repeat must match.
        if per_layer_only:
            return not self.repeats
        if len(self.repeats) < self.workload.repeats:
            return True
        return self.spent + self.repeats[-1]["child_s"] <= self.seconds

    def run_one(self, env_record: Dict[str, Any]) -> None:
        index = len(self.repeats)
        self.repeats.append(
            run_child(self.workload, self.seed, index, env_record, digest=index < DIGEST_REPEATS)
        )

    def run_traced(self, env_record: Dict[str, Any]) -> None:
        self.traced = run_child(
            self.workload,
            self.seed,
            len(self.repeats),
            env_record,
            digest=True,
            trace_out=OUT_DIR / f"trace-{self.workload.name}.json",
        )


def run_sessions(
    workloads: Sequence[Workload], seed: int, seconds: float, trace: str, env_record
) -> List[Session]:
    sessions = [Session(w, seed, seconds) for w in workloads]
    while any(s.wants_more(trace == "1") for s in sessions):
        for session in sessions:
            if session.wants_more(trace == "1"):
                session.run_one(env_record)
    if trace != "0":
        for session in sessions:
            session.run_traced(env_record)
    return sessions


# -- checking and summarising --------------------------------------------------


def exact_counts(record: Dict[str, Any]) -> Dict[str, Any]:
    """What one repeat computed that repeats exactly for a seed — the
    noise-free "same program" comparison ``expected.json`` records."""
    return {
        "reliability": record["reliability"],
        "reshaping_rounds": record["reshaping_rounds"],
        "engine.node_rounds": record["node_rounds"],
        **record["msgs"],
    }


def check_outputs(
    workload: Workload,
    seed: int,
    repeats: Sequence[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    """Count attempted and failed operations of one workload's run.

    Every repeat reports its own operations (the run itself; for the
    gate every cell, every claim and the cached passes).  On top come
    the digest comparisons, one operation each: repeats agree, the
    traced repeat matches, and the recorded ``expected.json`` digest
    matches — the last only for the recorded seed and only while the
    engine's semantics version is the recorded one (a deliberate bump
    downgrades it to the note ``digest_unchecked``).
    """
    attempted = failed = 0
    notes: List[str] = []
    for index, record in enumerate(list(repeats) + ([traced] if traced else [])):
        attempted += record["attempted"]
        failed += record["failed"]
        label = "traced" if record is traced else f"repeat {index}"
        notes += [f"{label}: {failure}" for failure in record["failures"]]

    def compare(what: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            notes.append(what)

    digests = [r["digest"] for r in repeats if r.get("digest")]
    if len(digests) > 1:
        compare(f"nondeterministic: repeats disagree on state_digest {digests}",
                len(set(digests)) == 1)
    if traced and traced.get("digest") and digests:
        compare("tracing perturbed the trajectory: traced digest differs",
                traced["digest"] == digests[0])
    entry = expected.get("workloads", {}).get(workload.name)
    versions = {r["semantics_version"] for r in repeats if "semantics_version" in r}
    if entry and digests and expected.get("seed") == seed:
        counts = exact_counts(next(r for r in repeats if r.get("digest")))
        moved = sorted(k for k, v in counts.items() if entry.get(k, v) != v)
        if moved:
            notes.append("exact counts differ from expected.json: " + ", ".join(
                f"{k} {entry[k]} -> {counts[k]}" for k in moved))
        if versions != {entry["semantics_version"]}:
            notes.append("digest_unchecked: semantics version differs from expected.json")
        else:
            compare(
                f"state_digest {digests[0][:16]} differs from expected.json "
                f"{entry['state_digest'][:16]} at an unchanged semantics version",
                digests[0] == entry["state_digest"],
            )
    return {"attempted": attempted, "failed": failed, "notes": notes}


def median_of(records: Sequence[Dict[str, Any]], key: str) -> Optional[float]:
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def envelope_wall(records: Sequence[Dict[str, Any]]) -> Optional[float]:
    """The timed region as the sum, over rounds, of the fastest that
    round ran in any repeat (the gate's timed region is one interval, so
    there this is the fastest repeat).

    Repeats of one seed do identical work round for round, and this
    shared sandbox only ever adds time, in bursts of seconds and slow
    spells of minutes.  On 30 back-to-back children of
    ``repair-event-32x16``, grouped in threes, the quartile spread was
    12.8 % for the median of whole-repeat sums, 10.3 % for per-round
    medians and 7.5 % for this lower envelope (range 39 / 35 / 20 %), so
    the envelope is what a regression bound can be held against.  The
    per-repeat sums are printed next to it."""
    if not records:
        return None
    return sum(min(column) for column in zip(*(r["round_s"] for r in records)))


def summarize(session: Session, expected: Dict[str, Any]) -> Dict[str, Any]:
    """Medians, raw per-repeat values and the output check of one
    workload's run — the per-workload part of every output document."""
    good = [r for r in session.repeats if not r.get("crashed")]
    checks = check_outputs(
        session.workload, session.seed, session.repeats, session.traced, expected
    )
    for record in good:
        record["wall_s"] = sum(record["round_s"])
    wall_s = envelope_wall(good)
    end_to_end = {
        "setup_s": median_of(good, "setup_s"),
        "wall_s": wall_s,
        "node_rounds_per_s": good[0]["node_rounds"] / wall_s if good else None,
        "peak_rss_mb": median_of(good, "peak_rss_mb"),
        "pass_ratio": 1.0 - checks["failed"] / checks["attempted"],
        "reliability": median_of(good, "reliability"),
    }
    summary: Dict[str, Any] = {
        "workload": session.workload.name,
        "seed": session.seed,
        "repeats": len(session.repeats),
        "end_to_end": end_to_end,
        "raw": {
            key: [r.get(key) for r in good]
            for key in ("setup_s", "wall_s", "node_rounds", "peak_rss_mb",
                        "reliability", "reshaping_rounds", "child_s")
        },
        "digest": next((r["digest"] for r in good if r.get("digest")), None),
        "semantics_version": good[0]["semantics_version"] if good else None,
        "exact": exact_counts(good[0]) if good else {},
        **checks,
    }
    traced = session.traced
    if traced and not traced.get("crashed") and good:
        layers = dict(traced["layers"])
        # What the untraced repeats measure too comes from them.
        for key in good[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in good)
        layers["trace.overhead_pct"] = (
            sum(traced["round_s"]) / end_to_end["wall_s"] - 1.0
        ) * 100.0
        summary["per_layer"] = layers
    return summary


def contract_metrics(summary: Dict[str, Any], contract: Dict[str, Any], trace: str):
    """``{name: {value, unit}}`` for the metric sets ``--trace`` selects.
    A per-layer metric the workload's layers never produced reads 0 (the
    layer was not exercised); a missing end-to-end metric is an error."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace != "1":
        for spec in contract["end_to_end"]:
            value = summary["end_to_end"][spec["name"]]
            if value is None:
                raise SystemExit(f"no value for end-to-end metric {spec['name']}")
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if trace != "0":
        layers = summary.get("per_layer")
        if layers is None:
            raise SystemExit("the traced repeat produced no per-layer metrics")
        unknown = set(layers) - {spec["name"] for spec in contract["per_layer"]}
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        for spec in contract["per_layer"]:
            metrics[spec["name"]] = {"value": layers.get(spec["name"], 0), "unit": spec["unit"]}
    return metrics


def print_summary(summary: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"== {summary['workload']}  seed={summary['seed']}  repeats={summary['repeats']}")
    idle = [n for n in metrics if n not in summary["end_to_end"]
            and n not in summary.get("per_layer", {})]
    for name, metric in metrics.items():
        if name in idle:
            continue
        raw = summary["raw"].get(name)
        detail = ""
        if raw:
            how = "per-round fastest" if name == "wall_s" else "median"
            detail = f"   {how} of n={len(raw)}: " + " ".join(f"{v:.4g}" for v in raw)
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{detail}")
    if idle:
        print(f"  ({len(idle)} per-layer metrics of layers this workload never enters read 0)")
    print(f"  reshaping_rounds {summary['raw']['reshaping_rounds']}  "
          f"digest {str(summary['digest'])[:16]}  "
          f"operations {summary['attempted']} attempted, {summary['failed']} failed")
    for note in summary["notes"]:
        print(f"  ! {note}")


def write_document(name: str, document: Dict[str, Any]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    with path.open("w", encoding="utf8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# -- modes ---------------------------------------------------------------------


def measure(
    workloads: Sequence[Workload],
    seed: int,
    seconds: float,
    trace: str = "0",
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the workloads and return the output document (environment
    record plus one summary per workload)."""
    env_record = environment()
    if env_record["loadavg_start"] > 0.5 * env_record["nproc"]:
        print(
            f"warning: load average {env_record['loadavg_start']:.2f} exceeds half of "
            f"nproc={env_record['nproc']}; timings will be noisy",
            file=sys.stderr,
        )
    started = time.perf_counter()
    sessions = run_sessions(workloads, seed, seconds, trace, env_record)
    env_record["loadavg_end"] = os.getloadavg()[0]
    env_record["total_s"] = time.perf_counter() - started
    expected = load_expected() if expected is None else expected
    return {
        "environment": env_record,
        "workloads": {s.workload.name: summarize(s, expected) for s in sessions},
    }


def worse_by(spec: Dict[str, Any], first: float, second: float) -> float:
    """By what share of ``first`` is ``second`` worse (negative: better)."""
    change = (second - first) / first
    return change if spec["better"] == "lower" else -change


def selfcheck(workloads, seed: int, seconds: float, contract) -> int:
    """Two full untraced sets back to back must agree within the
    benchmark's own bounds."""
    sets = [measure(workloads, seed, seconds) for _ in range(2)]
    rows, ok = [], True
    for name in sets[0]["workloads"]:
        first, second = (s["workloads"][name]["end_to_end"] for s in sets)
        for spec in contract["end_to_end"]:
            a, b = first[spec["name"]], second[spec["name"]]
            spread = abs(worse_by(spec, a, b))
            within = spread <= spec["bound"]
            ok = ok and within
            rows.append((name, spec["name"], a, b, spec["unit"], spread, spec["bound"], within))
    print("| workload | metric | set 1 | set 2 | unit | spread | bound | ok |")
    print("|---|---|---|---|---|---|---|---|")
    for name, metric, a, b, unit, spread, bound, within in rows:
        print(f"| {name} | {metric} | {a:.5g} | {b:.5g} | {unit} | "
              f"{spread:.2%} | {bound:.0%} | {'yes' if within else 'NO'} |")
    path = write_document("selfcheck.json", {"sets": sets, "ok": ok})
    print(f"selfcheck {'green' if ok else 'RED'}; both sets in {path.relative_to(ROOT)}")
    failed = sum(w["failed"] for s in sets for w in s["workloads"].values())
    return 0 if ok and not failed else 1


def update_expected(workloads, seed: int) -> int:
    """Record, per workload, what a later run of the same program must
    reproduce exactly at this seed."""
    document = measure(workloads, seed, seconds=0, trace="0",
                       expected={"seed": None, "workloads": {}})
    recorded = load_expected()
    if recorded.get("seed") != seed:
        recorded = {"seed": seed, "workloads": {}}
    for name, summary in document["workloads"].items():
        if summary["failed"]:
            print(f"not recording {name}: {summary['notes']}", file=sys.stderr)
            return 1
        recorded["workloads"][name] = {
            "state_digest": summary["digest"],
            "semantics_version": summary["semantics_version"],
            **summary["exact"],
        }
    with EXPECTED_PATH.open("w", encoding="utf8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sorted(document['workloads'])} at seed {seed} in {EXPECTED_PATH.name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: those BENCHMARK.json lists, interleaved)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload for untraced repeats "
                        "(each workload's own minimum always runs)")
    parser.add_argument("--trace", nargs="?", const="all", default="0",
                        choices=("0", "1", "all"),
                        help="0: end-to-end only; 1: per-layer only; bare flag: both")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare within the bounds")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json from this run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    # BENCHMARK.json names the workloads that make up the benchmark; a
    # workload defined here but not listed there runs only when asked for.
    workloads = (
        [WORKLOADS[args.workload]]
        if args.workload
        else [WORKLOADS[w["name"]] for w in contract["workloads"]]
    )

    if args.update_expected:
        return update_expected(workloads, args.seed)
    if args.selfcheck:
        return selfcheck(workloads, args.seed, seconds, contract)

    document = measure(workloads, args.seed, seconds, args.trace)
    env_record = document["environment"]
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env_record.items()))
    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    for name, summary in document["workloads"].items():
        metrics = contract_metrics(summary, contract, args.trace)
        summary["metrics"] = metrics
        print_summary(summary, metrics)
        attempted += summary["attempted"]
        failed += summary["failed"]
    write_document(f"run-{args.workload or 'all'}.json", document)
    result: Dict[str, Any] = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload:
        result["metrics"] = metrics
    else:
        result["metrics"] = {
            f"{name}/{metric}": value
            for name, summary in document["workloads"].items()
            for metric, value in summary["metrics"].items()
        }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
