"""Lease-based work queues shared by many sweep workers.

A :class:`WorkQueue` holds one published sweep grid — every cell as a
:class:`TaskSpec` — plus the mutable claim state that lets any number of
worker processes, on any number of machines, drain it cooperatively.
The only thing workers must share is the queue itself, and two media are
supported:

* :class:`DirWorkQueue` — a plain directory (NFS-style share).  All
  coordination rides on atomic filesystem primitives: a lease is an
  ``O_CREAT|O_EXCL`` file (exactly one claimant can create it), a
  heartbeat is an ``utime`` on that file, completion is an exclusive
  ``done/`` marker, and results are appended to per-worker JSONL shards
  (durable :class:`~repro.runtime.store.ResultStore` appends).
* :class:`SqliteWorkQueue` — a single SQLite file.  Claims are
  ``BEGIN IMMEDIATE`` transactions; results are rows.

Both implement at-least-once execution with **lease expiry and bounded
retries**: a worker that dies mid-cell simply stops heartbeating, its
lease expires, and the next ``claim()`` hands the cell to someone else
with the attempt counter bumped.  A cell whose lease expires
``max_attempts`` times is recorded as an ``error`` cell (with the
attempt history) instead of wedging the run.  Because every cell is a
deterministic function of its configuration, duplicate executions (a
presumed-dead worker that was merely slow) are harmless — the merge
step dedupes by configuration hash.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
import urllib.parse
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Union

from ...errors import ClusterError
from ...experiments.scenario import ScenarioConfig
from ...obs import log as obs_log
from ...obs import metrics as obs_metrics
from ..store import (
    ResultStore,
    cell_record,
    config_dict,
    config_from_dict,
    config_hash,
)

QUEUE_FORMAT = 1
DEFAULT_LEASE_S = 120.0
DEFAULT_MAX_ATTEMPTS = 3

#: File suffixes that select the SQLite backend in :func:`open_queue`.
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

TASK_KINDS = ("cold", "fork")


@dataclass(frozen=True)
class TaskSpec:
    """One published grid cell, serializable into any queue medium.

    ``kind == "fork"`` cells carry the prefix hash and the exact state
    digest of the checkpoint the coordinator published for them; a
    worker fetches it by digest from the shared cache and falls back to
    a cold run on any miss.  ``payload`` asks the executing worker to
    park the full pickled :class:`ScenarioResult` in the queue (the
    experiment-registry path needs whole series, not just the summary).
    """

    task_id: str
    config: ScenarioConfig
    kind: str = "cold"
    prefix_hash: str = ""
    forked_digest: str = ""
    payload: bool = False

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ClusterError(
                f"task kind must be one of {TASK_KINDS}, got {self.kind!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["config"] = config_dict(self.config)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskSpec":
        kwargs = dict(data)
        kwargs["config"] = config_from_dict(kwargs["config"])
        return cls(**kwargs)


@dataclass
class Lease:
    """A successful claim: this worker owns this cell until the lease
    expires (kept alive by heartbeats) or it completes."""

    task: TaskSpec
    worker_id: str
    attempt: int
    #: Backend-private handle (the claim-file path for the directory
    #: backend; unused by SQLite).
    token: str = ""
    claimed_at: float = field(default=0.0)


def _qid(task_id: str) -> str:
    """Filesystem-safe, reversible encoding of a task id (ids like
    ``replication=2/seed=0`` contain path separators)."""
    return urllib.parse.quote(task_id, safe="")


class WorkQueue:
    """Backend-independent queue logic: publish/join validation, the
    exhaustion record, shared accessors.  Concrete backends implement
    the storage primitives."""

    path: Path

    # -- publish ---------------------------------------------------------

    def publish(
        self,
        tasks: Sequence[TaskSpec],
        run_id: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        cache_root: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Publish a grid to the queue, or *join* an identical one.

        ``trace`` is the publisher's span-context token
        (``"<trace_id>:<span_id>"``); workers adopt it so every cell
        span — on any machine — parents under the coordinator's sweep
        span and the whole distributed run reads back as one trace
        tree.  First publisher wins; joiners inherit the original
        token.

        Publishing is idempotent: if the queue already holds a manifest
        for exactly this task set (same ids, same configuration hashes)
        the existing manifest is returned — so several machines can all
        run ``repro sweep --distributed`` against the same share and
        one becomes the publisher while the rest join.  A queue holding
        a *different* grid is an error, never silently overwritten.
        """
        tasks = list(tasks)
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({tid for tid in ids if ids.count(tid) > 1})
            raise ClusterError(f"duplicate task ids in published grid: {dupes}")
        if not tasks:
            raise ClusterError("refusing to publish an empty grid")
        existing = self.manifest()
        if existing is not None:
            self._check_join(existing, tasks)
            return existing
        if run_id is None:
            run_id = time.strftime("dist-%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        manifest = {
            "format": QUEUE_FORMAT,
            "run_id": run_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "metadata": metadata or {},
            "lease_s": float(lease_s),
            "max_attempts": int(max_attempts),
            "n_tasks": len(tasks),
            "task_hashes": {t.task_id: config_hash(t.config) for t in tasks},
            "cache_root": cache_root,
            "trace": trace,
        }
        published = self._publish(manifest, tasks)
        if published is not None:
            # Someone beat us to the manifest; verify we can join theirs.
            self._check_join(published, tasks)
            return published
        return manifest

    def _check_join(
        self, manifest: Dict[str, Any], tasks: Sequence[TaskSpec]
    ) -> None:
        want = {t.task_id: config_hash(t.config) for t in tasks}
        have = manifest.get("task_hashes", {})
        if want != have:
            missing = sorted(set(want) ^ set(have))[:4]
            raise ClusterError(
                f"queue {self.path} already holds a different grid "
                f"({len(have)} tasks vs {len(want)} published; first "
                f"differing ids: {missing}).  Use a fresh queue path or "
                "finish/merge the existing run first."
            )

    # -- shared helpers --------------------------------------------------

    def run_id(self) -> str:
        manifest = self.manifest()
        if manifest is None:
            raise ClusterError(f"queue {self.path} has no published grid yet")
        return manifest["run_id"]

    def cache_root(self) -> Path:
        """The shared checkpoint-cache directory for this queue's fork
        cells: the manifest's ``cache_root`` if the coordinator pinned
        one, else the backend default next to the queue."""
        manifest = self.manifest() or {}
        pinned = manifest.get("cache_root")
        if pinned:
            return Path(pinned)
        return self.default_cache_root()

    def _exhaust_record(
        self, spec: TaskSpec, attempts: int, worker_id: str
    ) -> Dict[str, Any]:
        return cell_record(
            self.run_id(),
            spec.task_id,
            spec.config,
            status="error",
            error=(
                f"lease expired after {attempts} attempts "
                f"(max_attempts={attempts}); the workers executing this "
                "cell died or stalled repeatedly"
            ),
            worker=worker_id,
        )

    def referenced_prefixes(self) -> Set[str]:
        """Prefix hashes still referenced by unfinished fork cells
        (leased *or* waiting to be claimed).  ``repro checkpoints gc
        --queue`` protects these: deleting a referenced checkpoint would
        silently demote live cells to cold reruns."""
        done = self.done_ids()
        return {
            spec.prefix_hash
            for spec in self.tasks()
            if spec.kind == "fork" and spec.task_id not in done
        }

    def is_complete(self) -> bool:
        manifest = self.manifest()
        if manifest is None:
            return False
        return len(self.done_ids()) >= manifest["n_tasks"]

    # -- backend interface ----------------------------------------------

    def manifest(self) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def _publish(
        self, manifest: Dict[str, Any], tasks: Sequence[TaskSpec]
    ) -> Optional[Dict[str, Any]]:
        """Write tasks + manifest; returns an existing manifest if a
        concurrent publisher won the race, else ``None``."""
        raise NotImplementedError

    def tasks(self) -> List[TaskSpec]:
        raise NotImplementedError

    def done_ids(self) -> Set[str]:
        """Task ids with a terminal record (ok, error, or exhausted)."""
        raise NotImplementedError

    def claim(
        self, worker_id: str, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim one claimable cell, or ``None``.

        Also the sweep's reaper: scanning for work is when expired
        leases are noticed, so claiming re-offers dead workers' cells
        and retires cells that exhausted their attempt budget.
        """
        raise NotImplementedError

    def has_claimable(self, now: Optional[float] = None) -> bool:
        raise NotImplementedError

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> bool:
        """Extend a lease; ``False`` if it was lost (requeued/expired
        and re-claimed) — the worker should abandon the cell's result."""
        raise NotImplementedError

    def complete(
        self,
        lease: Lease,
        record: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> bool:
        """Record a finished cell; ``True`` if this call won (a racing
        attempt of the same cell may have finished first — the losing
        record is still in a shard and merge dedupes it)."""
        raise NotImplementedError

    def release_leases(self, task_ids: Optional[Sequence[str]] = None) -> int:
        """Expire current leases immediately (all, or the given tasks):
        the manual override for a worker known dead before its lease
        times out.  Attempt counters are preserved."""
        raise NotImplementedError

    def reset(
        self,
        task_ids: Optional[Sequence[str]] = None,
        failed_only: bool = False,
    ) -> List[str]:
        """Force tasks back to pending (clearing done markers, leases,
        and attempt counters); returns the reset ids.  With
        ``failed_only`` every ``error`` cell is reset — the recovery
        path after fixing whatever made them fail."""
        raise NotImplementedError

    def cell_records(self) -> Iterator[Dict[str, Any]]:
        """Every recorded cell, duplicates and all (merge dedupes)."""
        raise NotImplementedError

    def load_payload(self, task_id: str) -> Optional[bytes]:
        raise NotImplementedError

    def workers_seen(self) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError

    def register_worker(self, worker_id: str, info: Dict[str, Any]) -> None:
        raise NotImplementedError

    def default_cache_root(self) -> Path:
        raise NotImplementedError

    # -- reporting -------------------------------------------------------

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Aggregate queue state for ``repro queue status``."""
        now = time.time() if now is None else now
        manifest = self.manifest()
        if manifest is None:
            return {"published": False, "path": str(self.path)}
        done = self.done_ids()
        leased, failed, ok = self._lease_view(now)
        total = manifest["n_tasks"]
        return {
            "published": True,
            "path": str(self.path),
            "run_id": manifest["run_id"],
            "created": manifest["created"],
            "lease_s": manifest["lease_s"],
            "max_attempts": manifest["max_attempts"],
            "total": total,
            "done": len(done),
            "ok": len(ok),
            "failed": len(failed),
            "leased": len(leased),
            "pending": total - len(done) - len(leased),
            "leases": leased,
            "workers": self.workers_seen(),
            "complete": len(done) >= total,
            # Reference time of this snapshot, so renderers can turn
            # the workers' ``last_seen`` stamps into heartbeat ages.
            "now": now,
        }

    def _lease_view(self, now: float):
        """``(live_leases, failed_ids, ok_ids)`` — backend-specific."""
        raise NotImplementedError


class DirWorkQueue(WorkQueue):
    """A work queue over a shared directory.

    Layout::

        <root>/manifest.json        published grid (written last, O_EXCL)
        <root>/tasks/<qid>.json     one TaskSpec per cell
        <root>/claims/<qid>@<N>     lease of attempt N (mtime = heartbeat)
        <root>/done/<qid>.json      terminal marker (O_EXCL, one winner)
        <root>/shards/<worker>.jsonl   per-worker cell records
        <root>/payloads/<qid>.pkl   full pickled results (opt-in)
        <root>/workers/<worker>.json   worker registration/heartbeat
        <root>/checkpoints/         default shared CheckpointCache

    Every mutation is a single atomic filesystem operation (exclusive
    create, rename, utime, or one appended line), so any number of
    workers can share the directory without a lock server.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- paths -----------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.path / "manifest.json"

    def _dir(self, name: str) -> Path:
        return self.path / name

    def default_cache_root(self) -> Path:
        return self.path / "checkpoints"

    # -- publish ---------------------------------------------------------

    def manifest(self) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self._manifest_path.read_text(encoding="utf8"))
        except OSError:
            return None
        except json.JSONDecodeError as exc:
            raise ClusterError(
                f"corrupt queue manifest {self._manifest_path}: {exc}"
            ) from exc

    def _publish(self, manifest, tasks):
        for name in ("tasks", "claims", "done", "shards", "payloads", "workers"):
            self._dir(name).mkdir(parents=True, exist_ok=True)
        for spec in tasks:
            path = self._dir("tasks") / f"{_qid(spec.task_id)}.json"
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(
                json.dumps(spec.to_dict(), sort_keys=True), encoding="utf8"
            )
            tmp.replace(path)
        # The manifest is the "grid is fully published" marker, so it
        # goes last and exclusively: exactly one concurrent publisher
        # wins, the rest re-read and join.
        try:
            fd = os.open(
                self._manifest_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return self.manifest()
        try:
            os.write(
                fd, json.dumps(manifest, sort_keys=True, indent=1).encode("utf8")
            )
        finally:
            os.close(fd)
        return None

    # -- task/claim state ------------------------------------------------

    def _manifest_qids(self) -> Optional[Set[str]]:
        """qids of the published grid, or ``None`` before publication.
        All task views filter on this: a publisher that lost the
        manifest race may have left foreign task files behind, and they
        must be invisible to claims, completion, and merging."""
        manifest = self.manifest()
        if manifest is None:
            return None
        return {_qid(task_id) for task_id in manifest.get("task_hashes", {})}

    def tasks(self) -> List[TaskSpec]:
        wanted = self._manifest_qids()
        out = []
        for path in sorted(self._dir("tasks").glob("*.json")):
            if wanted is not None and path.stem not in wanted:
                continue
            out.append(self._read_spec(path))
        return out

    def _read_spec(self, path: Path) -> TaskSpec:
        try:
            return TaskSpec.from_dict(json.loads(path.read_text(encoding="utf8")))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ClusterError(f"corrupt task spec {path}: {exc}") from exc

    def _spec_of(self, qid: str) -> TaskSpec:
        return self._read_spec(self._dir("tasks") / f"{qid}.json")

    def done_ids(self) -> Set[str]:
        wanted = self._manifest_qids()
        out = set()
        for path in self._dir("done").glob("*.json"):
            if wanted is not None and path.stem not in wanted:
                continue
            out.add(urllib.parse.unquote(path.stem))
        return out

    def _claims_of(self, qid: str) -> List[Path]:
        """Claim files of a task, oldest attempt first."""
        claims = self._dir("claims").glob(f"{qid}@*")
        return sorted(claims, key=lambda p: int(p.name.rsplit("@", 1)[1]))

    def _mark_done(self, qid: str, info: Dict[str, Any]) -> bool:
        path = self._dir("done") / f"{qid}.json"
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, json.dumps(info, sort_keys=True).encode("utf8"))
        finally:
            os.close(fd)
        return True

    def _append_shard(self, worker_id: str, record: Dict[str, Any]) -> None:
        ResultStore(
            self._dir("shards") / f"{_qid(worker_id)}.jsonl"
        ).append_record(record)

    def claim(self, worker_id, now=None):
        now = time.time() if now is None else now
        manifest = self.manifest()
        if manifest is None:
            return None
        lease_s = manifest["lease_s"]
        max_attempts = manifest["max_attempts"]
        done_dir = self._dir("done")
        wanted = {_qid(task_id) for task_id in manifest.get("task_hashes", {})}
        for task_path in sorted(self._dir("tasks").glob("*.json")):
            qid = task_path.stem
            if qid not in wanted:
                continue
            if (done_dir / f"{qid}.json").exists():
                continue
            claims = self._claims_of(qid)
            attempt = 1
            if claims:
                latest = claims[-1]
                attempt = int(latest.name.rsplit("@", 1)[1]) + 1
                try:
                    age = now - latest.stat().st_mtime
                except OSError:
                    continue  # reset raced us; re-scan next claim call
                if age <= lease_s:
                    continue  # live lease
                obs_metrics.count("queue.lease_expired")
                if attempt > max_attempts:
                    # Retry budget spent: retire the cell as an error so
                    # the run completes instead of spinning forever.
                    spec = self._spec_of(qid)
                    record = self._exhaust_record(
                        spec, attempt - 1, worker_id
                    )
                    self._append_shard(worker_id, record)
                    self._mark_done(
                        qid,
                        {
                            "status": "error",
                            "worker": worker_id,
                            "attempt": attempt - 1,
                            "exhausted": True,
                            "finished": now,
                        },
                    )
                    obs_metrics.count("queue.exhausted")
                    obs_log.warning(
                        "queue.exhausted",
                        task=spec.task_id,
                        attempts=attempt - 1,
                    )
                    continue
            claim_path = self._dir("claims") / f"{qid}@{attempt}"
            try:
                fd = os.open(
                    claim_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                continue  # another worker won this attempt
            try:
                os.write(
                    fd,
                    json.dumps(
                        {"worker": worker_id, "claimed_at": now}
                    ).encode("utf8"),
                )
            finally:
                os.close(fd)
            lease = Lease(
                task=self._spec_of(qid),
                worker_id=worker_id,
                attempt=attempt,
                token=str(claim_path),
                claimed_at=now,
            )
            obs_metrics.count("queue.claims")
            if attempt > 1:
                obs_metrics.count("queue.retries")
            obs_log.debug(
                "queue.claim", task=lease.task.task_id, attempt=attempt
            )
            return lease
        return None

    def has_claimable(self, now=None):
        now = time.time() if now is None else now
        manifest = self.manifest()
        if manifest is None:
            return False
        done = self.done_ids()
        wanted = {_qid(task_id) for task_id in manifest.get("task_hashes", {})}
        for task_path in self._dir("tasks").glob("*.json"):
            qid = task_path.stem
            if qid not in wanted:
                continue
            if urllib.parse.unquote(qid) in done:
                continue
            claims = self._claims_of(qid)
            if not claims:
                return True
            latest = claims[-1]
            try:
                age = now - latest.stat().st_mtime
            except OSError:
                return True
            if age <= manifest["lease_s"]:
                continue
            # Expired: claimable as a retry, or retireable — either way
            # a claim() call would make progress.
            return True
        return False

    def heartbeat(self, lease, now=None):
        now = time.time() if now is None else now
        try:
            os.utime(lease.token, (now, now))
        except OSError:
            return False
        return True

    def complete(self, lease, record, payload=None):
        qid = _qid(lease.task.task_id)
        if payload is not None:
            path = self._dir("payloads") / f"{qid}.pkl"
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_bytes(payload)
            tmp.replace(path)
        # Record first, done marker second: once the marker exists the
        # record is guaranteed readable.  The reverse order could retire
        # a cell whose result was lost with the crashing worker.
        self._append_shard(lease.worker_id, record)
        return self._mark_done(
            qid,
            {
                "status": record.get("status", "ok"),
                "worker": lease.worker_id,
                "attempt": lease.attempt,
                "finished": time.time(),
            },
        )

    def release_leases(self, task_ids=None):
        wanted = None if task_ids is None else {_qid(t) for t in task_ids}
        released = 0
        for claim in self._dir("claims").glob("*@*"):
            qid = claim.name.rsplit("@", 1)[0]
            if wanted is not None and qid not in wanted:
                continue
            try:
                os.utime(claim, (0, 0))
                released += 1
            except OSError:
                pass
        return released

    def reset(self, task_ids=None, failed_only=False):
        reset_ids = []
        for done_path in list(self._dir("done").glob("*.json")):
            qid = done_path.stem
            task_id = urllib.parse.unquote(qid)
            if task_ids is not None and task_id not in task_ids:
                continue
            if failed_only and task_ids is None:
                try:
                    info = json.loads(done_path.read_text(encoding="utf8"))
                except (OSError, json.JSONDecodeError):
                    info = {}
                if info.get("status") == "ok":
                    continue
            try:
                done_path.unlink()
            except OSError:
                continue
            for claim in self._claims_of(qid):
                try:
                    claim.unlink()
                except OSError:
                    pass
            reset_ids.append(task_id)
        if task_ids is not None:
            # Also clear leases of tasks that never finished.
            for task_id in task_ids:
                qid = _qid(task_id)
                if task_id in reset_ids:
                    continue
                claims = self._claims_of(qid)
                if claims:
                    for claim in claims:
                        try:
                            claim.unlink()
                        except OSError:
                            pass
                    reset_ids.append(task_id)
        return reset_ids

    def cell_records(self):
        for shard in sorted(self._dir("shards").glob("*.jsonl")):
            yield from ResultStore(shard).records(kind="cell")

    def load_payload(self, task_id):
        path = self._dir("payloads") / f"{_qid(task_id)}.pkl"
        try:
            return path.read_bytes()
        except OSError:
            return None

    def workers_seen(self):
        out = {}
        for path in self._dir("workers").glob("*.json"):
            try:
                out[urllib.parse.unquote(path.stem)] = json.loads(
                    path.read_text(encoding="utf8")
                )
            except (OSError, json.JSONDecodeError):
                continue
        return out

    def register_worker(self, worker_id, info):
        path = self._dir("workers") / f"{_qid(worker_id)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(info, sort_keys=True), encoding="utf8")
        tmp.replace(path)

    def _lease_view(self, now):
        leased: Dict[str, Dict[str, Any]] = {}
        failed, ok = set(), set()
        manifest = self.manifest() or {}
        lease_s = manifest.get("lease_s", DEFAULT_LEASE_S)
        done = {}
        for path in self._dir("done").glob("*.json"):
            try:
                done[path.stem] = json.loads(path.read_text(encoding="utf8"))
            except (OSError, json.JSONDecodeError):
                done[path.stem] = {}
        for qid, info in done.items():
            task_id = urllib.parse.unquote(qid)
            (ok if info.get("status") == "ok" else failed).add(task_id)
        for claim in self._dir("claims").glob("*@*"):
            qid, attempt = claim.name.rsplit("@", 1)
            if qid in done:
                continue
            try:
                stat = claim.stat()
                content = json.loads(claim.read_text(encoding="utf8"))
            except (OSError, json.JSONDecodeError):
                continue
            age = now - stat.st_mtime
            if age > lease_s:
                continue
            task_id = urllib.parse.unquote(qid)
            leased[task_id] = {
                "worker": content.get("worker", "?"),
                "attempt": int(attempt),
                "age_s": round(age, 1),
            }
        return leased, failed, ok


class SqliteWorkQueue(WorkQueue):
    """A work queue inside one SQLite file (single-host multi-process
    sharing, or any filesystem where SQLite's locking works)."""

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS manifest(
        id INTEGER PRIMARY KEY CHECK (id = 1), value TEXT NOT NULL);
    CREATE TABLE IF NOT EXISTS tasks(
        task_id TEXT PRIMARY KEY, spec TEXT NOT NULL,
        attempts INTEGER NOT NULL DEFAULT 0,
        lease_expires REAL NOT NULL DEFAULT 0,
        worker TEXT NOT NULL DEFAULT '',
        done INTEGER NOT NULL DEFAULT 0,
        status TEXT NOT NULL DEFAULT '');
    CREATE TABLE IF NOT EXISTS records(
        seq INTEGER PRIMARY KEY AUTOINCREMENT,
        worker TEXT NOT NULL, record TEXT NOT NULL);
    CREATE TABLE IF NOT EXISTS payloads(
        task_id TEXT PRIMARY KEY, blob BLOB NOT NULL);
    CREATE TABLE IF NOT EXISTS workers(
        worker_id TEXT PRIMARY KEY, info TEXT NOT NULL);
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._schema_ready = False

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.isolation_level = None  # manual BEGIN IMMEDIATE
        if not self._schema_ready:
            # Once per instance: every operation opens a fresh
            # connection (fork-safe), but the DDL need not ride along
            # on each heartbeat and claim poll.
            conn.executescript(self._SCHEMA)
            self._schema_ready = True
        return conn

    def default_cache_root(self) -> Path:
        return self.path.parent / (self.path.stem + ".checkpoints")

    def manifest(self):
        with closing(self._connect()) as conn:
            row = conn.execute("SELECT value FROM manifest WHERE id=1").fetchone()
        return json.loads(row[0]) if row else None

    def _publish(self, manifest, tasks):
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute("SELECT value FROM manifest WHERE id=1").fetchone()
            if row:
                conn.execute("COMMIT")
                return json.loads(row[0])
            conn.executemany(
                "INSERT INTO tasks(task_id, spec) VALUES (?, ?)",
                [
                    (t.task_id, json.dumps(t.to_dict(), sort_keys=True))
                    for t in tasks
                ],
            )
            conn.execute(
                "INSERT INTO manifest(id, value) VALUES (1, ?)",
                (json.dumps(manifest, sort_keys=True),),
            )
            conn.execute("COMMIT")
        return None

    def tasks(self):
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT spec FROM tasks ORDER BY task_id"
            ).fetchall()
        return [TaskSpec.from_dict(json.loads(row[0])) for row in rows]

    def done_ids(self):
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT task_id FROM tasks WHERE done=1"
            ).fetchall()
        return {row[0] for row in rows}

    def claim(self, worker_id, now=None):
        now = time.time() if now is None else now
        manifest = self.manifest()
        if manifest is None:
            return None
        lease_s = manifest["lease_s"]
        max_attempts = manifest["max_attempts"]
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT task_id, spec, attempts FROM tasks "
                "WHERE done=0 AND lease_expires < ? ORDER BY task_id",
                (now,),
            ).fetchall()
            for task_id, spec_json, attempts in rows:
                spec = TaskSpec.from_dict(json.loads(spec_json))
                if attempts > 0:
                    obs_metrics.count("queue.lease_expired")
                if attempts >= max_attempts:
                    record = self._exhaust_record(spec, attempts, worker_id)
                    conn.execute(
                        "INSERT INTO records(worker, record) VALUES (?, ?)",
                        (worker_id, json.dumps(record, sort_keys=True)),
                    )
                    conn.execute(
                        "UPDATE tasks SET done=1, status='error', worker=? "
                        "WHERE task_id=?",
                        (worker_id, task_id),
                    )
                    obs_metrics.count("queue.exhausted")
                    obs_log.warning(
                        "queue.exhausted", task=task_id, attempts=attempts
                    )
                    continue
                conn.execute(
                    "UPDATE tasks SET attempts=?, lease_expires=?, worker=? "
                    "WHERE task_id=?",
                    (attempts + 1, now + lease_s, worker_id, task_id),
                )
                conn.execute("COMMIT")
                obs_metrics.count("queue.claims")
                if attempts > 0:
                    obs_metrics.count("queue.retries")
                obs_log.debug(
                    "queue.claim", task=task_id, attempt=attempts + 1
                )
                return Lease(
                    task=spec,
                    worker_id=worker_id,
                    attempt=attempts + 1,
                    claimed_at=now,
                )
            conn.execute("COMMIT")
        return None

    def has_claimable(self, now=None):
        now = time.time() if now is None else now
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT COUNT(*) FROM tasks WHERE done=0 AND lease_expires < ?",
                (now,),
            ).fetchone()
        return bool(row and row[0])

    def heartbeat(self, lease, now=None):
        now = time.time() if now is None else now
        manifest = self.manifest()
        lease_s = (manifest or {}).get("lease_s", DEFAULT_LEASE_S)
        with closing(self._connect()) as conn:
            cur = conn.execute(
                "UPDATE tasks SET lease_expires=? "
                "WHERE task_id=? AND worker=? AND done=0 AND attempts=?",
                (now + lease_s, lease.task.task_id, lease.worker_id, lease.attempt),
            )
        return cur.rowcount > 0

    def complete(self, lease, record, payload=None):
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT INTO records(worker, record) VALUES (?, ?)",
                (lease.worker_id, json.dumps(record, sort_keys=True)),
            )
            if payload is not None:
                conn.execute(
                    "INSERT OR REPLACE INTO payloads(task_id, blob) "
                    "VALUES (?, ?)",
                    (lease.task.task_id, payload),
                )
            cur = conn.execute(
                "UPDATE tasks SET done=1, status=?, worker=? "
                "WHERE task_id=? AND done=0",
                (
                    record.get("status", "ok"),
                    lease.worker_id,
                    lease.task.task_id,
                ),
            )
            won = cur.rowcount > 0
            conn.execute("COMMIT")
        return won

    def release_leases(self, task_ids=None):
        if task_ids is not None and not task_ids:
            return 0
        with closing(self._connect()) as conn:
            if task_ids is None:
                cur = conn.execute(
                    "UPDATE tasks SET lease_expires=0 "
                    "WHERE done=0 AND lease_expires > 0"
                )
            else:
                cur = conn.execute(
                    "UPDATE tasks SET lease_expires=0 WHERE done=0 AND "
                    f"task_id IN ({','.join('?' * len(task_ids))})",
                    list(task_ids),
                )
        return cur.rowcount

    def reset(self, task_ids=None, failed_only=False):
        if task_ids is not None and not task_ids:
            return []
        with closing(self._connect()) as conn:
            if task_ids is not None:
                placeholders = ",".join("?" * len(task_ids))
                rows = conn.execute(
                    "SELECT task_id FROM tasks WHERE (done=1 OR attempts>0) "
                    f"AND task_id IN ({placeholders})",
                    list(task_ids),
                ).fetchall()
                conn.execute(
                    "UPDATE tasks SET done=0, status='', attempts=0, "
                    f"lease_expires=0, worker='' WHERE task_id IN ({placeholders})",
                    list(task_ids),
                )
            else:
                where = "status='error'" if failed_only else "done=1"
                rows = conn.execute(
                    f"SELECT task_id FROM tasks WHERE done=1 AND {where}"
                ).fetchall()
                conn.execute(
                    "UPDATE tasks SET done=0, status='', attempts=0, "
                    f"lease_expires=0, worker='' WHERE done=1 AND {where}"
                )
        return [row[0] for row in rows]

    def cell_records(self):
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT record FROM records ORDER BY seq"
            ).fetchall()
        for row in rows:
            yield json.loads(row[0])

    def load_payload(self, task_id):
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT blob FROM payloads WHERE task_id=?", (task_id,)
            ).fetchone()
        return bytes(row[0]) if row else None

    def workers_seen(self):
        with closing(self._connect()) as conn:
            rows = conn.execute("SELECT worker_id, info FROM workers").fetchall()
        return {worker_id: json.loads(info) for worker_id, info in rows}

    def register_worker(self, worker_id, info):
        with closing(self._connect()) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO workers(worker_id, info) VALUES (?, ?)",
                (worker_id, json.dumps(info, sort_keys=True)),
            )

    def _lease_view(self, now):
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT task_id, status, done, lease_expires, worker, attempts "
                "FROM tasks"
            ).fetchall()
        leased: Dict[str, Dict[str, Any]] = {}
        failed, ok = set(), set()
        for task_id, status, done, lease_expires, worker, attempts in rows:
            if done:
                (ok if status == "ok" else failed).add(task_id)
            elif lease_expires > now:
                leased[task_id] = {"worker": worker, "attempt": attempts}
        return leased, failed, ok


def open_queue(path: Union[str, Path, WorkQueue]) -> WorkQueue:
    """The queue at ``path``: SQLite when the path looks like a database
    file (``.db`` / ``.sqlite`` / ``.sqlite3``), a shared directory
    otherwise.  Passing an already-open queue returns it unchanged."""
    if isinstance(path, WorkQueue):
        return path
    p = Path(path)
    if p.suffix.lower() in SQLITE_SUFFIXES:
        return SqliteWorkQueue(p)
    return DirWorkQueue(p)
