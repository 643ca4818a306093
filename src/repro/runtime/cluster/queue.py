"""The lease-based work queue shared by many sweep workers.

A :class:`WorkQueue` holds one published sweep grid — every cell as a
:class:`TaskSpec` — plus the mutable claim state that lets any number of
worker processes, on any number of machines, drain it cooperatively.
The only thing workers must share is the queue itself: a plain directory
(NFS-style share).  All coordination rides on atomic filesystem
primitives: a lease is an ``O_CREAT|O_EXCL`` file (exactly one claimant
can create it), a heartbeat is an ``utime`` on that file, completion is
an exclusive ``done/`` marker, and results are appended to per-worker
JSONL shards (durable :class:`~repro.runtime.store.ResultStore`
appends).

Execution is at-least-once with **lease expiry and bounded retries**: a
worker that dies mid-cell simply stops heartbeating, its lease expires,
and the next ``claim()`` hands the cell to someone else with the attempt
counter bumped.  A cell whose lease expires ``max_attempts`` times is
recorded as an ``error`` cell (with the attempt history) instead of
wedging the run.  Because every cell is a deterministic function of its
configuration, duplicate executions (a presumed-dead worker that was
merely slow) are harmless — the merge step dedupes by configuration
hash.

The state machine is read in one place, :meth:`WorkQueue._scan`:

=========  ==========================================  ================
state      on disk                                     ``claim()``
=========  ==========================================  ================
pending    no claim file                               create ``@1``
leased     latest claim younger than ``lease_s``       skip
expired    latest claim older, attempts left           create ``@N+1``
exhausted  latest claim older, ``N == max_attempts``   retire as error
done       ``done/`` marker exists                     skip
=========  ==========================================  ================
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Union,
)

from ...errors import ClusterError
from ...experiments.scenario import ScenarioConfig
from ...obs import log as obs_log
from ...obs import metrics as obs_metrics
from ...obs.stream import atomic_write
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

TASK_KINDS = ("cold", "fork")

#: States in which a ``claim()`` call makes progress on a cell.
_CLAIMABLE = ("pending", "expired", "exhausted")


@dataclass(frozen=True)
class TaskSpec:
    """One published grid cell, serializable into the queue.

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
    claimed_at: float = 0.0


class CellState(NamedTuple):
    """One row of :meth:`WorkQueue._scan`: where a published cell stands."""

    qid: str
    state: str  # pending | leased | expired | exhausted | done
    attempt: int  # latest claimed attempt, 0 if never claimed
    age: float  # seconds since that attempt's last heartbeat

    @property
    def task_id(self) -> str:
        return urllib.parse.unquote(self.qid)


def _qid(task_id: str) -> str:
    """Filesystem-safe, reversible encoding of a task id (ids like
    ``replication=2/seed=0`` contain path separators)."""
    return urllib.parse.quote(task_id, safe="")


def _listing(directory: Path, suffix: str = "") -> List[str]:
    """Sorted names in ``directory`` ending in ``suffix`` (none if the
    directory does not exist yet)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(name for name in names if name.endswith(suffix))


def _read_json(path: Path) -> Dict[str, Any]:
    """A small JSON file's content; ``{}`` if missing or half-written."""
    try:
        return json.loads(path.read_text(encoding="utf8"))
    except (OSError, json.JSONDecodeError):
        return {}


def _create_exclusive(path: Path, content: Dict[str, Any]) -> bool:
    """Create ``path`` holding ``content`` iff it does not exist yet —
    the one primitive behind claims, done markers and the manifest:
    of any number of racing creators exactly one gets ``True``."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, json.dumps(content, sort_keys=True).encode("utf8"))
    finally:
        os.close(fd)
    return True


class WorkQueue:
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
        if self.path.exists() and not self.path.is_dir():
            raise ClusterError(
                f"queue {self.path} is a file; work queues are directories "
                "(pass a fresh directory path)"
            )

    def _claim_path(self, qid: str, attempt: int) -> Path:
        return self.path / "claims" / f"{qid}@{attempt}"

    def _done_path(self, qid: str) -> Path:
        return self.path / "done" / f"{qid}.json"

    # -- publish ---------------------------------------------------------

    def manifest(self) -> Optional[Dict[str, Any]]:
        """The published grid's manifest, or ``None`` before publication."""
        path = self.path / "manifest.json"
        try:
            return json.loads(path.read_text(encoding="utf8"))
        except OSError:
            return None
        except json.JSONDecodeError as exc:
            raise ClusterError(f"corrupt queue manifest {path}: {exc}") from exc

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
        for name in ("tasks", "claims", "done", "shards", "payloads", "workers"):
            (self.path / name).mkdir(parents=True, exist_ok=True)
        for spec in tasks:
            atomic_write(
                self.path / "tasks" / f"{_qid(spec.task_id)}.json",
                json.dumps(spec.to_dict(), sort_keys=True).encode("utf8"),
            )
        # The manifest is the "grid is fully published" marker, so it
        # goes last and exclusively: exactly one concurrent publisher
        # wins, the rest re-read and verify they can join the winner's.
        if not _create_exclusive(self.path / "manifest.json", manifest):
            manifest = self.manifest()
            self._check_join(manifest, tasks)
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

    def run_id(self) -> str:
        manifest = self.manifest()
        if manifest is None:
            raise ClusterError(f"queue {self.path} has no published grid yet")
        return manifest["run_id"]

    def cache_root(self) -> Path:
        """The shared checkpoint-cache directory for this queue's fork
        cells: the manifest's ``cache_root`` if the coordinator pinned
        one, else ``checkpoints/`` inside the queue."""
        pinned = (self.manifest() or {}).get("cache_root")
        return Path(pinned) if pinned else self.path / "checkpoints"

    # -- the lease state machine -----------------------------------------

    def _scan(self, now: Optional[float] = None) -> Iterator[CellState]:
        """Every published cell's state, in claim order — the one read
        of ``tasks × claims × done`` that claiming, status and requeue
        all fold over.  Lists each directory once; only an unfinished
        cell's latest claim is ``stat``-ed, lazily, so a claimer pays
        for the rows it looks at.  Task files outside the manifest (a
        publisher that lost the manifest race may have left some) are
        invisible here and therefore to everything else.
        """
        manifest = self.manifest()
        if manifest is None:
            return
        now = time.time() if now is None else now
        lease_s, max_attempts = manifest["lease_s"], manifest["max_attempts"]
        published = {_qid(task_id) for task_id in manifest["task_hashes"]}
        attempts: Dict[str, int] = {}
        for name in _listing(self.path / "claims"):
            qid, _, attempt = name.rpartition("@")
            if attempt.isdigit():
                attempts[qid] = max(attempts.get(qid, 0), int(attempt))
        # Listed last: a marker that lands mid-scan is still seen.
        done = {name[:-5] for name in _listing(self.path / "done", ".json")}
        for name in _listing(self.path / "tasks", ".json"):
            qid = name[:-5]
            if qid not in published:
                continue
            attempt = attempts.get(qid, 0)
            state, age = ("done" if qid in done else "pending"), 0.0
            if attempt and state == "pending":
                try:
                    claim = os.stat(self._claim_path(qid, attempt))
                except OSError:
                    attempt = 0  # a reset unlinked the claim under us
                else:
                    age = now - claim.st_mtime
                    if age <= lease_s:
                        state = "leased"
                    elif attempt < max_attempts:
                        state = "expired"
                    else:
                        state = "exhausted"
            yield CellState(qid, state, attempt, age)

    def _spec_of(self, qid: str) -> TaskSpec:
        path = self.path / "tasks" / f"{qid}.json"
        try:
            return TaskSpec.from_dict(json.loads(path.read_text(encoding="utf8")))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ClusterError(f"corrupt task spec {path}: {exc}") from exc

    def tasks(self) -> List[TaskSpec]:
        """The published cells, in claim order."""
        return [self._spec_of(cell.qid) for cell in self._scan()]

    def done_ids(self) -> Set[str]:
        """Task ids with a terminal record (ok, error, or exhausted)."""
        return {cell.task_id for cell in self._scan() if cell.state == "done"}

    def is_complete(self) -> bool:
        manifest = self.manifest()
        return (
            manifest is not None
            and len(self.done_ids()) >= manifest["n_tasks"]
        )

    def has_claimable(self, now: Optional[float] = None) -> bool:
        """Would a ``claim()`` right now make progress (hand out a cell,
        or retire an exhausted one)?"""
        return any(cell.state in _CLAIMABLE for cell in self._scan(now))

    def referenced_prefixes(self) -> Set[str]:
        """Prefix hashes still referenced by unfinished fork cells
        (leased *or* waiting to be claimed).  ``repro checkpoints gc
        --queue`` protects these: deleting a referenced checkpoint would
        silently demote live cells to cold reruns."""
        unfinished = (
            self._spec_of(cell.qid)
            for cell in self._scan()
            if cell.state != "done"
        )
        return {spec.prefix_hash for spec in unfinished if spec.kind == "fork"}

    def claim(
        self, worker_id: str, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim one claimable cell, or ``None``.

        Also the sweep's reaper: scanning for work is when expired
        leases are noticed, so claiming re-offers dead workers' cells
        and retires cells that exhausted their attempt budget.
        """
        now = time.time() if now is None else now
        for cell in self._scan(now):
            if cell.state not in _CLAIMABLE:
                continue
            if cell.state != "pending":
                obs_metrics.count("queue.lease_expired")
            if cell.state == "exhausted":
                self._retire(cell, worker_id, now)
                continue
            attempt = cell.attempt + 1
            claim_path = self._claim_path(cell.qid, attempt)
            if not _create_exclusive(
                claim_path, {"worker": worker_id, "claimed_at": now}
            ):
                continue  # another worker won this attempt
            os.utime(claim_path, (now, now))  # lease age runs on ``now``
            obs_metrics.count("queue.claims")
            if attempt > 1:
                obs_metrics.count("queue.retries")
            obs_log.debug("queue.claim", task=cell.task_id, attempt=attempt)
            return Lease(
                task=self._spec_of(cell.qid),
                worker_id=worker_id,
                attempt=attempt,
                claimed_at=now,
            )
        return None

    def _retire(self, cell: CellState, worker_id: str, now: float) -> None:
        """Retry budget spent: record the cell as an error so the run
        completes instead of spinning forever."""
        spec = self._spec_of(cell.qid)
        record = cell_record(
            self.run_id(),
            spec.task_id,
            spec.config,
            status="error",
            error=(
                f"lease expired after {cell.attempt} attempts "
                f"(max_attempts={cell.attempt}); the workers executing this "
                "cell died or stalled repeatedly"
            ),
            worker=worker_id,
        )
        self._append_shard(worker_id, record)
        self._mark_done(
            cell.qid,
            status="error",
            worker=worker_id,
            attempt=cell.attempt,
            exhausted=True,
            finished=now,
        )
        obs_metrics.count("queue.exhausted")
        obs_log.warning(
            "queue.exhausted", task=spec.task_id, attempts=cell.attempt
        )

    def _mark_done(self, qid: str, **info: Any) -> bool:
        return _create_exclusive(self._done_path(qid), info)

    def _append_shard(self, worker_id: str, record: Dict[str, Any]) -> None:
        ResultStore(
            self.path / "shards" / f"{_qid(worker_id)}.jsonl"
        ).append_record(record)

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> bool:
        """Extend a lease; ``False`` if it was lost — the cell is done,
        re-claimed as a newer attempt, or reset — and the worker should
        abandon the cell's result.  A lease that was merely *released*
        (``release_leases``) and not yet re-claimed is revived."""
        now = time.time() if now is None else now
        qid = _qid(lease.task.task_id)
        if (
            self._done_path(qid).exists()
            or self._claim_path(qid, lease.attempt + 1).exists()
        ):
            return False
        try:
            os.utime(self._claim_path(qid, lease.attempt), (now, now))
        except OSError:
            return False
        return True

    def complete(
        self,
        lease: Lease,
        record: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> bool:
        """Record a finished cell; ``True`` if this call won (a racing
        attempt of the same cell may have finished first — the losing
        record is still in a shard and merge dedupes it)."""
        qid = _qid(lease.task.task_id)
        if payload is not None:
            atomic_write(self.path / "payloads" / f"{qid}.pkl", payload)
        # Record first, done marker second: once the marker exists the
        # record is guaranteed readable.  The reverse order could retire
        # a cell whose result was lost with the crashing worker.
        self._append_shard(lease.worker_id, record)
        return self._mark_done(
            qid,
            status=record.get("status", "ok"),
            worker=lease.worker_id,
            attempt=lease.attempt,
            finished=time.time(),
        )

    # -- requeue ---------------------------------------------------------

    def release_leases(self, task_ids: Optional[Sequence[str]] = None) -> int:
        """Expire live leases immediately (all, or the given tasks): the
        manual override for a worker known dead before its lease times
        out.  Attempt counters are preserved."""
        released = 0
        for cell in self._scan():
            if cell.state != "leased":
                continue
            if task_ids is not None and cell.task_id not in task_ids:
                continue
            try:
                os.utime(self._claim_path(cell.qid, cell.attempt), (0, 0))
                released += 1
            except OSError:
                pass
        return released

    def reset(
        self,
        task_ids: Optional[Sequence[str]] = None,
        failed_only: bool = False,
    ) -> List[str]:
        """Force tasks back to pending (clearing done markers, leases,
        and attempt counters); returns the reset ids.  With
        ``failed_only`` every ``error`` cell is reset — the recovery
        path after fixing whatever made them fail."""
        reset_ids = []
        for cell in self._scan():
            if task_ids is not None:
                # Named cells: finished ones and ones that were ever leased.
                if cell.task_id not in task_ids or cell.state == "pending":
                    continue
            elif cell.state != "done" or (
                failed_only
                and _read_json(self._done_path(cell.qid)).get("status") == "ok"
            ):
                continue
            stale = [self._done_path(cell.qid)] + [
                self._claim_path(cell.qid, attempt)
                for attempt in range(1, cell.attempt + 1)
            ]
            for path in stale:
                try:
                    path.unlink()
                except OSError:
                    pass
            reset_ids.append(cell.task_id)
        return reset_ids

    # -- results and workers ---------------------------------------------

    def cell_records(self) -> Iterator[Dict[str, Any]]:
        """Every recorded cell, duplicates and all (merge dedupes)."""
        for name in _listing(self.path / "shards", ".jsonl"):
            yield from ResultStore(self.path / "shards" / name).records(
                kind="cell"
            )

    def load_payload(self, task_id: str) -> Optional[bytes]:
        try:
            return (self.path / "payloads" / f"{_qid(task_id)}.pkl").read_bytes()
        except OSError:
            return None

    def workers_seen(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for name in _listing(self.path / "workers", ".json"):
            info = _read_json(self.path / "workers" / name)
            if info:
                out[urllib.parse.unquote(name[:-5])] = info
        return out

    def register_worker(self, worker_id: str, info: Dict[str, Any]) -> None:
        path = self.path / "workers" / f"{_qid(worker_id)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(info, sort_keys=True).encode("utf8"))

    # -- reporting -------------------------------------------------------

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Aggregate queue state for ``repro queue status``."""
        now = time.time() if now is None else now
        manifest = self.manifest()
        if manifest is None:
            return {"published": False, "path": str(self.path)}
        leases: Dict[str, Dict[str, Any]] = {}
        ok = failed = retried = 0
        for cell in self._scan(now):
            retried += cell.attempt > 1
            if cell.state == "done":
                if _read_json(self._done_path(cell.qid)).get("status") == "ok":
                    ok += 1
                else:
                    failed += 1
            elif cell.state == "leased":
                holder = _read_json(self._claim_path(cell.qid, cell.attempt))
                leases[cell.task_id] = {
                    "worker": holder.get("worker", "?"),
                    "attempt": cell.attempt,
                    "age_s": round(cell.age, 1),
                }
        total = manifest["n_tasks"]
        done = ok + failed
        return {
            "published": True,
            "path": str(self.path),
            "run_id": manifest["run_id"],
            "created": manifest["created"],
            "lease_s": manifest["lease_s"],
            "max_attempts": manifest["max_attempts"],
            "total": total,
            "done": done,
            "ok": ok,
            "failed": failed,
            "retried": retried,
            "leased": len(leases),
            "pending": total - done - len(leases),
            "leases": leases,
            "workers": self.workers_seen(),
            "complete": done >= total,
            # Reference time of this snapshot, so renderers can turn
            # the workers' ``last_seen`` stamps into heartbeat ages.
            "now": now,
        }


def open_queue(path: Union[str, Path, WorkQueue]) -> WorkQueue:
    """The queue at directory ``path``; an already-open queue is
    returned unchanged."""
    return path if isinstance(path, WorkQueue) else WorkQueue(path)
