"""Phase-fork sweeps: share one Phase-1 simulation across ablations.

The paper's evaluation is two-phase — converge a shape, then hit it
with a catastrophic failure — and a sweep grid typically varies only
*post-failure* parameters (failure fraction, reinjection, run length,
detection delay).  Every such cell re-simulates an identical Phase 1.
This module removes that redundancy:

* :func:`plan_fork_sweep` groups a grid's cells by their *prefix* — the
  projection of the configuration onto the fields that influence rounds
  before ``failure_round`` (see
  :data:`repro.experiments.scenario.DIVERGENT_FIELDS`);
* each unique prefix is simulated once, snapshotted at the fork round
  (one pickle of the simulation), and stored in a content-addressed
  on-disk :class:`CheckpointCache` keyed by prefix-config hash +
  ``state_digest``;
* :func:`bind_fork_plan` does both and hands every cell back as a
  :class:`ForkContinuationTask` pinned to its prefix's digest — the
  only caller of the planner and the only constructor of a prefix task;
  :func:`repro.runtime.dispatch.run_sweep` gives the bound tasks to
  whichever executor was chosen (the local
  :class:`~repro.runtime.runner.ParallelRunner` or the cluster's queue);
* a continuation loads the entry — verified twice over: the file's
  byte checksum, then the state digest re-derived from its content
  against the file name — restores it (one unpickle), re-applies its
  divergent fields (:func:`repro.experiments.scenario.apply_divergence`),
  and runs only the rest, under the executor's ordinary per-cell
  machinery (crash isolation, progress, result-store persistence).

Fork-mode results are **byte-identical** to cold-start results — the
grouping is correct by construction (no divergent field is read before
the fork round) and enforced by tests, not assumed.  Any cache problem
(missing, truncated, bit-flipped, or semantically stale checkpoint)
silently falls back to a cold ``run_scenario``, never to a crash or a
different result.

The cache is persistent, so the savings compound across invocations:
re-running a sweep with a longer post-failure window, a different
failure fraction, or another experiment that shares configurations
(e.g. Fig. 10a's K=4 column and Fig. 10b's ``advanced`` column) reuses
the stored prefixes outright.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import CheckpointError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.stream import atomic_write
from ..sim.engine import semantics_version_for
from ..experiments.scenario import (
    ScenarioConfig,
    ScenarioResult,
    apply_divergence,
    finish_scenario,
    prefix_scenario,
    run_prefix,
    run_scenario,
)
from . import checkpoint as ckpt
from .checkpoint import SimulationCheckpoint
from .runner import ParallelRunner, SweepTask
from .store import config_dict, config_hash

#: Environment variable naming the default checkpoint-cache directory.
CACHE_ENV = "REPRO_CHECKPOINT_DIR"
DEFAULT_CACHE_DIR = ".repro-checkpoints"

CHECKPOINT_SUFFIX = ".ckpt"
META_SUFFIX = ".json"


def default_cache_dir() -> Path:
    """``$REPRO_CHECKPOINT_DIR`` or ``.repro-checkpoints`` in the cwd."""
    return Path(os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR)


class CheckpointCache:
    """Content-addressed on-disk store of prefix checkpoints.

    A prefix lives at ``<root>/<prefix_hash>-<state_digest>.ckpt``: the
    file name itself asserts what the checkpoint *is* (which prefix
    configuration, under which simulation semantics — :meth:`key` mixes
    the configured engine's semantics version
    (:func:`repro.sim.engine.semantics_version_for`) into the hash, so
    a declared semantic change orphans every old entry) and what it
    *contains* (the digest of the frozen state).  :meth:`load` checks
    the file's own byte checksum (bit rot, a truncated write — also in
    the parts of the state the digest does not cover, such as view
    coordinates and ages), then re-derives the digest, and treats any
    mismatch as a cache miss, discarding the damaged file.
    Unintended semantic drift is the golden-digest tests' job
    (``tests/test_golden_digests``); the version bump they prescribe is
    what keeps this cache honest.  A small JSON sidecar per entry
    carries the human-facing metadata (``repro checkpoints ls``) so
    listing never needs to unpickle a checkpoint.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- keys and paths ---------------------------------------------------

    @staticmethod
    def key(prefix: ScenarioConfig) -> str:
        """The cache key of a prefix configuration, versioned by the
        semantics of the engine it runs under — bumping either engine's
        semantics version orphans that engine's entries only."""
        version = semantics_version_for(getattr(prefix, "engine", "event"))
        canon = f"{config_hash(prefix)}:semantics={version}"
        return hashlib.sha256(canon.encode("utf8")).hexdigest()[:16]

    def find(self, prefix_hash: str) -> Optional[Path]:
        """Path of the stored checkpoint for a prefix, if any."""
        if not self.root.is_dir():
            return None
        matches = sorted(self.root.glob(f"{prefix_hash}-*{CHECKPOINT_SUFFIX}"))
        return matches[0] if matches else None

    # -- read/write -------------------------------------------------------

    def load(self, prefix_hash: str) -> Optional[SimulationCheckpoint]:
        """The verified checkpoint for a prefix, or ``None`` on miss."""
        verified = self.load_verified(prefix_hash)
        return verified[0] if verified is not None else None

    def load_verified(
        self, prefix_hash: str, digest: Optional[str] = None
    ) -> Optional[Tuple[SimulationCheckpoint, str]]:
        """``(checkpoint, state_digest)`` for a prefix, ``None`` on miss.

        With ``digest`` the entry must additionally *be* that exact
        state (a continuation asks for the checkpoint its plan was
        bound to, by digest, and treats anything else as a miss).  Corrupt entries
        (a failed byte checksum, an unreadable pickle, or a state digest
        that no longer matches the file name) are deleted and reported
        as a miss — the caller recomputes, it never crashes.
        """
        with obs_trace.span("checkpoint.fetch", prefix=prefix_hash):
            return self._load_verified(prefix_hash, digest)

    def _load_verified(
        self, prefix_hash: str, digest: Optional[str]
    ) -> Optional[Tuple[SimulationCheckpoint, str]]:
        path = (
            self.find(prefix_hash)
            if digest is None
            else self.root / f"{prefix_hash}-{digest}{CHECKPOINT_SUFFIX}"
        )
        if path is None or not path.exists():
            obs_metrics.count("checkpoint.miss")
            return None
        expected = path.name[: -len(CHECKPOINT_SUFFIX)].split("-", 1)[1]
        try:
            loaded = ckpt.load(path)
            problem = (
                None
                if ckpt.state_digest(loaded.sim) == expected
                else "checkpoint.digest_mismatch"
            )
        except CheckpointError:
            problem = "checkpoint.corrupt"
        if problem is not None:
            self._discard(path)
            obs_metrics.count("checkpoint.corrupt")
            obs_log.warning(problem, prefix=prefix_hash, path=str(path))
            return None
        obs_metrics.count("checkpoint.hit")
        return loaded, expected

    def publish(
        self, prefix: ScenarioConfig, checkpoint: SimulationCheckpoint
    ) -> Tuple[str, Path]:
        """Persist a prefix checkpoint; returns ``(digest, path)``.

        Safe under concurrent publishers of the same prefix (many
        machines racing to warm a shared NFS cache): the checkpoint is
        written to a per-process tmp file and renamed into its
        content-addressed name, so readers only ever see whole entries,
        and the racers converge on identical bytes anyway.
        """
        prefix_hash = self.key(prefix)
        with obs_trace.span("checkpoint.publish", prefix=prefix_hash):
            digest = ckpt.state_digest(checkpoint.sim)
            path = self.root / f"{prefix_hash}-{digest}{CHECKPOINT_SUFFIX}"
            ckpt.save(checkpoint, path)
            meta = {
                "prefix_hash": prefix_hash,
                "semantics_version": semantics_version_for(
                    getattr(prefix, "engine", "event")
                ),
                "engine": getattr(prefix, "engine", "event"),
                "state_digest": digest,
                "round": checkpoint.round,
                "seed": checkpoint.seed,
                "n_alive": checkpoint.n_alive,
                "n_total": checkpoint.n_total,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "size_bytes": path.stat().st_size,
                "config": config_dict(prefix),
            }
            atomic_write(
                path.with_suffix(META_SUFFIX),
                json.dumps(meta, sort_keys=True, indent=1).encode("utf8"),
            )
            clear_checkpoint_memo()
            obs_metrics.count("checkpoint.publish")
        obs_log.info(
            "checkpoint.publish",
            prefix=prefix_hash,
            digest=digest,
            round=checkpoint.round,
            size_bytes=meta["size_bytes"],
        )
        return digest, path

    def digest_of(self, prefix_hash: str) -> Optional[str]:
        """The stored state digest for a prefix (from the file name)."""
        path = self.find(prefix_hash)
        if path is None:
            return None
        return path.name[: -len(CHECKPOINT_SUFFIX)].split("-", 1)[1]

    # -- maintenance ------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata of every cached prefix (for ``repro checkpoints ls``)."""
        if not self.root.is_dir():
            return []
        out: List[Dict[str, Any]] = []
        for path in sorted(self.root.glob(f"*{CHECKPOINT_SUFFIX}")):
            meta_path = path.with_suffix(META_SUFFIX)
            try:
                meta = json.loads(meta_path.read_text(encoding="utf8"))
            except (OSError, json.JSONDecodeError):
                stem = path.name[: -len(CHECKPOINT_SUFFIX)]
                parts = stem.split("-", 1)
                meta = {
                    "prefix_hash": parts[0],
                    "state_digest": parts[1] if len(parts) > 1 else "",
                }
            meta["path"] = str(path)
            try:
                meta.setdefault("size_bytes", path.stat().st_size)
                meta["mtime"] = path.stat().st_mtime
            except OSError:
                continue
            out.append(meta)
        return out

    def gc(
        self,
        older_than_s: Optional[float] = None,
        protect: Collection[str] = (),
    ) -> List[Path]:
        """Delete cached prefixes (all of them, or only entries whose
        checkpoint file is older than ``older_than_s`` seconds);
        returns the removed checkpoint paths.

        ``protect`` is a collection of prefix hashes that must survive
        regardless of age — the CLI passes the prefixes still referenced
        by a live cluster queue (leased or pending fork cells), so a
        cache sweep on a shared directory never yanks a checkpoint out
        from under a running worker.
        """
        removed: List[Path] = []
        protected = set(protect)
        now = time.time()
        for entry in self.entries():
            path = Path(entry["path"])
            if entry.get("prefix_hash") in protected:
                continue
            if older_than_s is not None and now - entry["mtime"] < older_than_s:
                continue
            self._discard(path)
            removed.append(path)
        return removed

    def _discard(self, path: Path) -> None:
        for target in (path, path.with_suffix(META_SUFFIX)):
            try:
                target.unlink()
            except OSError:
                pass


# Per-process memo of the verified checkpoint (with its digest) of the
# most recently used prefix, so a worker executing several continuations
# of one prefix back to back reads, checksums and digest-verifies it
# once.  What it holds is the checkpoint's pickled bytes, never an
# unpickled simulation: immutable, so a hit needs no defensive copy.
# Misses are NOT memoized — a prefix that appears on disk later
# (recomputed by another worker or sweep) must be found on the next
# attempt.
_CKPT_MEMO: Dict[Tuple[str, str], Tuple[SimulationCheckpoint, str]] = {}


def _load_memoized(
    root: str, prefix_hash: str, digest: Optional[str] = None
) -> Optional[Tuple[SimulationCheckpoint, str]]:
    key = (root, prefix_hash)
    if key not in _CKPT_MEMO or (
        digest is not None and _CKPT_MEMO[key][1] != digest
    ):
        _CKPT_MEMO.clear()  # before the read: never two blobs resident
        verified = CheckpointCache(root).load_verified(prefix_hash, digest=digest)
        if verified is None:
            return None
        _CKPT_MEMO[key] = verified
    else:
        obs_metrics.count("checkpoint.memo_hit")
    return _CKPT_MEMO[key]


def clear_checkpoint_memo() -> None:
    """Drop the memoized checkpoint of this process.

    The memo is correctness-neutral (the entry is verified on load and
    dropped on any publish or failed restore), so beyond those two this
    only matters for tests that mutate cache files on disk and need the
    next load to actually hit them.
    """
    _CKPT_MEMO.clear()


# -- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixTask(SweepTask):
    """Simulate one shared prefix and park it in the cache.

    Runs through the ordinary :class:`ParallelRunner` (its ``config`` is
    the *prefix* configuration), but produces a cache entry instead of a
    :class:`ScenarioResult`."""

    cache_root: str = ""

    def run(self) -> None:
        # The live simulation is dropped as soon as it is serialised.
        frozen = ckpt.snapshot(run_prefix(self.config))
        CheckpointCache(self.cache_root).publish(self.config, frozen)
        return None


@dataclass(frozen=True)
class ForkContinuationTask(SweepTask):
    """One grid cell executed from the shared prefix checkpoint.

    Restores the cached prefix, applies the cell's divergent fields and
    finishes the scenario.  On any cache miss (including a corrupt or
    stale checkpoint) it falls back to a cold ``run_scenario`` — same
    result, just slower.  After ``run`` the actually-used provenance is
    readable as ``forked_from`` (the prefix state digest, or ``None``
    for a cold fallback), which the runner copies into the cell record.
    """

    cache_root: str = ""
    prefix_hash: str = ""
    #: When set, only the checkpoint with exactly this state digest is
    #: acceptable (a cluster worker forking from the checkpoint its
    #: coordinator published); anything else is a miss -> cold run.
    expect_digest: str = ""

    def run(self) -> ScenarioResult:
        verified = _load_memoized(
            self.cache_root, self.prefix_hash, self.expect_digest or None
        )
        if verified is not None:
            loaded, digest = verified
            try:
                sim = ckpt.restore(loaded)
                apply_divergence(sim, self.config)
                result = finish_scenario(sim)
            except CheckpointError:
                clear_checkpoint_memo()
            else:
                object.__setattr__(self, "forked_from", digest)
                obs_metrics.count("cells.forked")
                return result
        obs_metrics.count("cells.cold")
        obs_log.debug(
            "forksweep.cold_fallback",
            task=self.task_id,
            prefix=self.prefix_hash,
        )
        return run_scenario(self.config)


# -- planning ----------------------------------------------------------------


@dataclass
class ForkGroup:
    """All cells sharing one pre-failure prefix."""

    prefix: ScenarioConfig
    prefix_hash: str
    tasks: List[SweepTask] = field(default_factory=list)


@dataclass
class ForkPlan:
    """A sweep grid partitioned into shared prefixes plus cold cells."""

    groups: List[ForkGroup]
    #: Cells with no usable fork point (no failure, or failure at
    #: round 0) — these always run cold.
    cold: List[SweepTask]


def plan_fork_sweep(tasks: Sequence[SweepTask]) -> ForkPlan:
    """Group grid cells by their shared pre-failure prefix."""
    groups: Dict[str, ForkGroup] = {}
    cold: List[SweepTask] = []
    for task in tasks:
        prefix = prefix_scenario(task.config)
        if prefix is None:
            cold.append(task)
            continue
        prefix_hash = CheckpointCache.key(prefix)
        group = groups.get(prefix_hash)
        if group is None:
            group = groups[prefix_hash] = ForkGroup(
                prefix=prefix, prefix_hash=prefix_hash
            )
        group.tasks.append(task)
    return ForkPlan(groups=list(groups.values()), cold=cold)


# -- binding ----------------------------------------------------------------


def bind_fork_plan(
    tasks: Sequence[SweepTask],
    cache: CheckpointCache,
    prefix_runner: ParallelRunner,
) -> List[SweepTask]:
    """Bind a grid to its fork points; tasks in input order.

    Every prefix missing from ``cache`` is simulated once through
    ``prefix_runner`` — locally, whichever executor then runs the cells
    — and each cell that has a prefix comes back as a
    :class:`ForkContinuationTask` pinned to the digest now in the cache;
    cells without a fork point come back unchanged.  A prefix that
    errored leaves no entry: its cells are still continuation tasks
    (with no digest), so the cold fallback and its ``cells.cold`` count
    stay in the one place that has them.  Per-cell results are
    byte-identical to running ``tasks`` as given.
    """
    with obs_trace.span("prefix.plan"):
        plan = plan_fork_sweep(tasks)
        missing = [
            group for group in plan.groups if cache.find(group.prefix_hash) is None
        ]
    if missing:
        # No store: prefixes are infrastructure, not sweep cells.
        prefix_runner.run(
            [
                PrefixTask(
                    task_id=f"prefix-{group.prefix_hash}",
                    config=group.prefix,
                    cache_root=str(cache.root),
                )
                for group in missing
            ]
        )
    bound: Dict[str, SweepTask] = {}
    for group in plan.groups:
        digest = cache.digest_of(group.prefix_hash) or ""
        for task in group.tasks:
            bound[task.task_id] = ForkContinuationTask(
                task_id=task.task_id,
                config=task.config,
                cache_root=str(cache.root),
                prefix_hash=group.prefix_hash,
                expect_digest=digest,
            )
    return [bound.get(task.task_id, task) for task in tasks]
