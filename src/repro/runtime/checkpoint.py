"""Deterministic snapshot/restore of a full :class:`~repro.sim.engine.Simulation`.

A checkpoint captures *everything* the next round depends on — network
membership, per-layer node state, every RNG substream (via
``random.Random`` state), pending scheduled events, and the message
meter — so a run can be paused, forked at an interesting round (e.g.
right before a failure), and resumed **bit-identically**: running N
rounds, snapshotting, and running M more produces exactly the state of
an uninterrupted N+M-round run.

Checkpoints restore by deep copy, so one snapshot can seed any number
of divergent continuations (fork semantics).  Disk persistence uses
pickle; the standard event objects (:mod:`repro.sim.failures`,
:mod:`repro.sim.reinjection`) are picklable by construction, while
ad-hoc closure events make a checkpoint memory-only — :func:`save`
reports that as a :class:`~repro.errors.CheckpointError` instead of a
bare pickle traceback.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..errors import CheckpointError
from ..obs import mem as obs_mem
from ..obs import metrics as obs_metrics
from ..obs.stream import atomic_write
from ..sim.arrays import ViewBuffer
from ..sim.engine import Simulation

#: On-disk checkpoint format: the array-backed layout (network state in
#: a struct-of-arrays :class:`~repro.sim.arrays.NodeTable`, views as
#: :class:`~repro.sim.arrays.ViewBuffer` columns).  Format 1 was the
#: per-node object layout nothing has written since the array refactor;
#: :func:`load` and :func:`restore` reject every format but this one.
CHECKPOINT_FORMAT = 2

_MAGIC = b"repro-ckpt"


@dataclass
class SimulationCheckpoint:
    """A frozen simulation state plus identifying metadata."""

    format: int
    round: int
    seed: int
    n_alive: int
    n_total: int
    layer_names: list
    #: The frozen simulation object.  Treat as opaque: mutate nothing,
    #: restore via :func:`restore` (which deep-copies so the checkpoint
    #: stays reusable).
    sim: Simulation = field(repr=False)

    def describe(self) -> str:
        return (
            f"checkpoint(round={self.round}, seed={self.seed}, "
            f"alive={self.n_alive}/{self.n_total}, "
            f"layers={'/'.join(self.layer_names)})"
        )


def snapshot(sim: Simulation) -> SimulationCheckpoint:
    """Capture the complete current state of ``sim``.

    The source simulation can keep running afterwards; the checkpoint is
    an independent deep copy.
    """
    try:
        frozen = copy.deepcopy(sim)
    except Exception as exc:  # pragma: no cover - deepcopy of sim state
        raise CheckpointError(f"simulation state is not copyable: {exc}") from exc
    return SimulationCheckpoint(
        format=CHECKPOINT_FORMAT,
        round=sim.round,
        seed=sim.seed,
        n_alive=sim.network.n_alive,
        n_total=sim.network.n_total,
        layer_names=[layer.name for layer in sim.layers],
        sim=frozen,
    )


def restore(
    checkpoint: SimulationCheckpoint, engine: Optional[str] = None
) -> Simulation:
    """A fresh simulation continuing exactly from the checkpointed
    round.  Each call returns an independent copy, so one checkpoint can
    fork many divergent futures.

    ``engine`` requests a specific execution engine (``"event"`` or
    ``"batch"``): a snapshot taken under the other engine is *converted*
    where semantics allow (network, per-node protocol state, pending
    events and the meter carry over verbatim; RNG substreams are
    re-derived at the switch boundary, so the continuation is a valid
    run of the target engine, not a bit-level extension of the source
    trajectory).  Conversion raises :class:`CheckpointError` when the
    snapshot cannot run under the target engine (non-vector space, or a
    layer stack the converter does not recognise).
    """
    if checkpoint.format != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {checkpoint.format} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    sim = copy.deepcopy(checkpoint.sim)
    if engine is not None:
        sim = convert_engine(sim, engine)
    return sim


def convert_engine(sim: Simulation, engine: str) -> Simulation:
    """Convert a live simulation to the requested execution engine
    (no-op when it already runs under it); see :func:`restore`."""
    from ..errors import ConfigurationError
    from ..sim.batch.convert import to_batch, to_event

    try:
        if engine == "batch":
            return to_batch(sim)
        if engine == "event":
            return to_event(sim)
    except ConfigurationError as exc:
        raise CheckpointError(
            f"checkpoint cannot run under the {engine!r} engine: {exc}"
        ) from exc
    raise CheckpointError(f"unknown execution engine {engine!r}")


def save(checkpoint: SimulationCheckpoint, path: Union[str, Path]) -> Path:
    """Persist a checkpoint to ``path`` (atomic: write then rename)."""
    path = Path(path)
    with obs_metrics.timer("checkpoint.save"):
        try:
            blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                "checkpoint is not picklable (a scheduled event is probably a "
                f"closure — use the event classes in repro.sim.failures): {exc}"
            ) from exc
        # Two workers publishing the same content-addressed cache entry
        # concurrently must not truncate each other's half-written
        # temp file before the rename.
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, _MAGIC + blob)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc
        obs_metrics.observe("checkpoint.bytes", float(len(blob)))
        if obs_mem.ENABLED:
            obs_mem.scratch("checkpoint", "checkpoint.save.blob", len(blob))
    return path


def load(path: Union[str, Path]) -> SimulationCheckpoint:
    """Read a checkpoint previously written by :func:`save`."""
    path = Path(path)
    with obs_metrics.timer("checkpoint.load"):
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        if not raw.startswith(_MAGIC):
            raise CheckpointError(f"{path} is not a repro checkpoint file")
        try:
            checkpoint = pickle.loads(raw[len(_MAGIC):])
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
        if not isinstance(checkpoint, SimulationCheckpoint):
            raise CheckpointError(
                f"{path} does not contain a SimulationCheckpoint"
            )
        if checkpoint.format != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {checkpoint.format} in {path} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
    return checkpoint


# -- state fingerprinting ---------------------------------------------------


def _node_state(node) -> tuple:
    """A canonical, order-stable summary of one node's layer state."""
    entries = [("pos", node.pos)]
    for attr in sorted(vars(node)):
        if attr.endswith("_view"):
            view = getattr(node, attr)
            if isinstance(view, (dict, ViewBuffer)):
                entries.append((attr, sorted(view)))
    poly = getattr(node, "poly", None)
    if poly is not None:
        entries.append(
            (
                "poly",
                (
                    sorted(poly.guests),
                    sorted(
                        (origin, tuple(sorted(pts)))
                        for origin, pts in poly.ghosts.items()
                    ),
                    sorted(poly.backups),
                    sorted(
                        (nid, tuple(sorted(sent)))
                        for nid, sent in poly.backup_sent.items()
                    ),
                ),
            )
        )
    return tuple(entries)


def _event_fingerprint(event, depth: int = 3) -> tuple:
    """A stable identity for a scheduled event: its class (or function
    qualname) plus its parameters, recursing into nested objects (e.g.
    a RegionFailure's predicate) up to ``depth`` levels.  Default
    ``repr`` is useless here (it embeds memory addresses), so only
    address-free material is fed to the digest."""
    target = getattr(event, "__self__", event)  # bound method -> instance
    if isinstance(target, types.FunctionType):
        return (target.__qualname__, ())
    params = []
    if depth > 0 and hasattr(target, "__dict__"):
        for key, value in sorted(vars(target).items()):
            if isinstance(value, (int, float, str, bool, tuple, list, frozenset)):
                params.append((key, value))
            else:
                params.append((key, _event_fingerprint(value, depth - 1)))
    return (type(target).__qualname__, tuple(params))


def _rng_state(rng) -> object:
    """A repr-stable state token for either RNG flavour: the event
    engine's ``random.Random`` or the batch engine's numpy Generator."""
    getstate = getattr(rng, "getstate", None)
    if getstate is not None:
        return getstate()
    return ("numpy", rng.bit_generator.state)


def state_digest(sim: Simulation) -> str:
    """A stable SHA-256 fingerprint of the simulation state.

    Two simulations with equal digests agree on round number,
    membership, node positions, per-node protocol state, every RNG
    substream, message-meter history, and the pending event schedule
    (event identity and parameters, not just rounds) — the checkpoint
    round-trip tests assert digest equality between interrupted and
    uninterrupted runs.  Batch-engine simulations sync their array
    state onto the canonical per-node attributes first, so the same
    definition covers both engines (their digests never collide:
    the RNG states differ by construction).
    """
    sync = getattr(sim, "sync_canonical", None)
    if sync is not None:
        sync()
    h = hashlib.sha256()

    def feed(tag: str, value) -> None:
        h.update(tag.encode("utf8"))
        h.update(repr(value).encode("utf8"))

    feed("round", sim.round)
    feed("seed", sim.seed)
    feed("alive", sim.network.alive_ids())
    feed("dead", sim.network.dead_ids())
    for nid in sim.network.alive_ids():
        feed(f"node:{nid}", _node_state(sim.network.node(nid)))
    for name in sorted(sim._rngs):
        feed(f"rng:{name}", _rng_state(sim._rngs[name]))
    feed("rng:engine", _rng_state(sim._engine_rng))
    feed("meter", [sorted(snap.items()) for snap in sim.meter.history])
    feed(
        "pending",
        [
            (rnd, [_event_fingerprint(event) for event in sim._events[rnd]])
            for rnd in sorted(sim._events)
        ],
    )
    return h.hexdigest()


def checkpoint_size(checkpoint: SimulationCheckpoint) -> int:
    """The serialized size of a checkpoint in bytes (for the
    micro-benchmarks tracking snapshot overhead)."""
    buf = io.BytesIO()
    pickle.dump(checkpoint, buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getbuffer().nbytes
