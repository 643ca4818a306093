"""Deterministic snapshot/restore of a full :class:`~repro.sim.engine.Simulation`.

A checkpoint captures *everything* the next round depends on — network
membership, per-layer node state, every RNG substream (via
``random.Random`` state), pending scheduled events, and the message
meter — so a run can be paused, forked at an interesting round (e.g.
right before a failure), and resumed **bit-identically**: running N
rounds, snapshotting, and running M more produces exactly the state of
an uninterrupted N+M-round run.

A checkpoint *is* one serialisation: :func:`snapshot` pickles the
simulation once and the checkpoint carries those bytes, :func:`save`
writes them behind a checksummed header, :func:`load` reads them back
without unpickling anything, and every :func:`restore` is one
``pickle.loads`` — so one snapshot seeds any number of independent,
divergent continuations (fork semantics).  The standard event objects
(:mod:`repro.sim.failures`, :mod:`repro.sim.reinjection`) are picklable
by construction.  An ad-hoc closure event is not: such a simulation
still snapshots and restores in memory, through the one
``copy.deepcopy`` fallback below, and :func:`save` reports it as a
:class:`~repro.errors.CheckpointError` instead of a bare pickle
traceback.

:func:`state_digest` is a pure read on both engines: it never attaches,
syncs or grows anything, so fingerprinting a simulation changes neither
its next round nor the size of its next checkpoint.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import pickle
import types
from pathlib import Path
from typing import Optional, Union

from ..errors import CheckpointError
from ..obs import mem as obs_mem
from ..obs import metrics as obs_metrics
from ..obs.stream import atomic_write
from ..sim.arrays import ViewBuffer
from ..sim.engine import Simulation

#: On-disk checkpoint format: ``_MAGIC``, the SHA-256 (hex) of everything
#: after its line, one JSON line of metadata, then the pickled
#: simulation.  Format 2 was one pickle of the whole checkpoint object
#: with no checksum; :func:`load` and :func:`restore` reject every
#: format but this one (cached entries are disposable: one format, no
#: legacy reader).
CHECKPOINT_FORMAT = 3

_MAGIC = b"repro-ckpt"
#: Offset of the checksummed body: magic, 64 hex digits, a newline.
_BODY_AT = len(_MAGIC) + 2 * hashlib.sha256().digest_size + 1
_META_FIELDS = ("format", "round", "seed", "n_alive", "n_total", "layer_names")


class SimulationCheckpoint:
    """A frozen simulation state plus identifying metadata.

    The state is ``blob``, the pickled simulation.  Bytes are immutable,
    so a checkpoint can be shared, cached and restored any number of
    times without a defensive copy.  Only a simulation that does not
    pickle (a closure event) is held as an object instead
    (``blob is None``); such a checkpoint is memory-only.
    """

    def __init__(
        self,
        format: int,
        round: int,
        seed: int,
        n_alive: int,
        n_total: int,
        layer_names: list,
        sim: Optional[Simulation] = None,
        blob: Optional[bytes] = None,
    ) -> None:
        self.format = format
        self.round = round
        self.seed = seed
        self.n_alive = n_alive
        self.n_total = n_total
        self.layer_names = layer_names
        self.blob = blob
        self._sim = sim

    @property
    def sim(self) -> Simulation:
        """The frozen simulation, for inspection and fingerprinting —
        read-only; continue from :func:`restore`.  Unpickled from
        ``blob`` on each read and not retained (a checkpoint stays as
        small as its bytes), so keep the result while you use it."""
        if self.blob is None:
            return self._sim
        return _loads(self.blob)

    def describe(self) -> str:
        return (
            f"checkpoint(round={self.round}, seed={self.seed}, "
            f"alive={self.n_alive}/{self.n_total}, "
            f"layers={'/'.join(self.layer_names)})"
        )

    __repr__ = describe


def _loads(blob: bytes) -> Simulation:
    # Unpickling only allocates: every pass the cyclic collector starts
    # meanwhile re-walks a growing heap with nothing to free — two
    # thirds of the time at 80x40 — so it is paused for the call.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint state: {exc}") from exc
    finally:
        if collecting:
            gc.enable()


def snapshot(sim: Simulation) -> SimulationCheckpoint:
    """Capture the complete current state of ``sim``.

    The source simulation can keep running afterwards; the checkpoint
    holds an independent serialisation of it.
    """
    blob = frozen = None
    try:
        blob = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        # A closure event: functions deep-copy by reference, so the
        # state stays checkpointable in memory (``save`` will refuse).
        try:
            frozen = copy.deepcopy(sim)
        except Exception as exc:  # pragma: no cover - deepcopy of sim state
            raise CheckpointError(
                f"simulation state is not copyable: {exc}"
            ) from exc
    return SimulationCheckpoint(
        format=CHECKPOINT_FORMAT,
        round=sim.round,
        seed=sim.seed,
        n_alive=sim.network.n_alive,
        n_total=sim.network.n_total,
        layer_names=[layer.name for layer in sim.layers],
        sim=frozen,
        blob=blob,
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
    sim = checkpoint.sim  # one ``pickle.loads`` of the blob ...
    if checkpoint.blob is None:  # ... or the held closure-event object
        sim = copy.deepcopy(sim)
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


def _encode(checkpoint: SimulationCheckpoint) -> bytes:
    """The bytes of a checkpoint file (see :data:`CHECKPOINT_FORMAT`)."""
    blob = checkpoint.blob
    if blob is None:
        try:
            blob = pickle.dumps(checkpoint.sim, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                "checkpoint is not picklable (a scheduled event is probably a "
                f"closure — use the event classes in repro.sim.failures): {exc}"
            ) from exc
    meta = {name: getattr(checkpoint, name) for name in _META_FIELDS}
    head = json.dumps(meta, sort_keys=True).encode("utf8") + b"\n"
    sha = hashlib.sha256(head)
    sha.update(blob)
    return b"".join((_MAGIC, sha.hexdigest().encode("ascii"), b"\n", head, blob))


def save(checkpoint: SimulationCheckpoint, path: Union[str, Path]) -> Path:
    """Persist a checkpoint to ``path`` (atomic: write then rename)."""
    path = Path(path)
    with obs_metrics.timer("checkpoint.save"):
        data = _encode(checkpoint)
        # Two workers publishing the same content-addressed cache entry
        # concurrently must not truncate each other's half-written
        # temp file before the rename.
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc
        obs_metrics.observe("checkpoint.bytes", float(len(data)))
        if obs_mem.ENABLED:
            obs_mem.scratch("checkpoint", "checkpoint.save.blob", len(data))
    return path


def load(path: Union[str, Path]) -> SimulationCheckpoint:
    """Read a checkpoint previously written by :func:`save`.

    Every byte after the header line is covered by the header's
    SHA-256, so a truncated or bit-flipped file is a
    :class:`CheckpointError` here — before anything is unpickled, and
    whether or not the damage would have shown in :func:`state_digest`.
    The state itself stays serialised until :func:`restore`.
    """
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
        sha, body = raw[len(_MAGIC) : _BODY_AT], memoryview(raw)[_BODY_AT:]
        if sha != hashlib.sha256(body).hexdigest().encode("ascii") + b"\n":
            raise CheckpointError(
                f"corrupt checkpoint {path}: checksum mismatch (damaged, "
                f"or not written as format {CHECKPOINT_FORMAT})"
            )
        meta_end = raw.index(b"\n", _BODY_AT)
        meta = json.loads(raw[_BODY_AT:meta_end])
        if meta["format"] != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {meta['format']} in {path} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
    return SimulationCheckpoint(**meta, blob=raw[meta_end + 1 :])


# -- state fingerprinting ---------------------------------------------------


def _poly_state(poly) -> tuple:
    """The sorted placement summary of one ``PolystyreneState`` — the
    shape ``PlacementStore.canonical`` produces per row from arrays."""
    return (
        sorted(poly.guests),
        sorted((origin, tuple(sorted(pts))) for origin, pts in poly.ghosts.items()),
        sorted(poly.backups),
        sorted((nid, tuple(sorted(sent))) for nid, sent in poly.backup_sent.items()),
    )


def _node_state(node, layer_views, placement=None) -> tuple:
    """A canonical, order-stable summary of one node's layer state.

    View ids come from the node's ``*_view`` attributes, except those a
    batch layer owns (``layer_views``, ``{attribute: ids per table
    row}``): there the arrays are the state, and an attribute an earlier
    ``sync_canonical()`` left behind is stale and ignored.  The same
    holds for ``placement`` (summaries per table row) against
    ``node.poly``."""
    views = {attr: rows[node.row] for attr, rows in layer_views.items()}
    for attr, view in vars(node).items():
        if (
            attr.endswith("_view")
            and attr not in views
            and isinstance(view, (dict, ViewBuffer))
        ):
            views[attr] = sorted(view)
    entries = [("pos", node.pos), *sorted(views.items())]
    if placement is not None:
        entries.append(("poly", placement[node.row]))
    elif getattr(node, "poly", None) is not None:
        entries.append(("poly", _poly_state(node.poly)))
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
    uninterrupted runs.  A batch-engine simulation's view ids are read
    and placement state are read from its arrays (``canonical_view_ids``,
    ``canonical_placement``), exactly what
    ``sync_canonical()`` would have materialised, so the same definition
    covers both engines (their digests never collide: the RNG states
    differ by construction) — and the call is a pure read on either.
    """
    canonical = getattr(sim, "canonical_view_ids", None)
    layer_views = canonical() if canonical is not None else {}
    canonical = getattr(sim, "canonical_placement", None)
    placement = canonical() if canonical is not None else None
    h = hashlib.sha256()

    def feed(tag: str, value) -> None:
        h.update(tag.encode("utf8"))
        h.update(repr(value).encode("utf8"))

    feed("round", sim.round)
    feed("seed", sim.seed)
    feed("alive", sim.network.alive_ids())
    feed("dead", sim.network.dead_ids())
    for nid in sim.network.alive_ids():
        feed(
            f"node:{nid}",
            _node_state(sim.network.node(nid), layer_views, placement),
        )
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
    """The size in bytes of the file :func:`save` would write (for the
    micro-benchmarks tracking snapshot overhead)."""
    return len(_encode(checkpoint))
