"""A round holds its persistent state plus one block.

Three halves of that claim are held here:

* **the footprint** — on a 160x80 batch cell every layer step of the
  blocked layers (peer sampling, T-Man) and every observer allocates no
  more than one block (``_COLIVE_MAX`` scratch budgets), the layer's
  stacked messages and a dozen node-length index columns beside the
  persistent arrays; the topology merge alone may add the last-writer
  table of its row floor.  The protocol layer is not held to it: its
  wave and recovery arrays are whole-network (ROADMAP item 1);
* **blocked ≡ whole** — T-Man's and Vicinity's groom, one row block at a
  time, leaves the views, ages and every RNG stream exactly as the
  whole-network pass it replaced (kept below as the oracle);
* **growth is safe** — ``arrays.resized`` extends a row array in place
  only when nothing else references it, and otherwise copies, so a held
  view keeps reading the rows it saw; either way the state, its
  checkpoint and the trajectory are the same.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.obs import mem as obs_mem
from repro.runtime import checkpoint as ckpt
from repro.sim.arrays import _COLIVE_MAX, _MIN_BLOCK_ROWS, _SCRATCH_BYTES
from repro.sim.batch import kernels
from repro.sim.reinjection import Reinjection

# -- the footprint --------------------------------------------------------

#: Node-length int64 columns a layer step may hold whole-network beside
#: its messages: partners, exchange rows, receiver buckets and counts.
NODE_COLUMNS = 12


class Transients:
    """tracemalloc's transient peak of every wrapped call, per call.

    Calls nest (a layer step runs its stages), and tracemalloc has one
    peak: an inner call folds the peak it resets into the frames around
    it, so every frame still reads its own high-water mark."""

    def __init__(self) -> None:
        self.peaks: dict = {}
        self._frames: list = []

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            if self._frames:
                self._frames[-1][1] = max(
                    self._frames[-1][1], tracemalloc.get_traced_memory()[1]
                )
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            frame = [start, start]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                self._frames.pop()
                if self._frames:
                    self._frames[-1][1] = max(self._frames[-1][1], top)
                self.peaks.setdefault(name, []).append(top - start)

        return call


def test_every_layer_step_holds_one_block_beside_its_messages():
    """12,800 nodes, half of them crashing in round 2: the peer-sampling
    and T-Man steps, T-Man's groom and exchange stages and both
    observers each allocate one block beyond what they must hold
    whole-network (at the parent the groom alone copied the view matrix
    twice, 21.8 MB)."""
    config = ScenarioConfig(
        engine="batch", width=160, height=80, seed=1, failure_round=2,
        reinjection_round=None, total_rounds=3, metrics=("homogeneity", "proximity"),
    )
    sim, *_ = prepare_scenario(config)
    rps, tman = sim.layers[:2]
    probe = Transients()
    messages: dict = {}

    def metered(layer):
        """The layer's step, reading its ``<layer>.messages`` site."""
        step = layer.step

        def call(sim):
            obs_mem.reset()
            step(sim)
            site = obs_mem.snapshot()["sites"].get(f"{layer.name}.messages")
            messages.setdefault(layer.name, []).append(site["peak"] if site else 0)

        return call

    built: list = []
    exchange = tman._exchange_buffers

    def buffers(*args, **kwargs):
        """The exchange stage, noting the messages it stacks."""
        out = exchange(*args, **kwargs)
        built.append(sum(part.nbytes for part in out))
        return out

    for layer in (rps, tman):
        layer.step = probe.wrap(layer.name, metered(layer))
    tman._groom = probe.wrap("groom", tman._groom)
    tman._exchange_buffers = probe.wrap("exchange", buffers)
    for i, observer in enumerate(sim.observers):
        observer.on_round_end = probe.wrap(f"observer{i}", observer.on_round_end)

    obs_mem.set_enabled(True)
    tracemalloc.start()
    try:
        sim.run(config.total_rounds)
    finally:
        tracemalloc.stop()
        obs_mem.set_enabled(False)
        obs_mem.reset()

    n = sim.network.n_total
    # One block, and the node-length columns.
    block = _COLIVE_MAX * _SCRATCH_BYTES + NODE_COLUMNS * 8 * n
    # Ids are below n: the merge's int32 last-writer table at its floor.
    floor = 4 * _MIN_BLOCK_ROWS * n
    assert len(probe.peaks["groom"]) == len(built) == config.total_rounds
    for name in ("rps", "tman"):
        for got, stacked in zip(probe.peaks[name], messages[name]):
            assert got <= block + stacked + (floor if name == "tman" else 0), name
    for got, stacked in zip(probe.peaks["exchange"], built):
        assert got <= block + stacked
    for name, peaks in probe.peaks.items():
        if name == "groom" or name.startswith("observer"):
            assert max(peaks) <= block, name


# -- blocked ≡ whole: the groom ------------------------------------------


def whole_groom(layer, sim, act) -> None:
    """The groom as one whole-network pass — the body it had before it
    was row-blocked, kept as its oracle."""
    ids_act = layer._ids[act]
    evict = sim.detected_entry_mask(ids_act)
    if evict.any():
        ids_act[evict] = -1
        layer._ids[act] = ids_act
        if layer._ages is not None:
            ages = layer._ages[act]
            ages[evict] = 0
            layer._ages[act] = ages
    if layer._ages is not None:
        ages = layer._ages[act]
        ages[ids_act >= 0] += 1
        layer._ages[act] = ages
    empty = ~(ids_act >= 0).any(axis=1)
    if empty.any():
        layer._bootstrap(sim, act[empty])


def groom_case(topology, seed, failed, orphans):
    """A 32-node batch run two rounds in, ``failed`` crashed (and so
    detected) and the views of ``orphans`` holding only crashed peers —
    the rows the groom empties and bootstraps."""
    config = ScenarioConfig(
        engine="batch", width=8, height=4, seed=seed, protocol="tman",
        topology=topology, metrics=(), failure_round=None,
        reinjection_round=None, total_rounds=4,
    )
    sim, *_ = prepare_scenario(config)
    sim.run(2)
    sim.network.fail(failed, sim.round)
    layer = sim.layers[1]
    if failed:
        for nid in sorted(set(orphans) - set(failed)):
            row = sim.network.table.row(nid)
            layer._ids[row] = -1
            layer._ids[row, : min(len(failed), layer.capacity)] = failed[: layer.capacity]
    return layer, sim


def rng_states(sim) -> dict:
    return {name: gen.bit_generator.state for name, gen in sim._rngs.items()}


@pytest.mark.parametrize("topology", ["tman", "vicinity"])
@given(
    seed=st.integers(0, 1 << 16),
    failed=st.lists(st.integers(0, 31), max_size=24, unique=True),
    orphans=st.lists(st.integers(0, 31), max_size=6, unique=True),
    block=st.sampled_from(["1", "3", "U-1", "U", "U+7"]),
)
@settings(max_examples=25, deadline=None)
def test_blocked_groom_equals_the_whole_network_pass(topology, seed, failed, orphans, block):
    got, sim = groom_case(topology, seed, failed, orphans)
    want, twin = groom_case(topology, seed, failed, orphans)
    act = sim.alive_act_rows()
    rows = {"1": 1, "3": 3, "U-1": max(len(act) - 1, 1), "U": len(act), "U+7": len(act) + 7}
    with mock.patch.object(kernels, "block_rows", lambda *_: rows[block]):
        got._groom(sim, act)
    whole_groom(want, twin, twin.alive_act_rows())
    np.testing.assert_array_equal(got._ids, want._ids)
    np.testing.assert_array_equal(got._coords, want._coords)
    if topology == "vicinity":
        np.testing.assert_array_equal(got._ages, want._ages)
    assert rng_states(sim) == rng_states(twin)
    assert got.rps.bootstrap_fallbacks == want.rps.bootstrap_fallbacks


# -- growth is safe ----------------------------------------------------------


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        engine="batch", width=12, height=6, seed=3, metrics=(),
        failure_round=None, reinjection_round=None, total_rounds=10,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def reinject(sim) -> None:
    Reinjection(small_config().grid.parallel(0.5).generate()[:40])(sim)


def grown(sim) -> dict:
    """The arrays a reinjection grows along rows, by name."""
    rps, tman = sim.layers[:2]
    table = sim.network.table
    arrays = {
        "tman._ids": tman._ids, "tman._coords": tman._coords,
        "rps._ids": rps._ids, "rps._ages": rps._ages,
    }
    for name in ("_alive", "_death", "_nid_of", "_row_of", "_coords"):
        arrays[f"table.{name}"] = getattr(table, name)
    for name in ("guest_ids", "guest_n", "backup_ids", "sent_ids", "sent_n", "owner"):
        arrays[f"placement.{name}"] = getattr(sim.placement, name)
    return arrays


def test_unreferenced_row_arrays_grow_in_place():
    """With nothing else holding them, a reinjection extends every row
    array in place: the layer keeps the same array object.  (Identity is
    checked through ``id``: a ``weakref`` would itself be a referent
    NumPy refuses to resize.)"""
    sim, *_ = prepare_scenario(small_config())
    twin, *_ = prepare_scenario(small_config())
    sim.run(2)
    twin.run(2)
    before = {name: id(arr) for name, arr in grown(sim).items()}
    held = list(grown(twin).values())  # the twin's arrays are referenced
    reinject(sim)
    reinject(twin)
    after, copied = grown(sim), grown(twin)
    assert {name: id(arr) for name, arr in after.items()} == before
    assert all(id(arr) != id(old) for arr, old in zip(copied.values(), held))
    for name, arr in after.items():
        np.testing.assert_array_equal(arr, copied[name], err_msg=name)
    assert sim.network.table.capacity == 72 + 40
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin)


def test_a_held_view_forces_the_copy_and_keeps_reading_the_old_rows():
    sim, *_ = prepare_scenario(small_config())
    sim.run(2)
    poly, tman = sim.layers[2], sim.layers[1]
    views = {
        "flags": poly._flags.T,
        "tman coords": tman._coords[3:9],
        "view matrix": sim.view_matrix()[1],
    }
    seen = {name: view.copy() for name, view in views.items()}
    owners = (poly._flags, tman._coords, tman._ids)
    reinject(sim)
    assert all(new is not old for new, old in zip((poly._flags, tman._coords, tman._ids), owners))
    for name, view in views.items():
        np.testing.assert_array_equal(view, seen[name], err_msg=name)
    assert len(tman._ids) == sim.network.table.capacity == 72 + 40


def test_grown_state_checkpoints_bit_identically_and_runs_on():
    sim, *_ = prepare_scenario(small_config())
    twin, *_ = prepare_scenario(small_config())
    sim.run(2)
    twin.run(2)
    held = grown(twin)  # the copy path
    reinject(sim)
    reinject(twin)
    del held
    restored = ckpt.restore(ckpt.snapshot(sim))
    for (name, want), got in zip(grown(sim).items(), grown(restored).values()):
        np.testing.assert_array_equal(got, want, err_msg=name)
    for each in (sim, twin, restored):
        each.run(4)
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin) == ckpt.state_digest(restored)
