"""Batch peer sampling under the scratch budget.

``BatchPeerSampling`` works one ``kernels.block_rows`` row block at a
time — the bootstrap oracle, groom + partner, payloads, replies and the
receiver-blocked Cyclon merge — and ``BatchSimulation`` primes the
allocator once so those blocks are recycled instead of page-faulted.
Blocking must change no result and no RNG draw; the allocator priming
must keep the fault count of a run flat.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime.checkpoint import state_digest
from repro.sim.batch import BatchPeerSampling, kernels

SRC = Path(__file__).parent.parent / "src"


def block_size(n):
    """The test seam: every block loop asks ``kernels.block_rows``."""
    return mock.patch.object(kernels, "block_rows", lambda *_: n)


def starving_config(**overrides) -> ScenarioConfig:
    """Two-entry views and a 70 % crash: a third of the survivors hold
    only dead peers after the failure (the oracle fallback), and one-
    descriptor messages make replies that the filter empties common."""
    base = dict(
        engine="batch", width=12, height=6, seed=3, metrics=("homogeneity",),
        rps_view_size=2, rps_shuffle_length=1, failure_round=3,
        failure_fraction=0.7, reinjection_round=7, total_rounds=12,
        retention_rounds=6,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class Spy:
    """What the block loops of ``BatchPeerSampling.step`` saw."""

    def __init__(self, monkeypatch):
        self.reseeded = []  # rows per oracle fallback inside ``step``
        self.merges = 0
        self.merges_without_incoming = 0
        in_step = []
        real_step = BatchPeerSampling.step
        real_boot = BatchPeerSampling._bootstrap_rows
        real_merge = kernels.dedup_priority_truncate

        def step(layer, sim):
            in_step.append(True)
            try:
                real_step(layer, sim)
            finally:
                in_step.pop()

        def boot(layer, sim, rows, k=None):
            if in_step:
                self.reseeded.append(len(rows))
            return real_boot(layer, sim, rows, k)

        def merge(recv, ids, prio, order_in, ages, cap):
            self.merges += 1
            self.merges_without_incoming += not (prio == 1).any()
            return real_merge(recv, ids, prio, order_in, ages, cap)

        monkeypatch.setattr(BatchPeerSampling, "step", step)
        monkeypatch.setattr(BatchPeerSampling, "_bootstrap_rows", boot)
        monkeypatch.setattr(kernels, "dedup_priority_truncate", merge)


def run(config, rows_per_block=None, only_rps=False):
    """Final state of one run; ``rows_per_block=None`` is the shipped
    budget.  The network is always *prepared* at the budget — one
    whole-network oracle block is ``n x n`` keys, 2.6 GB at 160x80 —
    and the oracle's own chunking has its own test below."""
    sim, *_ = prepare_scenario(config)
    if only_rps:
        sim.layers = sim.layers[:1]
    with block_size(rows_per_block) if rows_per_block else contextlib.nullcontext():
        sim.run(config.total_rounds)
    rps = sim.layers[0]
    return (
        rps._ids.tobytes(),
        rps._ages.tobytes(),
        rps.bootstrap_fallbacks,
        sim.rng_for("rps").bit_generator.state,
        None if only_rps else state_digest(sim),
    )


def test_blocked_step_matches_whole_network_step(monkeypatch):
    """Catastrophic failure, re-injection and retention pruning: the
    final state, the fallback count and the layer's RNG position are the
    same for blocks of 1, 7 and 64 rows and for one whole-network block
    — through rounds where a block holds a starved view that falls back
    to the oracle, and blocks whose receivers get no incoming entry."""
    config = starving_config()
    spy = Spy(monkeypatch)
    whole = run(config, 1 << 30)
    assert whole[2] and spy.reseeded and spy.merges == config.total_rounds
    per_round_whole = list(spy.reseeded)
    for rows_per_block in (1, 7, 64):
        spy.reseeded.clear()
        spy.merges = spy.merges_without_incoming = 0
        assert run(config, rows_per_block) == whole, rows_per_block
        # The same views starved, re-seeded block by block.
        assert sum(spy.reseeded) == sum(per_round_whole)
        if rows_per_block == 1:
            assert set(spy.reseeded) == {1}
            assert spy.merges > 4 * config.total_rounds
            assert spy.merges_without_incoming > 0


def test_budget_blocks_match_whole_network_step_with_paper_views():
    """The shipped view and shuffle sizes at the shipped budget, on a
    network of several blocks (the merge cuts ~17k entries a block)."""
    config = ScenarioConfig(
        engine="batch", width=80, height=40, seed=2, metrics=(),
        protocol="tman", failure_round=1, reinjection_round=None, total_rounds=3,
    )
    assert run(config) == run(config, 1 << 30)


@pytest.mark.parametrize("k", [None, 3])
def test_bootstrap_rows_draws_are_independent_of_the_row_chunk(k):
    """``Generator.random`` fills row-major, so the oracle's key matrix
    drawn 1 row, 3 rows or all rows at a time consumes the same stream:
    equal output *and* equal generator state."""
    sim, *_ = prepare_scenario(starving_config(rps_view_size=5, rps_shuffle_length=3))
    rps = sim.layers[0]
    rows = sim.alive_act_rows()[::2]
    start = sim.rng_for("rps").bit_generator.state
    got = {}
    for chunk in (1, 3, len(rows)):
        sim.rng_for("rps").bit_generator.state = start
        with block_size(chunk):
            out = rps._bootstrap_rows(sim, rows, k)
        got[chunk] = (out, sim.rng_for("rps").bit_generator.state)
    want_out, want_state = got[len(rows)]
    assert (want_out >= 0).all() and want_out.shape == (len(rows), k or 5)
    assert want_state != start
    for chunk in (1, 3):
        np.testing.assert_array_equal(got[chunk][0], want_out)
        assert got[chunk][1] == want_state


@pytest.mark.slow
def test_blocked_rps_matches_whole_network_at_160x80_through_reinjection():
    """Blocked/whole parity of the peer-sampling layer at a paper shape,
    next to ``test_blocked_run_matches_unblocked_at_160x80`` (which
    stops before re-injection): 12,800 nodes, half crash, 400
    re-injected nodes bootstrap one 6,400-key oracle row each."""
    config = ScenarioConfig(
        engine="batch", width=160, height=80, seed=1, metrics=(), protocol="tman",
        failure_round=1, reinjection_round=3, reinjection_count=400, total_rounds=5,
    )
    assert run(config, only_rps=True) == run(config, 1 << 30, only_rps=True)


# -- the allocator priming ---------------------------------------------------

#: Minor faults allowed in the 10 timed rounds below.  Measured: 1.6k
#: with the reservation, 14.4k without (glibc 2.36, repeatable to the
#: page), so the bound sits a factor of three from either side.
FAULT_BOUND = 5_000

_FAULT_PROBE = """
import json, resource, sys
from repro.sim import arrays
if sys.argv[1] == "stubbed":
    arrays.reserve_scratch = lambda: None
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
config = ScenarioConfig(
    engine="batch", width=80, height=40, seed=1, metrics=("homogeneity",),
    failure_round=None, reinjection_round=None, total_rounds=10,
)
sim, *_ = prepare_scenario(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sim.run(config.total_rounds)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


def _timed_faults(mode: str) -> int:
    """Minor faults of 10 rounds at 80x40 in a fresh process (the
    ``mmap`` threshold only ever rises within one)."""
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, mode],
        capture_output=True, text=True, check=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc rule")
def test_scratch_reservation_keeps_block_temporaries_off_the_fault_path():
    """``arrays.reserve_scratch`` is what keeps a blocked run from
    re-faulting its block temporaries every call.  Where the allocator
    shows no such effect (another libc, ``MALLOC_*`` tunables) there is
    nothing to hold: skip, not fail."""
    unprimed = _timed_faults("stubbed")
    if unprimed <= FAULT_BOUND:
        pytest.skip(f"allocator re-faults nothing without the reservation ({unprimed})")
    assert _timed_faults("reserved") <= FAULT_BOUND
