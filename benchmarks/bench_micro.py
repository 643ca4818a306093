"""Micro-benchmarks of the protocol's hot paths.

Not a paper artifact — these time the primitives everything else is
built from (torus distances, medoids, diameters, SPLIT functions, one
T-Man gossip cycle, one full protocol round) so performance regressions
are visible independently of the macro experiments.
"""

import numpy as np
import pytest

from repro.core.split import split_advanced, split_basic
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.runtime import checkpoint
from repro.spaces import FlatTorus, diameter, medoid
from repro.types import DataPoint

TORUS = FlatTorus(80.0, 40.0)
RNG = np.random.default_rng(0)
COORDS_120 = [
    (float(x), float(y))
    for x, y in zip(RNG.uniform(0, 80, 120), RNG.uniform(0, 40, 120))
]
POINTS_20 = [DataPoint(i, c) for i, c in enumerate(COORDS_120[:20])]


def test_torus_distance_many(benchmark):
    out = benchmark(TORUS.distance_many, (40.0, 20.0), COORDS_120)
    assert len(out) == 120


def test_medoid_20_points(benchmark):
    result = benchmark(medoid, TORUS, COORDS_120[:20])
    assert result in COORDS_120[:20]


def test_diameter_20_points(benchmark):
    i, j = benchmark(diameter, TORUS, COORDS_120[:20])
    assert i != j


def test_split_basic_20_points(benchmark):
    left, right = benchmark(
        split_basic, TORUS, POINTS_20, (10.0, 10.0), (60.0, 30.0)
    )
    assert len(left) + len(right) == 20


def test_split_advanced_20_points(benchmark):
    left, right = benchmark(
        split_advanced, TORUS, POINTS_20, (10.0, 10.0), (60.0, 30.0)
    )
    assert len(left) + len(right) == 20


@pytest.fixture(scope="module")
def small_sim():
    config = ScenarioConfig(
        width=16,
        height=8,
        failure_round=None,
        reinjection_round=None,
        total_rounds=10_000,  # never reached; stepped manually
        metrics=("storage",),
        seed=0,
    )
    sim, _, _, _ = build_simulation(config)
    sim.run(5)  # warm views
    return sim


def test_full_protocol_round_128_nodes(benchmark, small_sim):
    benchmark(small_sim.step)


def test_checkpoint_snapshot_128_nodes(benchmark, small_sim):
    """Snapshot overhead for a warm 128-node simulation — the cost of
    pausing/forking a run, tracked so future PRs see regressions."""
    ck = benchmark(checkpoint.snapshot, small_sim)
    assert ck.round == small_sim.round
    benchmark.extra_info["checkpoint_bytes"] = checkpoint.checkpoint_size(ck)


def test_checkpoint_restore_128_nodes(benchmark, small_sim):
    ck = checkpoint.snapshot(small_sim)
    restored = benchmark(checkpoint.restore, ck)
    assert checkpoint.state_digest(restored) == checkpoint.state_digest(
        small_sim
    )


def test_checkpoint_save_load_roundtrip_128_nodes(benchmark, small_sim, tmp_path):
    """Disk round trip: the bytes the snapshot already holds, written
    behind a checksummed header, read back and checksum-verified —
    nothing is pickled or unpickled here."""
    ck = checkpoint.snapshot(small_sim)
    path = tmp_path / "bench.ckpt"

    def roundtrip():
        checkpoint.save(ck, path)
        return checkpoint.load(path)

    loaded = benchmark(roundtrip)
    assert loaded.round == ck.round
