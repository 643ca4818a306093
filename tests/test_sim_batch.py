"""Unit tests for the batch-synchronous engine (``repro.sim.batch``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, prepare_scenario, run_scenario
from repro.sim.batch import BatchPeerSampling, BatchSimulation
from repro.sim.batch.kernels import (
    cumcount,
    dedup_priority_truncate,
    dedup_rank_truncate_reference,
    topk_smallest,
)
from repro.sim.batch.split import batch_split
from repro.sim.network import Network
from repro.spaces.euclidean import Euclidean
from repro.spaces.sets import JaccardSpace
from repro.spaces.torus import FlatTorus


def batch_config(**overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=5,
        reinjection_round=12,
        total_rounds=16,
        seed=3,
        engine="batch",
        metrics=("homogeneity",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestKernels:
    def test_cumcount(self):
        keys = np.asarray([0, 0, 0, 2, 2, 5])
        assert cumcount(keys).tolist() == [0, 1, 2, 0, 1, 0]
        assert cumcount(np.asarray([], dtype=np.int64)).tolist() == []

    def test_topk_smallest(self):
        vals = np.asarray([[3.0, 1.0, 2.0], [np.inf, 5.0, 4.0]])
        pick = topk_smallest(vals, 2)
        assert sorted(vals[0][pick[0]].tolist()) == [1.0, 2.0]
        assert sorted(vals[1][pick[1]].tolist()) == [4.0, 5.0]

    def test_dedup_rank_truncate_keeps_freshest_and_ranks(self):
        """The flat oracle the fused merge is property-tested and
        ``perf_smoke.py --kernel-gate`` is timed against, by hand."""
        space = Euclidean(1)
        # Receiver 0 at the origin; id 5 appears twice — the later
        # (fresher) coordinate must win; cap 2 keeps the closest two.
        recv = np.asarray([0, 0, 0, 0])
        ids = np.asarray([5, 7, 5, 9])
        coords = np.asarray([[10.0], [1.0], [0.5], [3.0]])
        origins = np.zeros((1, 1))

        def dist_of(kept):
            return space.distance_rows(origins[recv[kept]], coords[kept])

        sel, slot = dedup_rank_truncate_reference(recv, ids, dist_of, 2)
        kept = {int(ids[s]): int(p) for s, p in zip(sel, slot)}
        assert kept == {5: 0, 7: 1}  # id 5 at its fresh coord 0.5

    def test_dedup_priority_truncate_cyclon_rule(self):
        # One receiver, cap 3: existing non-sent [1, 2], sent [3],
        # incoming [4, 2].  Expect 1, 2 kept (2's age is min'ed), 4
        # fills, 3 replaced.
        recv = np.asarray([0, 0, 0, 0, 0])
        ids = np.asarray([1, 2, 3, 4, 2])
        prio = np.asarray([0, 0, 2, 1, 1])
        order = np.asarray([0, 1, 0, 0, 1])
        ages = np.asarray([5, 9, 1, 0, 2])
        sel, slot, age = dedup_priority_truncate(recv, ids, prio, order, ages, 3)
        out = {int(ids[s]): int(a) for s, a in zip(sel, age)}
        assert out == {1: 5, 2: 2, 4: 0}

    def test_batch_split_partitions_every_variant(self):
        space = FlatTorus(8.0, 8.0)
        rng = np.random.default_rng(0)
        coords = rng.random((6, 5, 2)) * 8.0
        valid = np.ones((6, 5), dtype=bool)
        valid[0, 3:] = False
        pos_p = rng.random((6, 2)) * 8.0
        pos_q = rng.random((6, 2)) * 8.0
        for variant in ("basic", "pd", "md", "advanced"):
            side = batch_split(space, variant, coords, valid, pos_p, pos_q)
            assert side.shape == (6, 5)
            # a partition: every valid point lands on exactly one side
            assert side.dtype == bool

    def test_batch_split_matches_scalar_split(self):
        from repro.core.split import make_split
        from repro.types import DataPoint

        space = FlatTorus(16.0, 8.0)
        rng = np.random.default_rng(7)
        for variant in ("basic", "pd", "md", "advanced"):
            for trial in range(20):
                n = int(rng.integers(2, 9))
                coords = np.floor(rng.random((n, 2)) * [16, 8])
                points = [
                    DataPoint(i, tuple(float(c) for c in coords[i]))
                    for i in range(n)
                ]
                pos_p = tuple(float(c) for c in np.floor(rng.random(2) * [16, 8]))
                pos_q = tuple(float(c) for c in np.floor(rng.random(2) * [16, 8]))
                side_p, side_q = make_split(variant)(space, points, pos_p, pos_q)
                got = batch_split(
                    space,
                    variant,
                    coords[None, :, :],
                    np.ones((1, n), dtype=bool),
                    np.asarray([pos_p]),
                    np.asarray([pos_q]),
                )[0]
                want = {p.pid for p in side_p}
                assert {i for i in range(n) if got[i]} == want, (
                    variant,
                    trial,
                    points,
                    pos_p,
                    pos_q,
                )


class TestBatchSimulation:
    def test_rejects_object_coordinate_spaces(self):
        network = Network()
        with pytest.raises(ConfigurationError, match="vector space"):
            BatchSimulation(JaccardSpace(), network, layers=[])

    def test_full_scenario_runs_and_preserves_points(self):
        result = run_scenario(batch_config())
        # No point is ever lost outside the failure: reliability bounds
        # the homogeneity fallback population.
        assert result.reliability is not None
        assert 0.5 <= result.reliability <= 1.0
        assert len(result.n_alive) == 16
        assert result.n_alive[-1] > result.n_alive[5]  # reinjection landed

    def test_points_conserved_every_round(self):
        sim, recorder, _, points, _ = prepare_scenario(
            batch_config(failure_round=None, reinjection_round=None)
        )
        for _ in range(8):
            sim.step()
            sim.sync_canonical()  # placement is arrays: materialise node.poly
            held = set()
            for node in sim.network.alive_nodes():
                held.update(node.poly.guests)
            assert held == {p.pid for p in points}  # no loss, full cover

    def test_view_invariants_after_rounds(self):
        sim, *_ = prepare_scenario(batch_config())
        sim.run(10)
        topo = sim.layers[1]
        table = sim.network.table
        act = np.flatnonzero(table.alive_rows())
        ids = topo._ids[act]
        for i, row in enumerate(act):
            entries = [x for x in ids[i] if x >= 0]
            assert len(entries) == len(set(entries))  # no duplicates
            assert int(table._nid_of[row]) not in entries  # never self
        rps = sim.layers[0]
        rids = rps._ids[act]
        for i, row in enumerate(act):
            entries = [x for x in rids[i] if x >= 0]
            assert len(entries) == len(set(entries))
            assert int(table._nid_of[row]) not in entries

    def test_vicinity_topology_runs(self):
        result = run_scenario(batch_config(topology="vicinity"))
        assert result.final("homogeneity") < 1.0

    def test_tman_baseline_runs(self):
        result = run_scenario(batch_config(protocol="tman"))
        # Plain T-Man cannot recover the lost half of the shape.
        assert result.final("homogeneity") > 0.2

    def test_all_metrics_compute(self):
        from repro.metrics.collector import ALL_METRICS

        result = run_scenario(batch_config(metrics=ALL_METRICS))
        for name in ALL_METRICS:
            series = result.series[name]
            assert len(series) == 16
            assert all(np.isfinite(v) for v in series), name

    def test_batch_rps_sample_rows_excludes(self):
        sim, *_ = prepare_scenario(batch_config())
        sim.run(2)
        rps: BatchPeerSampling = sim.layers[0]
        table = sim.network.table
        rows = np.flatnonzero(table.alive_rows())[:5]
        exclude = table._nid_of[rows][:, None]  # exclude own id (trivially)
        got = rps.sample_rows(sim, rows, 3, exclude=exclude)
        for i, row in enumerate(rows):
            own = int(table._nid_of[row])
            picked = [int(x) for x in got[i] if x >= 0]
            assert own not in picked
            assert all(sim.network.is_alive(nid) for nid in picked)

    def test_entry_masks_match_their_compress_expand_reference(self):
        """``alive_entry_mask``/``detected_entry_mask`` over random padded
        id blocks — alive, dead-undetected, detected and *released* ids,
        ``-1`` pads — equal the compress → scalar test → expand bodies
        they had before the node table's sentinel slot."""
        from hypothesis import given, settings, strategies as st

        sim, *_ = prepare_scenario(
            batch_config(detector_delay=2, retention_rounds=4, total_rounds=20)
        )
        network = sim.network

        def reference(ids, test):
            flat = ids.ravel()
            out = np.zeros(flat.shape, dtype=bool)
            valid = flat >= 0
            out[valid] = [test(int(nid)) for nid in flat[valid]]
            return out.reshape(ids.shape)

        @given(data=st.data())
        @settings(max_examples=30, deadline=None)
        def check(data):
            known = st.integers(-1, network._next_id - 1)
            shape = data.draw(st.sampled_from([(0,), (7,), (3, 5), (2, 0), (2, 3, 4)]))
            ids = np.asarray(
                data.draw(st.lists(known, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                dtype=np.int64,
            ).reshape(shape)
            departed = sim.departed()
            np.testing.assert_array_equal(
                sim.alive_entry_mask(ids), reference(ids, network.is_alive)
            )
            np.testing.assert_array_equal(
                sim.detected_entry_mask(ids), reference(ids, departed)
            )

        # Round 6: the failure@5 is dead but undetected (delay 2);
        # round 8: detected; round 11: pruned (released ids, free rows);
        # round 14: reinjected nodes reuse the freed rows.
        for target in (6, 8, 11, 14):
            sim.run(target - sim.round)
            check()
        assert network.table._has_released and len(network.nodes) < network._next_id

    def test_retention_bounds_batch_table(self):
        result = run_scenario(batch_config(retention_rounds=3))
        assert result.n_alive[-1] > 0
