"""Tests for the network model and failure detectors."""

import random

import pytest

from repro.errors import DeadNodeError, UnknownNodeError
from repro.sim.network import (
    DelayedFailureDetector,
    Network,
    PerfectFailureDetector,
)
from repro.types import DataPoint


def make_network(n=5):
    net = Network()
    for i in range(n):
        net.add_node((float(i), 0.0), DataPoint(i, (float(i), 0.0)))
    return net


class TestMembership:
    def test_sequential_ids(self):
        net = make_network(3)
        assert sorted(net.nodes) == [0, 1, 2]

    def test_counts(self):
        net = make_network(4)
        assert net.n_total == 4
        assert net.n_alive == 4

    def test_node_lookup(self):
        net = make_network(2)
        assert net.node(1).pos == (1.0, 0.0)

    def test_unknown_node(self):
        net = make_network(1)
        with pytest.raises(UnknownNodeError):
            net.node(99)

    def test_initial_point_attached(self):
        net = make_network(2)
        assert net.node(0).initial_point.pid == 0

    def test_add_node_without_point(self):
        net = make_network(1)
        node = net.add_node((5.0, 5.0))
        assert node.initial_point is None
        assert net.is_alive(node.nid)


class TestFailures:
    def test_fail_removes_from_alive(self):
        net = make_network(3)
        net.fail([1], rnd=4)
        assert not net.is_alive(1)
        assert net.n_alive == 2
        assert net.death_round(1) == 4

    def test_fail_idempotent(self):
        net = make_network(3)
        assert net.fail([1], rnd=1) == [1]
        assert net.fail([1], rnd=2) == []
        assert net.death_round(1) == 1

    def test_fail_unknown_raises(self):
        net = make_network(1)
        with pytest.raises(UnknownNodeError):
            net.fail([42], rnd=0)

    def test_alive_node_accessor(self):
        net = make_network(2)
        net.fail([0], rnd=0)
        with pytest.raises(DeadNodeError):
            net.alive_node(0)
        assert net.alive_node(1).nid == 1

    def test_alive_ids_cache_invalidation(self):
        net = make_network(3)
        before = net.alive_ids()
        net.fail([0], rnd=0)
        assert 0 not in net.alive_ids()
        assert 0 in before  # old list untouched

    def test_alive_ids_array_tracks_alive_ids(self):
        """The int64 mirror equals ``alive_ids()`` after every kind of
        membership change: adds (extended in place, past the buffer's
        capacity), crashes, removal of a dead node, reuse of its row,
        and a pickle / deep-copy round trip (the array is not part of
        the state and comes back lazily)."""
        import copy
        import pickle

        import numpy as np

        def check(net):
            arr = net.alive_ids_array()
            assert arr.dtype == np.int64
            assert arr.tolist() == net.alive_ids() == list(net.alive_view())
            np.testing.assert_array_equal(
                net.alive_positions(), net.positions_of(arr)
            )

        net = make_network(3)
        check(net)
        held = net.alive_ids_array()
        for i in range(3, 40):  # crosses several buffer doublings
            net.add_node((float(i), 0.0))
            check(net)
        assert held.tolist() == [0, 1, 2]  # earlier reads are not disturbed
        net.fail([1, 17, 39], rnd=4)
        check(net)
        net.add_node((99.0, 0.0))  # extends the exact-size rebuilt array
        check(net)
        net.remove_node(17)
        check(net)
        reused = net.add_node((17.5, 0.0))
        assert reused.row == 17  # the freed row, under a fresh id
        check(net)

        assert "_alive_arr" not in net.__getstate__()
        for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert clone._alive_arr is None
            check(clone)
            clone.add_node((5.5, 0.0))
            clone.fail([0], rnd=9)
            check(clone)
        # A network pickled before the array existed has no such
        # attribute at all: the class default stands in.
        old = Network.__new__(Network)
        old.__dict__.update(net.__getstate__())
        check(old)

    def test_crash_stop_no_recovery_path(self):
        net = make_network(2)
        net.fail([0], rnd=0)
        # There is intentionally no API to resurrect a node.
        assert not hasattr(net, "revive")


class TestSampling:
    def test_random_alive_excludes(self):
        net = make_network(5)
        rng = random.Random(0)
        out = net.random_alive(rng, 3, exclude=[0, 1])
        assert set(out) <= {2, 3, 4}

    def test_random_alive_skips_dead(self):
        net = make_network(5)
        net.fail([0, 1, 2], rnd=0)
        rng = random.Random(0)
        assert set(net.random_alive(rng, 5)) == {3, 4}

    def test_random_alive_empty_pool(self):
        net = make_network(1)
        rng = random.Random(0)
        assert net.random_alive(rng, 2, exclude=[0]) == []


class TestDetectors:
    def test_perfect_detector_immediate(self):
        net = Network(PerfectFailureDetector())
        net.add_node((0.0,))
        net.fail([0], rnd=5)
        assert net.detects_failed(0, rnd=5)

    def test_perfect_detector_alive(self):
        net = Network(PerfectFailureDetector())
        net.add_node((0.0,))
        assert not net.detects_failed(0, rnd=0)

    def test_delayed_detector(self):
        net = Network(DelayedFailureDetector(delay=3))
        net.add_node((0.0,))
        net.fail([0], rnd=10)
        assert not net.detects_failed(0, rnd=10)
        assert not net.detects_failed(0, rnd=12)
        assert net.detects_failed(0, rnd=13)

    def test_delayed_detector_never_false_positive(self):
        net = Network(DelayedFailureDetector(delay=2))
        net.add_node((0.0,))
        assert not net.detects_failed(0, rnd=100)

    def test_delay_zero_equals_perfect(self):
        net = Network(DelayedFailureDetector(delay=0))
        net.add_node((0.0,))
        net.fail([0], rnd=1)
        assert net.detects_failed(0, rnd=1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayedFailureDetector(delay=-1)

    def test_detects_unknown_raises(self):
        net = make_network(1)
        with pytest.raises(UnknownNodeError):
            net.detects_failed(9, rnd=0)
