"""Property-based tests of the protocol's conservation invariants.

Random interleavings of migrations, failures, backups and recoveries
must never lose a data point *as long as some copy's holder stays
alive* — the library's namesake guarantee.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backup import BackupManager
from repro.core.config import PolystyreneConfig
from repro.core.migration import MigrationManager
from repro.core.protocol import PolystyreneLayer
from repro.core.recovery import recover_node
from repro.core.split import make_split
from repro.spaces import FlatTorus

from .helpers import StubRPS, StubTMan, ghosts_of, grid_coords, guests_of, make_sim

TORUS = FlatTorus(8.0, 4.0)


def build(K=2, split="advanced"):
    rps, tman = StubRPS(), StubTMan(TORUS)
    sim, factory, points = make_sim(TORUS, grid_coords(4, 2), layers=[rps, tman])
    config = PolystyreneConfig(replication=K, split=split)
    poly = PolystyreneLayer(TORUS, config, rps, tman)
    sim.layers.append(poly)  # ``sim.placement`` is its store
    for node in sim.network.alive_nodes():
        poly.init_node(sim, node)
    return sim, poly, rps, tman, points


def held_guests(sim):
    held = set()
    for node in sim.network.alive_nodes():
        held.update(guests_of(sim, node))
    return held


def held_anywhere(sim):
    held = set(held_guests(sim))
    for node in sim.network.alive_nodes():
        for ghost in ghosts_of(sim, node).values():
            held.update(ghost)
    return held


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=30,
    )
)
def test_migrations_conserve_points(pairs):
    """Any sequence of pairwise exchanges is loss- and dup-free."""
    sim, poly, rps, tman, points = build()
    manager = MigrationManager(
        poly.config, make_split("advanced"), poly.placement, poly.points
    )
    for a, b in pairs:
        if a == b:
            continue
        manager.exchange(sim, sim.network.node(a), sim.network.node(b))
        # No duplicates: every pid held exactly once.
        seen = {}
        for node in sim.network.alive_nodes():
            for pid in guests_of(sim, node):
                seen[pid] = seen.get(pid, 0) + 1
        assert all(count == 1 for count in seen.values())
    assert held_guests(sim) == {p.pid for p in points}


@settings(max_examples=25, deadline=None)
@given(
    st.data(),
    st.integers(1, 3),
)
def test_random_failures_never_lose_backed_up_points(data, K):
    """After full replication, kill random subsets round by round and
    run recovery: every point with at least one surviving copy-holder
    must remain held somewhere."""
    sim, poly, rps, tman, points = build(K=K)
    backup = BackupManager(poly.config, poly.placement, poly.pushed_by)
    for node in sim.network.alive_nodes():
        backup.step_node(sim, node, rps, tman)

    for _ in range(3):
        alive = sim.network.alive_ids()
        if len(alive) <= 1:
            break
        victims = data.draw(
            st.lists(st.sampled_from(alive), max_size=len(alive) - 1, unique=True)
        )
        before = held_anywhere(sim)
        sim.network.fail(victims, sim.round)
        survivors_hold = held_anywhere(sim)
        for node in sim.network.alive_nodes():
            recover_node(sim, node, poly.placement, poly.pushed_by.get(node.row))
        after = held_guests(sim)
        # Everything that still had a copy on a survivor is now an
        # active guest again.
        assert survivors_hold <= after | set()
        # Recovery invents nothing.
        assert after <= before


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_full_round_interleaving_conserves_points(seed):
    """Whole protocol rounds (recovery+backup+migration+projection)
    never lose or duplicate points in a failure-free network."""
    rps, tman = StubRPS(), StubTMan(TORUS)
    sim, factory, points = make_sim(
        TORUS, grid_coords(4, 2), layers=[rps, tman], seed=seed
    )
    config = PolystyreneConfig(replication=2)
    poly = PolystyreneLayer(TORUS, config, rps, tman)
    sim.layers.append(poly)  # ``sim.placement`` is its store
    for node in sim.network.alive_nodes():
        poly.init_node(sim, node)
    for _ in range(4):
        poly.step(sim)
        sim.round += 1
    seen = {}
    for node in sim.network.alive_nodes():
        for pid in guests_of(sim, node):
            seen[pid] = seen.get(pid, 0) + 1
    assert set(seen) == {p.pid for p in points}
    assert all(count == 1 for count in seen.values())
