#!/usr/bin/env python
"""Polystyrene over a *semantic* space: user-interest profiles.

Gossip topology construction is also used to cluster users by profile
similarity (Gossple, WhatsUp — see the paper's Sec. II).  Positions are
then sets of interests, compared with the Jaccard distance, and there
is no meaningful "mean profile" — exactly why Polystyrene projects with
a medoid instead of a centroid.

Here profiles come in four interest communities.  All members of one
community run in the same datacenter and crash together; their profile
points survive as ghosts on random peers and migrate back together, so
the community's region of the semantic space remains represented.

Run:  python examples/semantic_profiles.py
"""

from collections import Counter

from repro import JaccardSpace, PolystyreneConfig, PolystyreneLayer
from repro.core.points import PointFactory
from repro.gossip import PeerSamplingLayer, TManLayer
from repro.metrics import surviving_fraction
from repro.sim import Network, Simulation

COMMUNITIES = {
    "cinema": ["film", "cinema", "actors", "festival", "critique"],
    "cycling": ["bikes", "tour", "climbing", "gear", "race"],
    "cooking": ["recipes", "baking", "spices", "wine", "knives"],
    "gaming": ["rpg", "esports", "speedrun", "retro", "mods"],
}
MEMBERS_PER_COMMUNITY = 20
FAILED_COMMUNITY = "cinema"
FAILURE_ROUND = 8
TOTAL_ROUNDS = 30


def make_profiles():
    """Each member shares most of its community's interests plus a
    personal twist, so communities form tight Jaccard clusters."""
    profiles = []
    for name, interests in COMMUNITIES.items():
        for i in range(MEMBERS_PER_COMMUNITY):
            personal = {f"{name}-extra-{i % 5}"}
            profile = frozenset(interests[: 3 + i % 3]) | personal
            profiles.append((name, profile))
    return profiles


def community_of(profile):
    scores = {
        name: len(profile & set(interests))
        for name, interests in COMMUNITIES.items()
    }
    return max(scores, key=scores.get)


def main():
    print(__doc__)
    space = JaccardSpace()
    profiles = make_profiles()

    factory = PointFactory()
    network = Network()
    points = []
    failed_nodes = []
    for name, profile in profiles:
        point = factory.create(profile)
        points.append(point)
        node = network.add_node(profile, point)
        if name == FAILED_COMMUNITY:
            failed_nodes.append(node.nid)

    rps = PeerSamplingLayer(view_size=10, shuffle_length=5)
    tman = TManLayer(space, rps, message_size=8, psi=4, view_cap=25)
    poly = PolystyreneLayer(space, PolystyreneConfig(replication=4), rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=21)
    sim.init_all_nodes()

    sim.schedule(
        FAILURE_ROUND, lambda s: s.network.fail(list(failed_nodes), s.round)
    )
    sim.run(TOTAL_ROUNDS)

    alive = sim.network.alive_nodes()
    survival = surviving_fraction(points, alive, sim.placement)
    print(f"datacenter of community {FAILED_COMMUNITY!r} crashed at "
          f"round {FAILURE_ROUND}: {len(failed_nodes)} nodes lost")
    print(f"profile points surviving: {survival:.1%}")

    # Which communities do surviving nodes now *represent* (via their
    # guest profiles)?
    represented = Counter()
    for node in alive:
        for point in poly.guest_points(node):
            represented[community_of(point.coord)] += 1
    print("guest profiles per community after repair:")
    for name in COMMUNITIES:
        print(f"  {name:8s} {represented[name]:3d}")

    assert survival > 0.9, "profiles were lost"
    assert represented[FAILED_COMMUNITY] > 0, (
        "the failed community vanished from the semantic space"
    )
    print("\nthe failed community's region of the semantic space is "
          "still represented by surviving nodes.")


if __name__ == "__main__":
    main()
