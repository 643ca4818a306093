#!/usr/bin/env python
"""Evolving target shape — the paper's future-work scenario.

The paper assumes a static shape "for ease of exposition", noting that
"it could, however, keep evolving as the algorithm executes"
(Sec. III-A, footnote 1).  This example exercises that: a service that
starts as a half torus and later doubles its keyspace.  The expansion
arrives in two forms at once:

* new nodes join carrying data points of the new region (growth);
* a burst of extra data points is injected into *existing* nodes
  (hotspot), and migration spreads them out.

Homogeneity is always measured over the full, final shape, so you can
watch the system converge to the shape as it grows.

Run:  python examples/growing_shape.py
"""

from repro import PolystyreneConfig, PolystyreneLayer
from repro.core.points import PointFactory
from repro.gossip import PeerSamplingLayer, TManLayer
from repro.metrics import load_balance
from repro.metrics.homogeneity import homogeneity
from repro.shapes import TorusGrid
from repro.sim import Network, Simulation
from repro.spaces import FlatTorus

WIDTH, HEIGHT = 24, 12
GROW_ROUND, INJECT_ROUND, TOTAL = 12, 24, 60


def main():
    print(__doc__)
    space = FlatTorus(float(WIDTH), float(HEIGHT))
    factory = PointFactory()
    network = Network()

    full_grid = TorusGrid(WIDTH, HEIGHT).generate()
    left = [c for c in full_grid if c[0] < WIDTH / 2]
    right = [c for c in full_grid if c[0] >= WIDTH / 2]
    right_nodes, right_injected = right[: len(right) // 2], right[len(right) // 2 :]

    # Phase 0: only the left half of the shape exists.
    initial_points = factory.create_many(left)
    for point in initial_points:
        network.add_node(point.coord, point)

    rps = PeerSamplingLayer(view_size=10, shuffle_length=5)
    tman = TManLayer(space, rps, message_size=12, psi=5, view_cap=40)
    poly = PolystyreneLayer(space, PolystyreneConfig(replication=4), rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=17)
    sim.init_all_nodes()

    # Phase 1: half of the new region arrives as fresh nodes that each
    # carry one new data point.
    def grow(s):
        for coord in right_nodes:
            s.spawn_node(coord, factory.create(coord))

    sim.schedule(GROW_ROUND, grow)

    # Phase 2: the rest of the new region is injected as extra data
    # points into a handful of existing nodes (a hotspot), and the
    # migration step spreads it out.
    def inject(s):
        hosts = s.network.alive_nodes()[:4]
        for i, coord in enumerate(right_injected):
            poly.add_guests(hosts[i % len(hosts)], [factory.create(coord)])

    sim.schedule(INJECT_ROUND, inject)

    print("round  points  hom(full shape)  max/mean load")
    for rnd in range(TOTAL):
        sim.step()
        if rnd % 6 == 0 or rnd in (GROW_ROUND, INJECT_ROUND, TOTAL - 1):
            alive = sim.network.alive_nodes()
            hom = homogeneity(space, factory.all_points, alive, sim.placement)
            balance = load_balance(alive, sim.placement)
            print(
                f"{rnd:5d}  {len(factory):6d}  {hom:15.3f}  "
                f"{balance['max_over_mean']:12.2f}"
            )

    alive = sim.network.alive_nodes()
    final = homogeneity(space, factory.all_points, alive, sim.placement)
    grid = TorusGrid(WIDTH, HEIGHT)
    h_ref = grid.reference_homogeneity(sim.network.n_alive)
    print(f"\nfinal homogeneity over the grown shape: {final:.3f} "
          f"(reference: {h_ref:.3f})")
    assert final < 3 * h_ref, "shape growth did not converge"


if __name__ == "__main__":
    main()
