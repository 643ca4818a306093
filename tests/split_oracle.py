"""An independent reference for SPLIT (Algorithms 4 and 5) and the medoid.

Plain Python over the scalar ``Space.distance_sq`` / ``Space.distance``,
one pair at a time, written from the paper (Sec. III-C and III-F) and
not from the array kernel of :mod:`repro.core.split`, which both engines
run.  The tie rules are the ones the paper's pseudo-code writes:

* Algorithm 4: a point goes to p only when strictly closer to p;
* the diameter is the first farthest pair ``(i, j)``, ``i < j``, in
  row-major order, and PD sends a point to the first endpoint only
  when strictly closer to it;
* the medoid is the first point of least cost;
* MD keeps the first cluster on p only when that displaces the two
  nodes strictly less;
* a partition that leaves one side empty takes the basic rule.

A cost is summed left to right in pool order.  On integer grids every
such sum is exact; on fewer than eight terms numpy's reductions add in
the same order — so on those pools the kernel must agree exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.spaces.base import Space
from repro.types import Coord, DataPoint


def medoid_index(space: Space, coords: Sequence[Coord]) -> int:
    """The first point of least sum of squared distances."""
    best, best_cost = 0, None
    for i, a in enumerate(coords):
        cost = 0.0
        for b in coords:
            cost += space.distance_sq(a, b)
        if best_cost is None or cost < best_cost:
            best, best_cost = i, cost
    return best


def diameter(space: Space, coords: Sequence[Coord]) -> Tuple[int, int]:
    """The first farthest pair ``(i, j)``, ``i < j``, in row-major order."""
    best, best_sq = (0, 1), -1.0
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            d_sq = space.distance_sq(coords[i], coords[j])
            if d_sq > best_sq:
                best, best_sq = (i, j), d_sq
    return best


def split(
    variant: str,
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> Tuple[List[int], List[int]]:
    """The pids each node gets, in input order."""
    coords = [p.coord for p in points]
    d_sq = space.distance_sq
    basic = [d_sq(c, pos_p) < d_sq(c, pos_q) for c in coords]
    part = basic
    if variant in ("pd", "advanced") and len(points) >= 2:
        i, j = diameter(space, coords)
        part = [d_sq(c, coords[i]) < d_sq(c, coords[j]) for c in coords]
    if variant != "basic" and (all(part) or not any(part)):
        part = basic
    elif variant in ("md", "advanced"):
        side_a = [c for c, a in zip(coords, part) if a]
        side_b = [c for c, a in zip(coords, part) if not a]
        m_a = side_a[medoid_index(space, side_a)]
        m_b = side_b[medoid_index(space, side_b)]
        dist = space.distance
        if not dist(m_a, pos_p) + dist(m_b, pos_q) < dist(m_b, pos_p) + dist(m_a, pos_q):
            part = [not a for a in part]
    return (
        [p.pid for p, a in zip(points, part) if a],
        [p.pid for p, a in zip(points, part) if not a],
    )
