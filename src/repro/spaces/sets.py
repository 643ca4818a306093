"""Set space with Jaccard distance.

The paper notes a data point can be "a list of items" taken from "the
power-set of items" (Sec. III-A) — the profile spaces of gossip-based
recommenders (Gossple, WhatsUp).  This space makes Polystyrene usable on
such profiles: coordinates are frozensets of hashable items and distance
is the Jaccard distance, a proper metric on finite sets.

There is no meaningful arithmetic mean of sets, so this space is the
second motivating example (after the torus) for the medoid projection.

Set coordinates cannot be packed into a float matrix; a batch is an
object array of frozensets.  The kernel counts intersection and union
sizes as integers with C set operations and runs the float arithmetic
once over the whole broadcast — float-identical to the scalar
``1 - |A∩B| / |A∪B|`` without a Python-level distance call per pair.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable

import numpy as np

from .base import Batch, Space

SetCoord = FrozenSet[Hashable]


class JaccardSpace(Space):
    """Power-set of items with the Jaccard distance ``1 - |A∩B|/|A∪B|``."""

    dim = None

    def distance(self, a: SetCoord, b: SetCoord) -> float:  # type: ignore[override]
        if not a and not b:
            return 0.0
        inter = len(a & b)
        union = len(a) + len(b) - inter
        return 1.0 - inter / union

    def _sq(self, a: Batch, b: Batch) -> np.ndarray:
        """Squared Jaccard distances from the integer counts: the same
        integers and the same division as the scalar, so the same
        floats (two empty sets are at distance 0)."""
        a, b = np.broadcast_arrays(a, b)
        n = a.size
        inter = np.fromiter(
            (len(x & y) for x, y in zip(a.flat, b.flat)), dtype=np.int64, count=n
        )
        union = np.fromiter(
            (len(x) + len(y) for x, y in zip(a.flat, b.flat)), dtype=np.int64, count=n
        )
        union -= inter
        d = np.zeros(n)
        nonempty = union > 0
        d[nonempty] = 1.0 - inter[nonempty] / union[nonempty]
        d *= d
        return d.reshape(a.shape)

    @staticmethod
    def coord(items: Iterable[Hashable]) -> SetCoord:
        """Build a set-space coordinate from any iterable of items."""
        return frozenset(items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "JaccardSpace()"
