"""Projection: summarising a guest set into one advertised position.

Step 1 of the protocol (Sec. III-C).  The position handed to the
topology construction layer "should reflect the membership of the guest
data points held by the node".  The paper uses the *medoid* — the guest
point minimising the sum of squared distances to the other guests —
because centroids need division, which is ill defined in modular spaces.

A node whose guest set is empty (a freshly reinjected node, or a node
that gave all its points away) keeps its previous position: it still
needs *some* coordinate to participate in T-Man and to attract points
through migration.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from ..spaces.base import Space
from ..spaces.euclidean import Euclidean
from ..spaces.medoid import medoid
from ..types import Coord, DataPoint


def project_medoid(
    space: Space, points: Sequence[DataPoint], current_pos: Coord
) -> Coord:
    """The paper's projection: the medoid of the guest points, in
    guest order (ties go to the earlier point)."""
    if not points:
        return current_pos
    return medoid(space, [p.coord for p in points])


def project_centroid(
    space: Space, points: Sequence[DataPoint], current_pos: Coord
) -> Coord:
    """Ablation projection: the arithmetic mean of the guests.

    Only valid in vector spaces with well-defined division; used to
    quantify what the medoid costs/buys in the Euclidean setting.
    """
    if not isinstance(space, Euclidean):
        raise ConfigurationError(
            "centroid projection requires a Euclidean space; "
            f"got {type(space).__name__}"
        )
    if not points:
        return current_pos
    return space.centroid([p.coord for p in points])


_PROJECTIONS = {
    "medoid": project_medoid,
    "centroid": project_centroid,
}


def make_projection(name: str):
    """Look up a projection function by configuration name."""
    try:
        return _PROJECTIONS[name]
    except KeyError:
        raise ConfigurationError(f"unknown projection {name!r}") from None
