"""Metric spaces and geometric utilities (medoid, diameter).

The paper only assumes data points live in *some* metric space
(Sec. III-A).  This subpackage ships the space of the evaluation (the
flat torus) plus the others the paper motivates (Euclidean vectors,
rings, item-set profiles with Jaccard distance), and the two geometric
primitives the protocol relies on: medoids (projection) and diameters
(the PD split heuristic), both exact.

Each space states its metric once as a scalar reference and once as a
batched squared-distance kernel; :class:`Space` derives every batched
query from that kernel (see :mod:`repro.spaces.base`).
"""

from .base import Space, VectorSpace
from .diameter import diameter
from .euclidean import Euclidean
from .medoid import medoid, medoid_index
from .ring import Ring
from .sets import JaccardSpace
from .torus import FlatTorus

__all__ = [
    "Space",
    "VectorSpace",
    "Euclidean",
    "FlatTorus",
    "Ring",
    "JaccardSpace",
    "medoid",
    "medoid_index",
    "diameter",
]
