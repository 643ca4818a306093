"""Metric spaces and the medoid.

The paper only assumes data points live in *some* metric space
(Sec. III-A).  This subpackage ships the space of the evaluation (the
flat torus) plus the others the paper motivates (Euclidean vectors,
rings, item-set profiles with Jaccard distance), and the exact medoid
the projection and the MD split heuristic rely on.  (The PD
heuristic's diameter search is part of the SPLIT kernel,
:mod:`repro.core.split`.)

Each space states its metric once as a scalar reference and once as a
batched squared-distance kernel; :class:`Space` derives every batched
query from that kernel (see :mod:`repro.spaces.base`).
"""

from .base import Space, VectorSpace
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
]
