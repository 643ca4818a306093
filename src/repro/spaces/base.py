"""Metric-space abstraction.

The paper only requires that "a distance can be computed between any two
data points (i.e. it is a metric space)" (Sec. III-A).  Everything above
this module — T-Man, the split functions, the metrics — is written
against :class:`Space` and works unchanged in any of the concrete spaces
shipped in this subpackage (Euclidean plane, flat torus, ring, set space
with Jaccard distance).

A concrete space states its metric once in each of two forms:

* the scalar reference, :meth:`Space.distance` / :meth:`Space.distance_sq`,
  which accepts any coordinate;
* one batched kernel, :meth:`Space._sq`: the squared distances between
  two packed operands broadcast against each other over their leading
  axes.

Every batched query is derived from that kernel here, once: one origin
against a block (:meth:`~Space.rank_sq_block`,
:meth:`~Space.distance_block`), one origin per row
(:meth:`~Space.rank_sq_rows`), all pairs within each pool
(:meth:`~Space.rank_sq_pools`), all pairs of two batches
(:meth:`~Space.pairwise_rank_sq`, :meth:`~Space.pairwise`), paired rows
(:meth:`~Space.distance_rows`) and each row's nearest
(:meth:`~Space.nearest_distance`).  A distance value is the ``sqrt`` of
its square.

Operands are *packed* (:meth:`Space.pack_batch`): float arrays with the
coordinate on the last axis for vector spaces, object arrays of
coordinates otherwise.  Callers that keep their coordinates in
contiguous arrays (the :class:`~repro.sim.arrays.NodeTable` columns,
the per-view coordinate blocks) hand them over with no conversion.

The kernel takes *canonical* coordinates: ones the space itself produced
(grid positions, wrapped reinjection points, medoids of such points —
everything a simulation stores; on the torus ``0 <= c < period``).  On
such inputs it runs the scalar reference's operations in the scalar's
order, so every query agrees with the scalar calls bit for bit
(``tests/test_prop_kernels.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from ..types import Coord

#: A packed coordinate batch: ``(n, dim)`` floats for vector spaces, an
#: ``(n,)`` object array of coordinates for the rest.
Batch = np.ndarray


class Space(ABC):
    """A metric space over coordinates.

    Subclasses define :attr:`dim` (``None`` for non-vector spaces such as
    the Jaccard set space), the scalar distance and the batched kernel
    :meth:`_sq`.  The distance must satisfy the metric axioms; the test
    suite checks them property-based for every shipped space.
    """

    #: Number of components of a coordinate, or ``None`` when coordinates
    #: are not fixed-size vectors (e.g. sets of items).
    dim: Optional[int] = None

    @abstractmethod
    def distance(self, a: Coord, b: Coord) -> float:
        """Return the distance between two coordinates."""

    def distance_sq(self, a: Coord, b: Coord) -> float:
        """Squared distance; override when it can skip a square root."""
        d = self.distance(a, b)
        return d * d

    def pack_batch(self, coords) -> Batch:
        """Pack a coordinate, or coordinates of any leading shape, into
        the kernel layout — an object array here.  A batch is reusable
        across any number of queries: pack once, query many times."""
        if isinstance(coords, np.ndarray) and coords.dtype == object:
            return coords
        return np.array(coords, dtype=object)

    @abstractmethod
    def _sq(self, a: Batch, b: Batch) -> np.ndarray:
        """The space's one batched kernel: squared distances between the
        packed operands ``a`` and ``b`` broadcast against each other over
        their leading axes, on canonical coordinates."""

    # -- queries, each derived once from the kernel ------------------------

    def rank_sq_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Squared distances from ``origin`` to every batch row.

        The ranking query: sorting or comparing by squared distance
        selects what sorting by distance selects, one ``sqrt`` cheaper.
        ``sqrt`` is weakly monotone in float64, so the two orders can
        only differ where two true distances agree to within one ulp
        while their squares do not; for coordinates whose squared
        distances are exactly representable — every grid scenario, and
        hence every golden digest — they are the same order."""
        return self._sq(self.pack_batch(origin), self.pack_batch(batch))

    def distance_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Distances from ``origin`` to every batch row."""
        out = self.rank_sq_block(origin, batch)
        return np.sqrt(out, out=out)

    def rank_sq_rows(self, origins: Batch, blocks: Batch) -> np.ndarray:
        """One origin per row: ``origins`` is ``(n, dim)``, ``blocks`` is
        ``(n, m, dim)`` and ``out[i, j]`` is the squared distance from
        ``origins[i]`` to ``blocks[i, j]``.  The batch engine's
        workhorse: every node ranks *its own* candidates against *its
        own* position in one call."""
        return self._sq(self.pack_batch(origins)[:, None], self.pack_batch(blocks))

    def rank_sq_pools(self, pools: Batch) -> np.ndarray:
        """All-pairs squared distances *within* each pool of a padded
        ``(n, m, dim)`` block: ``out[i, j, k]`` between ``pools[i, j]``
        and ``pools[i, k]`` (the batch SPLIT's pair matrices)."""
        pools = self.pack_batch(pools)
        return self._sq(pools[:, :, None], pools[:, None])

    def pairwise_rank_sq(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs squared distance matrix ``(len(batch), len(other))``
        (``other`` defaults to ``batch``)."""
        batch = self.pack_batch(batch)
        other = batch if other is None else self.pack_batch(other)
        return self._sq(batch[:, None], other[None])

    def pairwise(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs distance matrix; row ``i`` equals
        ``distance_block(batch[i], other)``."""
        out = self.pairwise_rank_sq(batch, other)
        return np.sqrt(out, out=out)

    def distance_rows(self, batch_a: Batch, batch_b: Batch) -> np.ndarray:
        """Paired rows: ``out[i] = distance(batch_a[i], batch_b[i])`` —
        homogeneity's single-holder scan and MD's displacement legs."""
        out = self._sq(self.pack_batch(batch_a), self.pack_batch(batch_b))
        return np.sqrt(out, out=out)

    def nearest_distance(self, batch: Batch, other: Batch) -> np.ndarray:
        """Distance from each ``batch`` row to its nearest ``other`` row
        (the lost-point term of homogeneity): the ``min`` of the squares,
        then one ``sqrt`` — monotone and correctly rounded, so equal to
        ``np.min(pairwise(batch, other), axis=1)``.  The working set is
        ``len(batch) * len(other)`` squares: callers bound
        ``len(batch)``.  Raises ``ValueError`` when ``other`` is empty."""
        return np.sqrt(self.pairwise_rank_sq(batch, other).min(axis=1))


class VectorSpace(Space):
    """Base class for spaces whose coordinates are fixed-size float
    tuples, packed as float arrays with the coordinate on the last axis.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("a vector space needs dim >= 1")
        self.dim = dim

    def pack_batch(self, coords: Sequence[Coord]) -> np.ndarray:
        """A float64 array passed in is used as-is (zero-copy); an empty
        sequence packs as ``(0, dim)``."""
        if isinstance(coords, np.ndarray) and coords.dtype == np.float64:
            return coords
        arr = np.asarray(coords, dtype=float)
        return arr.reshape(0, self.dim) if arr.ndim == 1 and not arr.size else arr
