"""Metric-space abstraction.

The paper only requires that "a distance can be computed between any two
data points (i.e. it is a metric space)" (Sec. III-A).  Everything above
this module — T-Man, the split functions, the metrics — is written
against :class:`Space` and works unchanged in any of the concrete spaces
shipped in this subpackage (Euclidean plane, flat torus, ring, set space
with Jaccard distance).

Concrete spaces must implement the scalar :meth:`Space.distance`.  The
batched kernels — :meth:`Space.distance_block`, :meth:`Space.pairwise`
and :meth:`Space.knn_indices` — have generic scalar fallbacks, but the
shipped spaces override them with array implementations because they
sit on the simulator's hot path (T-Man ranks ~100 candidates per node
per round, the SPLIT heuristics need all-pairs distances of the pooled
guest sets).  The kernels operate on *pre-packed batches*
(:meth:`Space.pack_batch`): an ``(n, dim)`` float array for vector
spaces, a plain sequence of coordinate objects otherwise.  Callers that
keep their coordinates in contiguous arrays (the
:class:`~repro.sim.arrays.NodeTable` columns, the per-view coordinate
buffers) hand them to the kernels directly, with no per-call
list → ``np.asarray`` conversion.

The batched kernels are *float-identical* to the scalar path for the
shipped spaces: the property tests in ``tests/test_prop_kernels.py``
pin batched-vs-scalar equivalence for every space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import SpaceMismatchError
from ..types import Coord

#: A pre-packed coordinate batch: ``(n, dim)`` float array for vector
#: spaces, a sequence of coordinate objects for the rest.
Batch = Union[np.ndarray, Sequence[Coord]]


class Space(ABC):
    """A metric space over coordinates.

    Subclasses define :attr:`dim` (``None`` for non-vector spaces such as
    the Jaccard set space) and the distance function.  The distance must
    satisfy the metric axioms; the test suite checks them property-based
    for every shipped space.
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

    def distance_many(self, origin: Coord, coords: Sequence[Coord]) -> np.ndarray:
        """Distances from ``origin`` to every coordinate in ``coords``.

        Convenience wrapper: packs the coordinates and delegates to
        :meth:`distance_block`.  Hot paths that already hold a packed
        batch should call :meth:`distance_block` directly.
        """
        if len(coords) == 0:
            return np.empty(0, dtype=float)
        return self.distance_block(origin, self.pack_batch(coords))

    # -- batched kernels -------------------------------------------------

    def pack_batch(self, coords: Sequence[Coord]) -> Batch:
        """Pack coordinates into the space's batch layout.

        Generic spaces batch as a plain list; vector spaces as an
        ``(n, dim)`` float array.  A batch is reusable across any number
        of kernel calls — pack once, query many times.
        """
        if isinstance(coords, list):
            return coords
        return list(coords)

    def distance_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Distances from ``origin`` to every row of a packed batch.

        Float-identical to calling :meth:`distance` per row (the
        generic fallback does exactly that; array overrides must keep
        per-row float operation order identical).
        """
        return np.array([self.distance(origin, c) for c in batch], dtype=float)

    def distance_sq_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Squared distances from ``origin`` to every batch row.

        The ranking kernel: sorting or comparing by squared distance
        selects what sorting by distance selects, one ufunc pass
        cheaper.  Precisely: ``sqrt`` is weakly monotone in float64, so
        the two orders can only differ where two true distances agree
        to within one ulp while the squares do not (or vice versa for
        metrics computed via ``d*d``).  For coordinates whose squared
        distances are exactly representable — every grid scenario, and
        hence every golden digest — the equivalence is bit-exact.
        """
        return np.array([self.distance_sq(origin, c) for c in batch], dtype=float)

    def pairwise_sq(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs *squared* distance matrix (comparison/ordering
        uses; see :meth:`distance_sq_block`)."""
        if other is None:
            other = batch
        n = len(batch)
        out = np.empty((n, len(other)), dtype=float)
        for i in range(n):
            out[i] = self.distance_sq_block(batch[i], other)
        return out

    def distance_rows(self, batch_a: Batch, batch_b: Batch) -> np.ndarray:
        """Row-paired distances: ``out[i] = distance(batch_a[i],
        batch_b[i])``.  Float-identical to the scalar call per row (the
        generic fallback does exactly that; array overrides must keep
        per-row float operation order identical).  The kernel behind the
        single-holder homogeneity scan and the per-receiver merge
        rankings of the batch engine."""
        return np.array(
            [self.distance(a, b) for a, b in zip(batch_a, batch_b)], dtype=float
        )

    def rank_sq_rows(self, origins: Batch, batch: np.ndarray) -> np.ndarray:
        """Per-row-origin squared rank distances under the canonical-
        coordinates precondition: ``origins`` is ``(n, dim)`` and
        ``batch`` is ``(n, m, dim)``; ``out[i, j] =
        rank_sq(origins[i], batch[i, j])``.  The batch engine's workhorse:
        every node ranks *its own* candidate block against *its own*
        position in one call."""
        return np.stack(
            [self.rank_sq_block(origin, rows) for origin, rows in zip(origins, batch)]
        ) if len(batch) else np.empty((0,) + np.shape(batch)[1:2], dtype=float)

    def rank_sq_pools(self, pools: np.ndarray) -> np.ndarray:
        """All-pairs squared rank distances *within* each pool of a
        padded ``(n, m, dim)`` block: ``out[i, j, k] =
        rank_sq(pools[i, j], pools[i, k])`` (the batch SPLIT kernel).
        The default routes through :meth:`rank_sq_rows`; spaces with
        broadcastable kernels override to skip the materialised
        ``(n*m, m, dim)`` expansion, keeping values identical."""
        n, m, d = pools.shape
        origins = pools.reshape(n * m, d)
        blocks = np.broadcast_to(pools[:, None, :, :], (n, m, m, d)).reshape(
            n * m, m, d
        )
        return self.rank_sq_rows(origins, blocks).reshape(n, m, m)

    def rank_sq_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """:meth:`distance_sq_block` under the *canonical-coordinates*
        precondition: every input is a coordinate the space itself
        produced (grid positions, wrapped reinjection points, medoids of
        such points — i.e. everything the simulator ever stores).
        Spaces whose general kernel spends work on re-normalising
        arbitrary inputs (the modular fold of the torus) override this
        with a cheaper equivalent; on canonical inputs the values are
        identical."""
        return self.distance_sq_block(origin, batch)

    def pairwise_rank_sq(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """:meth:`pairwise_sq` under the canonical-coordinates
        precondition (see :meth:`rank_sq_block`)."""
        return self.pairwise_sq(batch, other)

    def pairwise_canonical(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """:meth:`pairwise` under the canonical-coordinates
        precondition.  Unlike the ``rank_*`` kernels the *values* are
        consumed (medoid costs), so overrides may only skip work that is
        the numerical identity on canonical inputs (e.g. the torus
        fold's ``% period`` pass) — results are bit-identical to
        :meth:`pairwise` there."""
        return self.pairwise(batch, other)

    def nearest_canonical(self, batch: Batch, other: Batch) -> np.ndarray:
        """Distance from each ``batch`` row to its nearest ``other`` row
        under the canonical-coordinates precondition — the lost-point
        term of homogeneity.  The values are consumed, so overrides must
        stay float-identical to ``np.min(pairwise(batch, other),
        axis=1)``.  Callers bound ``len(batch)`` (one row block): the
        working set is ``len(batch) * len(other)`` distances."""
        return np.min(self.pairwise_canonical(batch, other), axis=1)

    def pairwise(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs distance matrix ``(len(batch), len(other))``
        (``other`` defaults to ``batch``).  Row ``i`` is float-identical
        to ``distance_block(batch[i], other)``."""
        if other is None:
            other = batch
        n = len(batch)
        out = np.empty((n, len(other)), dtype=float)
        for i in range(n):
            out[i] = self.distance_block(batch[i], other)
        return out

    def knn_indices(
        self, origin: Coord, batch: Batch, k: int
    ) -> np.ndarray:
        """Indices of the ``k`` batch rows closest to ``origin``,
        closest first, ties broken by index (deterministic)."""
        if k <= 0 or len(batch) == 0:
            return np.empty(0, dtype=np.int64)
        dists = self.distance_block(origin, batch)
        order = np.lexsort((np.arange(len(dists)), dists))
        return order[: min(k, len(dists))]

    def check_coord(self, coord: Coord) -> Coord:
        """Validate a coordinate's dimensionality against this space."""
        if self.dim is not None and len(coord) != self.dim:
            raise SpaceMismatchError(
                f"expected a {self.dim}-component coordinate, got {len(coord)}"
            )
        return coord

    # -- convenience helpers used throughout the library ----------------

    def nearest(self, origin: Coord, coords: Sequence[Coord]) -> int:
        """Index of the coordinate in ``coords`` closest to ``origin``."""
        if not coords:
            raise ValueError("nearest() needs at least one candidate")
        dists = self.distance_many(origin, coords)
        return int(np.argmin(dists))

    def k_nearest(
        self, origin: Coord, coords: Sequence[Coord], k: int
    ) -> List[int]:
        """Indices of the ``k`` closest coordinates, closest first."""
        if k <= 0:
            return []
        dists = self.distance_many(origin, coords)
        k = min(k, len(coords))
        order = np.argpartition(dists, k - 1)[:k]
        return [int(i) for i in order[np.argsort(dists[order])]]

    def mean_distance(self, origin: Coord, coords: Iterable[Coord]) -> float:
        """Average distance from ``origin`` to a collection of coords."""
        coords = list(coords)
        if not coords:
            return 0.0
        return float(np.mean(self.distance_many(origin, coords)))


class VectorSpace(Space):
    """Base class for spaces whose coordinates are fixed-size float tuples.

    Provides coordinate-array packing shared by the Euclidean and modular
    spaces.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("a vector space needs dim >= 1")
        self.dim = dim

    @staticmethod
    def pack(coords: Sequence[Coord]) -> np.ndarray:
        """Stack coordinates into an ``(n, dim)`` float array."""
        return np.asarray(coords, dtype=float)

    def pack_batch(self, coords: Sequence[Coord]) -> np.ndarray:
        """Vector batches are ``(n, dim)`` float arrays; an array passed
        in is used as-is (zero-copy).

        """
        if isinstance(coords, np.ndarray) and coords.dtype == np.float64:
            return coords
        return np.asarray(coords, dtype=float).reshape(len(coords), self.dim)
