"""Load-balance metrics over guest assignments.

The paper's conclusion lists the protocol's load-balancing behaviour as
future work; these metrics make it measurable.  Guests are the unit of
load: a node primary-holding many points serves a larger zone of the
shape (more keys, more subscriptions, ...).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.state import state_of
from ..sim.network import SimNode
from .homogeneity import node_rows


def guest_counts(alive_nodes: Sequence[SimNode], placement=None) -> np.ndarray:
    """Guest-set size per alive node (0 for nodes without state).
    ``placement`` is the batch engine's array store, read instead of
    ``node.poly``."""
    n = len(alive_nodes)
    if placement is not None:
        return placement.guest_n[node_rows(alive_nodes)].astype(float)
    return np.fromiter(
        (
            state.n_guests if (state := state_of(node)) is not None else 0
            for node in alive_nodes
        ),
        dtype=float,
        count=n,
    )


def load_balance(alive_nodes: Sequence[SimNode], placement=None) -> Dict[str, float]:
    """Summary of guest-load distribution.

    Returns ``max_over_mean`` (1.0 = perfectly balanced), ``gini``
    (0 = equal shares, →1 = one node holds everything) and the raw
    ``max``/``mean``.
    """
    if not alive_nodes:
        raise ValueError("load balance is undefined on an empty network")
    counts = guest_counts(alive_nodes, placement)
    mean = float(counts.mean())
    peak = float(counts.max())
    return {
        "mean": mean,
        "max": peak,
        "max_over_mean": peak / mean if mean > 0 else float("inf"),
        "gini": gini(counts),
    }


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = perfectly equal)."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("gini of an empty sample is undefined")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    # Standard closed form over the sorted sample.
    index = np.arange(1, n + 1)
    return float((2.0 * np.dot(index, arr) - (n + 1) * total) / (n * total))
