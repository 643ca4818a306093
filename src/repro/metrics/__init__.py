"""The paper's evaluation metrics (Sec. IV-A).

Five metrics: proximity (neighbourhood quality), homogeneity (shape
quality), reshaping time (rounds to re-converge under the reference
homogeneity), storage overhead (data points per node) and message cost
(abstract units per node per round).

The functions named like their submodules, ``homogeneity`` and
``proximity``, are read from those submodules (or from the top-level
``repro`` package): no name exported here equals a submodule's.
"""

from .balance import gini, guest_counts, load_balance
from .collector import ALL_METRICS, MetricsRecorder
from .homogeneity import holder_index, lost_points, surviving_fraction
from .messages import layer_share, per_node_cost, per_node_series
from .proximity import node_proximity
from .reshaping import reference_homogeneity, reshaping_time
from .storage import average_storage, node_storage, total_unique_points

__all__ = [
    "MetricsRecorder",
    "ALL_METRICS",
    "holder_index",
    "lost_points",
    "surviving_fraction",
    "node_proximity",
    "reference_homogeneity",
    "reshaping_time",
    "average_storage",
    "node_storage",
    "total_unique_points",
    "per_node_cost",
    "per_node_series",
    "layer_share",
    "load_balance",
    "guest_counts",
    "gini",
]
