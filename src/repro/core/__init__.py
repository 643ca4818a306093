"""Polystyrene — the paper's primary contribution.

Four decoupled mechanisms over passive *data points*: projection
(medoid of the guests), backup (K ghost replicas), recovery (ghost
reactivation on failure) and migration (pairwise SPLIT exchanges), glued
into one simulation layer by :class:`PolystyreneLayer`.
"""

from .backup import BackupManager, required_replication, survival_probability
from .config import PolystyreneConfig
from .migration import MigrationManager
from .points import PointFactory
from .projection import make_projection, project_centroid, project_medoid
from .protocol import PolystyreneLayer, StaticHolderLayer
from .recovery import recover_node
from .split import (
    make_split,
    split_advanced,
    split_basic,
    split_md,
    split_pd,
)

__all__ = [
    "PolystyreneConfig",
    "PolystyreneLayer",
    "StaticHolderLayer",
    "PointFactory",
    "BackupManager",
    "MigrationManager",
    "required_replication",
    "survival_probability",
    "recover_node",
    "project_medoid",
    "project_centroid",
    "make_projection",
    "split_basic",
    "split_pd",
    "split_md",
    "split_advanced",
    "make_split",
]
