"""Configuration of the Polystyrene layer.

Every mechanism of the protocol is independently configurable — the
paper's conclusion calls out this modularity explicitly ("Any of its
four components can be configured independently").  The defaults are
the paper's evaluation settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

SPLIT_CHOICES = ("basic", "pd", "md", "advanced")
PROJECTION_CHOICES = ("medoid", "centroid")
BACKUP_PLACEMENT_CHOICES = ("random", "neighbors")


@dataclass
class PolystyreneConfig:
    """Tunable knobs of the Polystyrene layer.

    Attributes:
        replication: ``K``, the number of backup copies per guest set.
            The paper evaluates K ∈ {2, 4, 8} (87.5% / 96.9% / 99.8%
            survival under a half-network failure).
        psi: size of the closest-neighbour candidate set the migration
            step draws its partner from (plus one RPS peer); ψ = 5 in
            the paper.
        split: which SPLIT function migration uses — ``"basic"``
            (closest-position k-means step), ``"pd"`` (diameter
            partition only), ``"md"`` (closest-position partition with
            displacement-minimising assignment), or ``"advanced"``
            (PD + MD, the paper's Algorithm 5).
        projection: how a node summarises its guests into one position —
            ``"medoid"`` (the paper's choice, valid in any metric
            space) or ``"centroid"`` (vector spaces only; ablation).
        backup_placement: ``"random"`` spreads copies uniformly (the
            paper's choice against spatially-correlated failures) or
            ``"neighbors"`` keeps copies topologically close (the
            localized alternative discussed in Sec. III-D).
        incremental_backup: send only guest-set deltas to known backup
            nodes instead of full copies (the optimisation suggested
            after Algorithm 1).
    """

    replication: int = 4
    psi: int = 5
    split: str = "advanced"
    projection: str = "medoid"
    backup_placement: str = "random"
    incremental_backup: bool = True

    def __post_init__(self) -> None:
        if self.replication < 0:
            raise ConfigurationError("replication (K) cannot be negative")
        if self.psi < 1:
            raise ConfigurationError("psi must be >= 1")
        if self.split not in SPLIT_CHOICES:
            raise ConfigurationError(
                f"split must be one of {SPLIT_CHOICES}, got {self.split!r}"
            )
        if self.projection not in PROJECTION_CHOICES:
            raise ConfigurationError(
                f"projection must be one of {PROJECTION_CHOICES}, "
                f"got {self.projection!r}"
            )
        if self.backup_placement not in BACKUP_PLACEMENT_CHOICES:
            raise ConfigurationError(
                f"backup_placement must be one of {BACKUP_PLACEMENT_CHOICES}, "
                f"got {self.backup_placement!r}"
            )
