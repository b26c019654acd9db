"""DurabilityConfig: the engine-facing knobs of the persistence layer.

Kept import-light on purpose: the engine imports this module (to accept
a ``durability=`` argument) while the rest of :mod:`repro.persist` sits
*below* the engine and must never import it -- the config is the only
thing the two sides share.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DurabilityConfig:
    """How the engine journals and checkpoints its metadata.

    ``checkpoint_interval`` counts *committed transactions* between epoch
    checkpoints; every checkpoint folds the journal into a fresh shadow
    snapshot and truncates it.  ``checkpoint_on_global_reencrypt`` forces
    an immediate checkpoint after a whole-memory re-encryption (the
    journal record for one would otherwise carry every live block).
    """

    #: committed write transactions between epoch checkpoints (0 = never
    #: checkpoint automatically; the journal then grows until told)
    checkpoint_interval: int = 64
    #: checkpoint immediately after a monolithic-counter epoch change
    checkpoint_on_global_reencrypt: bool = True
    #: refuse appends past this many live journal records (0 = unbounded);
    #: a full journal forces an inline checkpoint instead of failing
    journal_capacity_records: int = 4096

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.journal_capacity_records < 0:
            raise ValueError("journal_capacity_records must be >= 0")


__all__ = ["DurabilityConfig"]
