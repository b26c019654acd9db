"""Counter-representation schemes for counter-mode memory encryption.

Four interchangeable implementations of the
:class:`~repro.core.counters.base.CounterScheme` interface:

===================  ===========================  =======================
scheme               storage per 4 KB group        overflow handling
===================  ===========================  =======================
``monolithic``       64 x 56 bits (7 blocks)       practically never
``split``            64 + 64 x 7 bits (1 block)    group re-encryption
``delta``            56 + 64 x 7 bits (1 block)    reset / re-encode /
                                                   re-encryption
``dual_length``      56 + 64 x 6 + 72 bits         widen / reset /
                     (1 block)                     re-encode / re-encrypt
===================  ===========================  =======================

Both delta schemes share one bit layout, :class:`DeltaLayout`
(:mod:`repro.core.counters.layout`); ``dual_length`` is ``delta`` plus
widening.
"""

from repro.core.counters.base import (
    BLOCK_BYTES,
    METADATA_BLOCK_BYTES,
    CounterScheme,
)
from repro.core.counters.delta import DeltaCounters
from repro.core.counters.dual_length import DualLengthDeltaCounters
from repro.core.counters.events import CounterEvent, CounterStats, WriteOutcome
from repro.core.counters.layout import DeltaLayout
from repro.core.counters.monolithic import MonolithicCounters
from repro.core.counters.split import SplitCounters

SCHEMES = {
    MonolithicCounters.name: MonolithicCounters,
    SplitCounters.name: SplitCounters,
    DeltaCounters.name: DeltaCounters,
    DualLengthDeltaCounters.name: DualLengthDeltaCounters,
}


def make_scheme(name: str, total_blocks: int, **kwargs) -> CounterScheme:
    """Instantiate a counter scheme by its short name."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown counter scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None
    return cls(total_blocks, **kwargs)


__all__ = [
    "CounterScheme",
    "MonolithicCounters",
    "SplitCounters",
    "DeltaCounters",
    "DualLengthDeltaCounters",
    "DeltaLayout",
    "CounterEvent",
    "CounterStats",
    "WriteOutcome",
    "SCHEMES",
    "make_scheme",
    "BLOCK_BYTES",
    "METADATA_BLOCK_BYTES",
]
