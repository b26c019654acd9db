"""Counter-scheme event records and aggregate statistics.

Table 2 of the paper counts *re-encryptions per billion cycles* for three
counter representations; the ablation benches additionally need resets,
re-encodes and group widenings.  Every scheme reports what happened on each
write through these shared types so the harness can aggregate uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs.metrics import Labels, MetricRegistry, RegistryView


class CounterEvent(enum.Enum):
    """Things that can happen while incrementing a block's counter."""

    INCREMENT = "increment"  # plain delta/minor bump
    RESET = "reset"  # all deltas converged -> folded into reference
    RE_ENCODE = "re_encode"  # delta_min subtracted into the reference
    WIDEN = "widen"  # dual-length: overflow bits assigned to a group
    RE_ENCRYPT = "re_encrypt"  # block-group re-encrypted with a new counter
    GLOBAL_RE_ENCRYPT = "global_re_encrypt"  # monolithic counter wrapped


@dataclass
class WriteOutcome:
    """Result of one counter increment.

    ``counter`` is the encryption counter the written block must be
    encrypted with.  When ``reencrypted_group`` is set, the engine must
    also re-encrypt every other block of that group using
    ``group_counter`` (the identical fresh counter the paper's Figure 5a
    assigns to the whole group).
    """

    counter: int
    events: tuple[CounterEvent, ...] = ()
    reencrypted_group: int | None = None
    group_counter: int | None = None

    def has(self, event: CounterEvent) -> bool:
        return event in self.events


class CounterStats(RegistryView):
    """Aggregate event counts across a run (drives Table 2).

    Registry view: when built by a :class:`~repro.core.counters.base.
    CounterScheme` the fields live in the active metrics registry under
    ``counters.<scheme>.*`` (e.g. ``counters.delta.reencode``); built
    bare -- ``CounterStats(writes=5)`` -- it owns a private registry and
    behaves like the old standalone dataclass.
    """

    _VIEW_FIELDS = {
        "writes": "write",
        "increments": "increment",
        "resets": "reset",
        "re_encodes": "reencode",
        "widens": "widen",
        "re_encryptions": "reencrypt",
        "global_re_encryptions": "global_reencrypt",
    }

    def __init__(
        self,
        *,
        registry: MetricRegistry | None = None,
        labels: Labels | None = None,
        prefix: str = "counters",
        **initial: int,
    ) -> None:
        super().__init__(
            registry=registry, labels=labels, prefix=prefix, **initial
        )
        self.per_group_re_encryptions: dict[int, int] = {}

    _FIELD_BY_EVENT = {
        CounterEvent.INCREMENT: "increments",
        CounterEvent.RESET: "resets",
        CounterEvent.RE_ENCODE: "re_encodes",
        CounterEvent.WIDEN: "widens",
        CounterEvent.RE_ENCRYPT: "re_encryptions",
        CounterEvent.GLOBAL_RE_ENCRYPT: "global_re_encryptions",
    }

    def record(self, outcome: WriteOutcome, group: int | None = None) -> None:
        """Fold one write outcome into the aggregates."""
        self.writes += 1
        for event in outcome.events:
            name = self._FIELD_BY_EVENT[event]
            setattr(self, name, getattr(self, name) + 1)
        if CounterEvent.RE_ENCRYPT in outcome.events and group is not None:
            self.per_group_re_encryptions[group] = (
                self.per_group_re_encryptions.get(group, 0) + 1
            )

    def record_increments(self, count: int, resets: int = 0) -> None:
        """Fold ``count`` plain writes into the aggregates at once.

        Each is one INCREMENT and ``resets`` of them also a RESET: the
        totals ``count`` :meth:`record` calls of those outcomes add up
        to, as one bump per field (plain writes never re-encrypt).
        """
        self.writes += count
        self.increments += count
        self.resets += resets

    def merge(self, other: CounterStats) -> None:
        """Accumulate another stats object (e.g. across trace segments)."""
        self.writes += other.writes
        self.increments += other.increments
        self.resets += other.resets
        self.re_encodes += other.re_encodes
        self.widens += other.widens
        self.re_encryptions += other.re_encryptions
        self.global_re_encryptions += other.global_re_encryptions
        for group, count in other.per_group_re_encryptions.items():
            self.per_group_re_encryptions[group] = (
                self.per_group_re_encryptions.get(group, 0) + count
            )


__all__ = ["CounterEvent", "WriteOutcome", "CounterStats"]
