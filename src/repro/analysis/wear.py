"""Non-volatile main-memory wear model (paper Section 2.2).

"Encrypting data in an NVMM can result in faster storage media wear out.
Frequent re-encryption of memory blocks that result from overflowing
counters will exacerbate this problem.  The delta encoding scheme we
present in this work will reduce potential storage media wear out..."

This module turns that argument into numbers: given a demand write-back
stream and a counter scheme, it computes the *write amplification*
(total physical writes / demand writes, where every block-group
re-encryption rewrites the whole group) and projects device lifetime for
an endurance-limited technology.

The lifetime projection is a standard first-order model: uniform wear
levelling over the device, cells rated for ``endurance_cycles`` writes.
It deliberately ignores intra-group wear imbalance (levelling hardware
handles that) -- the quantity the paper argues about is the total write
volume multiplier, which this captures exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import CounterScheme, make_scheme
from repro.lint.contracts import BLOCK_BYTES


@dataclass(frozen=True)
class WearReport:
    """Write-amplification outcome for one (stream, scheme) pairing."""

    scheme: str
    demand_writes: int
    re_encryptions: int
    blocks_per_group: int

    @property
    def reencryption_writes(self) -> int:
        """Extra block writes caused by group re-encryption."""
        return self.re_encryptions * self.blocks_per_group

    @property
    def total_writes(self) -> int:
        return self.demand_writes + self.reencryption_writes

    @property
    def amplification(self) -> float:
        """Physical writes per demand write (>= 1.0)."""
        if not self.demand_writes:
            return 1.0
        return self.total_writes / self.demand_writes

    def lifetime_years(
        self,
        device_bytes: int,
        endurance_cycles: int = 10**7,
        demand_write_bandwidth: float = 1e9,
    ) -> float:
        """Projected device lifetime under perfect wear levelling.

        ``demand_write_bandwidth`` is in bytes/second of *demand* traffic;
        the scheme's amplification multiplies it.  PCM-class endurance is
        ~10^7-10^8 cycles; the default is the conservative end.
        """
        if device_bytes <= 0 or endurance_cycles <= 0:
            raise ValueError("device_bytes and endurance_cycles must be > 0")
        if demand_write_bandwidth <= 0:
            raise ValueError("demand_write_bandwidth must be > 0")
        total_capacity_writes = device_bytes * endurance_cycles
        physical_bandwidth = demand_write_bandwidth * self.amplification
        seconds = total_capacity_writes / physical_bandwidth
        return seconds / (365.25 * 24 * 3600)


def measure_wear(
    writebacks,
    scheme: str | CounterScheme,
    total_blocks: int | None = None,
) -> WearReport:
    """Replay a write-back stream (block indices) into a counter scheme
    and report its wear profile.

    ``scheme`` may be a scheme name (instantiated over ``total_blocks``)
    or a pre-built :class:`~repro.core.counters.base.CounterScheme`.
    """
    if isinstance(scheme, str):
        if total_blocks is None:
            raise ValueError("total_blocks required when scheme is a name")
        scheme = make_scheme(scheme, total_blocks)
    blocks = list(writebacks)
    scheme.replay(blocks)
    return WearReport(
        scheme=scheme.name,
        demand_writes=len(blocks),
        re_encryptions=scheme.stats.re_encryptions,
        blocks_per_group=scheme.blocks_per_group,
    )


def compare_schemes(
    writebacks,
    total_blocks: int,
    schemes=("split", "delta", "dual_length"),
) -> dict:
    """Wear reports for several schemes over one (replayable) stream."""
    stream = list(writebacks)
    return {
        name: measure_wear(stream, name, total_blocks) for name in schemes
    }


__all__ = ["WearReport", "measure_wear", "compare_schemes"]
