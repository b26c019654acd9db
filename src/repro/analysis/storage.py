"""Storage-overhead accounting (Figure 1 and the paper's headline claim).

The paper's arithmetic, reproduced exactly:

* 56-bit counter per 64-byte block         -> 56/512  = 10.9%  (~11%)
* 56-bit MAC per 64-byte block             -> 56/512  = 10.9%  (~11%)
* conventional SEC-DED ECC                 -> 8/64    = 12.5%
* ECC for separately-stored MACs           -> MACs themselves need ECC
  bits, pushing ECC + MAC + counters toward ~1/4 of capacity (Section 3.1)
* Bonsai Merkle tree over the counters     -> adds the remaining ~0.2%
  of the quoted ">22%" total
* delta encoding: 56 + 64x7 bits per 64-block group packs the counters
  of a 4 KB group into one 64-byte block -> 1/64 = 1.56%, a 7x reduction
  vs monolithic counter storage (the paper rounds to "6x")
* MAC-in-ECC: MAC storage folds into the pre-existing ECC field -> 0%
  *additional* overhead on an ECC-equipped system.

Combined: ~22% of extra DRAM becomes ~2% (counters-in-delta + tree),
which is the Figure 1 story.  :func:`figure1_breakdowns` evaluates the
model for the baseline and optimized systems on the Table 1 configuration
(512 MB protected region, 3 KB on-chip SRAM), and also reports the
off-chip tree depth -- 5 levels baseline, 4 with delta encoding
(Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine.layout import MetadataLayout
from repro.lint.contracts import BLOCK_BITS, BLOCK_BYTES


@dataclass(frozen=True)
class StorageBreakdown:
    """Per-component metadata storage for one configuration, as fractions
    of protected data capacity."""

    name: str
    counter_overhead: float
    mac_overhead: float
    tree_overhead: float
    ecc_overhead: float
    offchip_tree_levels: int

    @property
    def encryption_metadata(self) -> float:
        """Counters + MACs + tree (the paper's '22%' / '2%' quantity)."""
        return self.counter_overhead + self.mac_overhead + self.tree_overhead

    @property
    def total_with_ecc(self) -> float:
        """Everything, on an ECC-equipped system (Section 3.1's ~1/4)."""
        return self.encryption_metadata + self.ecc_overhead


def scheme_breakdown(
    name: str,
    counters_per_block: int,
    mac_separate: bool,
    protected_bytes: int = 512 * 1024 * 1024,
    onchip_tree_bytes: int = 3072,
    with_ecc: bool = True,
) -> StorageBreakdown:
    """Evaluate the storage model for one configuration.

    ``counters_per_block``: counters per 64-byte metadata block (8 for
    SGX-style monolithic, 64 for split/delta).  ``mac_separate``: whether
    MACs occupy their own storage (True for the baseline, False for
    MAC-in-ECC).  When MACs are separate *and* the system has ECC, the
    MAC storage itself consumes ECC bits too (Section 3.1); that factor
    is included in ``ecc_overhead``.
    """
    layout = MetadataLayout(
        protected_bytes=protected_bytes,
        counters_per_block=counters_per_block,
        mac_separate=mac_separate,
        onchip_tree_bytes=onchip_tree_bytes,
    )
    data_blocks = layout.data_blocks
    counter = layout.counter_blocks / data_blocks
    mac = layout.mac_blocks / data_blocks
    tree = layout.tree_blocks / data_blocks
    ecc = 0.0
    if with_ecc:
        # SEC-DED ECC covers data and any separately-stored metadata.
        ecc = 0.125 * (1.0 + counter + mac + tree)
    return StorageBreakdown(
        name=name,
        counter_overhead=counter,
        mac_overhead=mac,
        tree_overhead=tree,
        ecc_overhead=ecc,
        offchip_tree_levels=layout.offchip_tree_levels,
    )


def figure1_breakdowns(
    protected_bytes: int = 512 * 1024 * 1024,
) -> dict:
    """The Figure 1 comparison: baseline vs the paper's optimized system.

    Returns ``{"baseline": ..., "optimized": ...}`` breakdowns.
    """
    baseline = scheme_breakdown(
        "baseline (56-bit counters, separate MACs)",
        counters_per_block=8,
        mac_separate=True,
        protected_bytes=protected_bytes,
    )
    optimized = scheme_breakdown(
        "optimized (delta counters, MAC-in-ECC)",
        counters_per_block=64,
        mac_separate=False,
        protected_bytes=protected_bytes,
    )
    return {"baseline": baseline, "optimized": optimized}


def counter_compaction_factor(
    counter_bits: int = 56,
    delta_bits: int = 7,
    reference_bits: int = 56,
    blocks_per_group: int = 64,
) -> float:
    """Raw-bit compaction of delta encoding vs monolithic counters.

    56-bit counters: 3584 bits per 64-block group; delta: 56 + 64*7 = 504
    bits -> 7.1x (the paper quotes "6x" against the same packed-block
    budget; both numbers are printed by the Figure 1 bench).
    """
    monolithic = counter_bits * blocks_per_group
    delta = reference_bits + delta_bits * blocks_per_group
    return monolithic / delta


__all__ = [
    "StorageBreakdown",
    "scheme_breakdown",
    "figure1_breakdowns",
    "counter_compaction_factor",
]
