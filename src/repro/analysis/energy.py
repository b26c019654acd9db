"""DRAM + crypto energy model (the paper's efficiency claim, §4.1/§2.2).

"The optimizations we present below reduce the rate of re-encryption,
which in turn limits non-volatile main memory aging ... and also results
in better energy efficiency."

This module quantifies that: per-operation energy constants (DDR3-class
values from the Micron power model, crypto-engine values from published
AES/GHASH accelerator numbers) applied to measured traffic counts.  The
comparison of interest is *per configuration*: MAC-in-ECC removes one
DRAM transaction per miss; delta encoding removes tree levels and counter
fetches; both remove re-encryption sweeps -- all directly visible as
picojoules.

Absolute constants are order-of-magnitude (they vary by part and node);
the asserted quantity is the configuration *ordering*, which depends only
on the traffic ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.contracts import BLOCK_BYTES
from repro.memsim.dram.system import DramStats


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy constants, in picojoules.

    DRAM numbers approximate a DDR3-1600 x8 device set (activate+
    precharge pair, and the per-64-byte burst including I/O); crypto
    numbers approximate pipelined hardware engines at 45 nm -- the
    technology of the paper's synthesis.
    """

    activate_pj: float = 2500.0  # ACT+PRE pair, whole rank
    burst_read_pj: float = 5200.0  # 64-byte read burst incl. I/O
    burst_write_pj: float = 5600.0  # 64-byte write burst incl. I/O
    refresh_pj: float = 9000.0  # one all-bank refresh
    aes_block_pj: float = 25.0  # one AES-128 block (4 per 64 B)
    gf_mac_pj: float = 8.0  # one Carter-Wegman tag evaluation
    hamming_pj: float = 0.5  # one SEC-DED encode/decode

    def dram_energy(self, stats: DramStats) -> float:
        """Energy of a measured DRAM traffic mix, in picojoules."""
        activates = stats.row_closed + stats.row_conflicts
        return (
            activates * self.activate_pj
            + stats.reads * self.burst_read_pj
            + stats.writes * self.burst_write_pj
            + stats.refresh_stalls * self.refresh_pj
        )

    def crypto_energy(
        self,
        blocks_processed: int,
        mac_evaluations: int | None = None,
        hamming_ops: int = 0,
    ) -> float:
        """Energy of the encryption engine's work.

        Each 64-byte block needs four AES blocks of keystream and (by
        default) one MAC evaluation.
        """
        if mac_evaluations is None:
            mac_evaluations = blocks_processed
        return (
            blocks_processed * 4 * self.aes_block_pj
            + mac_evaluations * self.gf_mac_pj
            + hamming_ops * self.hamming_pj
        )

    def reencryption_energy(self, reencrypted_blocks: int) -> float:
        """A re-encrypted block is read, decrypted, re-encrypted and
        written back: two bursts + two crypto passes."""
        dram = reencrypted_blocks * (
            self.burst_read_pj + self.burst_write_pj
        )
        crypto = 2 * self.crypto_energy(reencrypted_blocks)
        return dram + crypto


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total energy of one simulated configuration."""

    name: str
    dram_pj: float
    crypto_pj: float
    reencryption_pj: float

    @property
    def total_pj(self) -> float:
        return self.dram_pj + self.crypto_pj + self.reencryption_pj

    def per_access_nj(self, accesses: int) -> float:
        """Nanojoules per demand access (for cross-run comparison)."""
        if accesses <= 0:
            raise ValueError("accesses must be positive")
        return self.total_pj / accesses / 1000.0


def measure_backend_energy(name: str, backend,
                           model: EnergyModel | None = None) -> EnergyBreakdown:
    """Energy of one :class:`EncryptionTimingBackend` run.

    Crypto work: one keystream + MAC per demand read and write; Hamming
    ops on MAC-in-ECC configurations (encode on write, decode on read).
    Re-encryption energy from the scheme's event counts.
    """
    model = model or EnergyModel()
    stats = backend.stats
    demand = stats.demand_reads + stats.demand_writes
    hamming = demand if backend.config.mac_in_ecc else 0
    reencrypted = (
        backend.scheme.stats.re_encryptions
        * backend.scheme.blocks_per_group
    )
    return EnergyBreakdown(
        name=name,
        dram_pj=model.dram_energy(backend.dram.stats),
        crypto_pj=model.crypto_energy(demand, hamming_ops=hamming),
        reencryption_pj=model.reencryption_energy(reencrypted),
    )


__all__ = ["EnergyModel", "EnergyBreakdown", "measure_backend_energy"]
