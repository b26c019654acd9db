"""Error-detection flow for MAC-in-ECC blocks (paper Section 3.3).

On every read the controller receives the 64-byte ciphertext and its 64
ECC bits in the same burst.  The check proceeds:

1. Hamming-decode the (MAC, check) pair: corrects a single flip *in the
   stored MAC bits*, detects doubles.  If the MAC bits are uncorrectable,
   the block's integrity cannot be vouched for locally.
2. Recompute the MAC over the received ciphertext under the tree-verified
   counter and compare.  A match means the data is authentic and clean; a
   mismatch means either a hardware fault in the data bits (any number of
   flips is *detected*, unlike SEC-DED's 2-per-word limit) or tampering.

Distinguishing fault from attack is the correction step's job
(:mod:`repro.core.ecc_mac.correction`): if flip-and-check finds a small
number of flips that make the MAC verify, it was a fault; otherwise the
engine must treat the block as tampered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.ecc_mac.layout import EccField, MacEccCodec
from repro.ecc.hamming import DecodeStatus


class CheckOutcome(enum.Enum):
    """Verdict of the read-path integrity/error check."""

    CLEAN = "clean"  # MAC bits clean, data MAC verifies
    MAC_CORRECTED = "mac_corrected"  # 1 flip in stored MAC fixed, data ok
    DATA_MISMATCH = "data_mismatch"  # MAC check failed -> fault or tamper
    MAC_UNCORRECTABLE = "mac_uncorrectable"  # >=2 flips in stored MAC bits


@dataclass(frozen=True)
class CheckResult:
    """Outcome plus the recovered MAC (needed by the corrector)."""

    outcome: CheckOutcome
    recovered_mac: int | None
    computed_mac: int

    @property
    def ok(self) -> bool:
        return self.outcome in (CheckOutcome.CLEAN, CheckOutcome.MAC_CORRECTED)


def check_block(
    codec: MacEccCodec,
    ciphertext: bytes,
    field: EccField | None,
    address: int,
    counter: int,
) -> CheckResult:
    """Run the full Section 3.3 detection flow for one block (a
    missing ECC field reads as uncorrectable MAC bits)."""
    recovery = None if field is None else codec.recover_mac(field)
    computed = codec.mac.tag(ciphertext, address, counter)
    if recovery is None or recovery.status is DecodeStatus.DETECTED:
        return CheckResult(
            outcome=CheckOutcome.MAC_UNCORRECTABLE,
            recovered_mac=None,
            computed_mac=computed,
        )
    stored = recovery.data
    if stored == computed:
        outcome = (
            CheckOutcome.CLEAN
            if recovery.status is DecodeStatus.CLEAN
            else CheckOutcome.MAC_CORRECTED
        )
    else:
        outcome = CheckOutcome.DATA_MISMATCH
    return CheckResult(
        outcome=outcome, recovered_mac=stored, computed_mac=computed
    )


__all__ = ["CheckOutcome", "CheckResult", "check_block"]
