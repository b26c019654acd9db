"""Cryptographic substrate for the memory-encryption reproduction.

Everything here is implemented from scratch in pure Python: carry-less
Galois-field arithmetic (:mod:`repro.crypto.gf`), the AES-128 block cipher
(:mod:`repro.crypto.aes`), counter-mode keystream generation
(:mod:`repro.crypto.ctr`), the 56-bit Carter-Wegman MAC used by the paper's
MAC-in-ECC scheme (:mod:`repro.crypto.mac`), and a fast non-cryptographic
keyed PRF used to speed up long timing simulations
(:mod:`repro.crypto.prf`).

These primitives are functionally faithful (nonce handling, MAC linearity,
key separation) but make no constant-time or side-channel claims -- they
model *what* the hardware computes, not how fast.
"""

from repro.crypto.aes import AES128
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.gf import GF64, GF128
from repro.crypto.mac import CarterWegmanMac, MAC_BITS
from repro.crypto.prf import SplitMix64, XorShiftKeystream

__all__ = [
    "AES128",
    "CtrModeCipher",
    "GF64",
    "GF128",
    "CarterWegmanMac",
    "MAC_BITS",
    "SplitMix64",
    "XorShiftKeystream",
]
