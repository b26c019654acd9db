"""Batched 56-bit Carter-Wegman MAC over vectors of 64-byte blocks.

Vector twin of :class:`repro.crypto.mac.CarterWegmanMac`: the universal
hash runs through the window-table GF(2^64) Horner evaluator and the
nonce masks are batched through either the MAC backend's block encryptor
(AES family: numpy byte-plane AES, AES-NI, or table AES) or the
vectorized SplitMix64 PRF (``splitmix``), replicating the scalar mask
layouts bit for bit (including the high-bit domain separator on the
counter half of the AES mask block).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.ctr import check_nonces
from repro.crypto.mac import MAC_MASK, CarterWegmanMac
from repro.fast.gf_batch import BatchHornerHash
from repro.fast.prf_batch import BatchSplitMix64

_COUNTER_TOP = np.uint64(1 << 63)
_FAST_MASK_TWEAK = np.uint64(0xA5A5A5A5A5A5A5A5)


def words_le(messages: np.ndarray) -> np.ndarray:
    """(N, 64) uint8 message bytes -> (N, 8) little-endian uint64 words."""
    if messages.ndim != 2 or messages.shape[1] % 8:
        raise ValueError("messages must have shape (N, 8k)")
    return np.ascontiguousarray(messages).view("<u8")


class BatchCarterWegmanMac:
    """Batched tags for N (message, address, counter) triples."""

    def __init__(self, mac: CarterWegmanMac) -> None:
        self._horner = BatchHornerHash(mac._h)
        self._mask_aes = mac._mask_aes
        self._mask_prf: BatchSplitMix64 | None = None
        if mac._mask_prf is not None:
            self._mask_prf = BatchSplitMix64(mac._mask_prf)

    def hash_part(self, messages: np.ndarray) -> np.ndarray:
        """Batched 64-bit polynomial hash of (N, 64) uint8 messages."""
        return self._horner.hash(words_le(messages))

    def _mask_values(
        self, addresses: Sequence[int], counters: Sequence[int]
    ) -> np.ndarray:
        a = np.asarray(addresses, dtype=np.uint64)
        c = check_nonces(counters).astype(np.uint64)
        if self._mask_aes is not None:
            # Scalar layout: 8-byte address LE | 8-byte (counter|top) LE.
            blocks = np.empty((len(addresses), 16), dtype=np.uint8)
            blocks[:, :8] = a.astype("<u8")[:, None].view(np.uint8)
            top = (c | _COUNTER_TOP).astype("<u8")
            blocks[:, 8:] = top[:, None].view(np.uint8)
            encrypted = self._mask_aes.encrypt_blocks(blocks)
            return np.ascontiguousarray(encrypted[:, :8]).view("<u8")[:, 0]
        assert self._mask_prf is not None
        mixed = self._mask_prf.value(a)
        return self._mask_prf.value(mixed ^ c ^ _FAST_MASK_TWEAK)

    def tags(
        self,
        messages: np.ndarray,
        addresses: Sequence[int],
        counters: Sequence[int],
    ) -> np.ndarray:
        """56-bit tags for (N, 64) messages under N nonces: (N,) uint64."""
        if messages.shape[0] != len(addresses) or len(addresses) != len(
            counters
        ):
            raise ValueError("messages, addresses and counters must align")
        full = self.hash_part(messages) ^ self._mask_values(
            addresses, counters
        )
        return full & np.uint64(MAC_MASK)


__all__ = ["BatchCarterWegmanMac", "words_le"]
