"""Counter-mode keystream generation and block encryption.

Per paper Section 2.1: each 64-byte memory block is encrypted by XOR with a
keystream; the keystream is produced by encrypting the block's counter
concatenated with its physical address ("the counter is concatenated with
the physical address of the memory block being encrypted before being fed
to the block cipher").

A 64-byte block needs four AES output blocks; we vary a 2-bit segment index
inside the AES input so the four keystream blocks are distinct.

Every keystream and MAC nonce lies in the 56-bit lane ``[0,
NONCE_LIMIT)``; :func:`check_nonce`/:func:`check_nonces` raise on one
outside it rather than mask it into a nonce another counter used.

How the block cipher is *executed* is pluggable: ``mode`` names a
:class:`repro.fast.backends.KeystreamBackend` (``reference`` / ``fast`` /
``aesni`` run the identical AES construction with different execution
strategies; ``splitmix`` swaps in the non-cryptographic simulation PRF).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.lint.contracts import COUNTER_NONCE_BITS

MEMORY_BLOCK_SIZE = 64  # bytes; one cache line / one protected block

NONCE_LIMIT = 1 << COUNTER_NONCE_BITS
_OUT_OF_LANE = f"nonce outside the {COUNTER_NONCE_BITS}-bit nonce lane"


def check_nonce(counter: int) -> int:
    """``counter``; ValueError unless it lies in the nonce lane."""
    if not 0 <= counter < NONCE_LIMIT:
        raise ValueError(_OUT_OF_LANE)
    return counter


def check_nonces(counters: Sequence[int]) -> np.ndarray:
    """``counters`` as int64; ValueError unless each is in the lane."""
    try:
        array = np.asarray(counters, dtype=np.int64)
    except OverflowError:  # a Python int of 64 bits or more
        raise ValueError(_OUT_OF_LANE) from None
    if len(array) and not (array.min() >= 0 and array.max() < NONCE_LIMIT):
        raise ValueError(_OUT_OF_LANE)
    return array


class CtrModeCipher:
    """Counter-mode encryption of whole 64-byte memory blocks.

    Parameters
    ----------
    key:
        16-byte encryption key.
    mode:
        A registered keystream backend name (see
        :func:`repro.fast.backends.keystream_backends`): ``reference``,
        ``fast`` (default) and ``aesni`` for real AES-CTR, ``splitmix``
        for the simulation-speed PRF.
    """

    def __init__(self, key: bytes, mode: str = "fast") -> None:
        from repro.fast.backends import resolve_backend

        backend = resolve_backend(mode)
        self.mode = backend.name
        self.family = backend.family
        self._key = bytes(key)
        self._engine = backend.build(self._key)

    def keystream(
        self, counter: int, address: int, length: int = MEMORY_BLOCK_SIZE
    ) -> bytes:
        """Keystream bytes for a block identified by (counter, address).

        The (counter, address) pair is the nonce: reusing a pair reproduces
        the same keystream, which is exactly the weakness counter overflow
        causes and the paper's delta machinery avoids.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        return self._engine.keystream(counter, address, length)

    def encrypt(self, plaintext: bytes, counter: int, address: int) -> bytes:
        """Encrypt one memory block under nonce (counter, address)."""
        stream = self.keystream(counter, address, len(plaintext))
        return bytes(p ^ s for p, s in zip(plaintext, stream))

    def decrypt(self, ciphertext: bytes, counter: int, address: int) -> bytes:
        """Decrypt one memory block (XOR is an involution)."""
        return self.encrypt(ciphertext, counter, address)

    def xor_blocks(
        self,
        data: np.ndarray,
        counters: Sequence[int],
        addresses: Sequence[int],
    ) -> np.ndarray:
        """Encrypt/decrypt an ``(N, 64)`` uint8 array under N nonces.

        The batched twin of :meth:`encrypt`: one call to the backend's
        ``pads`` produces all N keystreams.
        """
        if data.ndim != 2 or data.shape[1] != MEMORY_BLOCK_SIZE:
            raise ValueError("data must have shape (N, 64)")
        if data.shape[0] != len(counters) or len(counters) != len(addresses):
            raise ValueError("data, counters and addresses must align")
        return data ^ self._engine.pads(counters, addresses)

    def reference_twin(self) -> "CtrModeCipher":
        """An independent scalar implementation of the same construction.

        Used as the cross-check side of paranoid / sampled-paranoid
        kernel verification: for AES-family backends the twin is the
        pure-python ``reference`` backend, so a hardware (``aesni``)
        fast path is checked against table AES rather than against
        itself.
        """
        twin_mode = "reference" if self.family == "aes" else "splitmix"
        return CtrModeCipher(self._key, mode=twin_mode)


__all__ = ["CtrModeCipher", "MEMORY_BLOCK_SIZE", "NONCE_LIMIT",
           "check_nonce", "check_nonces"]
