"""Counter-mode keystream generation and block encryption.

Per paper Section 2.1: each 64-byte memory block is encrypted by XOR with a
keystream; the keystream is produced by encrypting the block's counter
concatenated with its physical address ("the counter is concatenated with
the physical address of the memory block being encrypted before being fed
to the block cipher").

A 64-byte block needs four AES output blocks; we vary a 2-bit segment index
inside the AES input so the four keystream blocks are distinct.

How the block cipher is *executed* is pluggable: ``mode`` names a
:class:`repro.fast.backends.KeystreamBackend` (``reference`` / ``fast`` /
``aesni`` run the identical AES construction with different execution
strategies; ``splitmix`` swaps in the non-cryptographic simulation PRF).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MEMORY_BLOCK_SIZE = 64  # bytes; one cache line / one protected block


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
        if counter < 0 or address < 0:
            raise ValueError("counter and address must be non-negative")
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


__all__ = ["CtrModeCipher", "MEMORY_BLOCK_SIZE"]
