"""56-bit Carter-Wegman message authentication code.

The paper (Section 3.2) reuses Intel SGX's 56-bit Carter-Wegman MAC tags.
A Carter-Wegman MAC is ``truncate(UniversalHash_h(message) XOR PRF_k(nonce))``:

* the universal hash is a polynomial hash over GF(2^64) keyed by ``h``
  ("essentially composed Galois field multiplications", Section 3.4),
* the PRF mask binds the tag to the nonce -- here the block's physical
  address and its encryption counter, which is exactly the Bonsai-Merkle-
  tree requirement that "the counters used for encryption also be used as
  an additional input when computing MAC tags" (Section 2.2),
* the result is truncated to 56 bits so that, together with 7 Hamming
  parity bits and 1 scrub parity bit, it fits the 64-bit ECC field of one
  64-byte block (Figure 2).

Because both the polynomial hash and the truncation are GF(2)-linear in the
message, ``tag(m ^ e) ^ tag(m) == truncate(Hash_h(e))`` for any error
pattern ``e``.  :meth:`CarterWegmanMac.single_bit_syndromes` precomputes
those per-bit hash deltas, which turns the paper's brute-force
flip-and-check error correction into a syndrome lookup (see
:mod:`repro.core.ecc_mac.correction` for both variants).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.ctr import check_nonce
from repro.crypto.gf import GF64
from repro.crypto.prf import SplitMix64

# Tag width is a layout contract (Figure 2): re-exported here because the
# MAC is where every other module historically imported it from.
from repro.lint.contracts import MAC_BITS, MAC_MASK

if TYPE_CHECKING:
    from repro.fast.backends import BlockEncryptor

_WORD_BYTES = 8
_MASK64 = (1 << 64) - 1


class CarterWegmanMac:
    """Keyed 56-bit Carter-Wegman MAC over 64-byte memory blocks.

    Parameters
    ----------
    key:
        At least 24 bytes: the first 8 become the GF(2^64) hash key ``h``
        (forced non-zero), the next 16 key the nonce-masking PRF.
    mode:
        A registered keystream backend name (see
        :func:`repro.fast.backends.keystream_backends`).  AES-family
        backends (``reference`` / ``fast`` / ``aesni``) mask nonces with
        AES through the backend's block encryptor, so they all produce
        the same tags; ``splitmix`` masks with the simulation-speed PRF.
        Tags from the two families differ, but all structural properties
        (linearity, nonce binding) are identical.
    """

    def __init__(self, key: bytes, mode: str = "fast") -> None:
        if len(key) < 24:
            raise ValueError("CarterWegmanMac key must be at least 24 bytes")
        from repro.fast.backends import resolve_backend

        backend = resolve_backend(mode)
        self.mode = backend.name
        self.family = backend.family
        self._key = bytes(key[:24])
        h = int.from_bytes(key[:8], "little")
        # h == 0 would hash every message to 0 and h == 1 degenerates the
        # polynomial to a plain XOR; remap both to a fixed full-weight
        # element (probability 2^-63 for random keys, but be safe).
        self._h = h if h > 1 else 0xD6E8FEB86659FD93
        self._mask_aes: BlockEncryptor | None = None
        self._mask_prf: SplitMix64 | None = None
        if backend.family == "aes":
            self._mask_aes = backend.build_encryptor(key[8:24])
        else:
            self._mask_prf = SplitMix64(key[8:24])

    # -- universal hash (linear part) -------------------------------------

    @staticmethod
    def _words(message: bytes) -> list[int]:
        if len(message) % _WORD_BYTES:
            raise ValueError("message length must be a multiple of 8 bytes")
        return [
            int.from_bytes(message[i : i + _WORD_BYTES], "little")
            for i in range(0, len(message), _WORD_BYTES)
        ]

    def hash_part(self, message: bytes) -> int:
        """The 64-bit polynomial hash H_h(message) -- GF(2)-linear in the
        message for a fixed key."""
        return GF64.horner_hash(self._words(message), self._h)

    # -- nonce mask --------------------------------------------------------

    def _mask_value(self, address: int, counter: int) -> int:
        if address < 0:
            raise ValueError("address must be non-negative")
        check_nonce(counter)
        if self._mask_aes is not None:
            # Nonce half: the counter with a domain-separation flag bit.
            block = (address & _MASK64).to_bytes(8, "little") + (
                counter | 1 << 63
            ).to_bytes(8, "little")
            return int.from_bytes(
                self._mask_aes.encrypt_block(block)[:8], "little"
            )
        assert self._mask_prf is not None
        mixed = self._mask_prf.value(address & _MASK64)
        return self._mask_prf.value(mixed ^ counter ^ 0xA5A5A5A5A5A5A5A5)

    # -- public tag API ----------------------------------------------------

    def tag(self, message: bytes, address: int, counter: int) -> int:
        """Compute the 56-bit tag for ``message`` under nonce (address,
        counter)."""
        full = self.hash_part(message) ^ self._mask_value(address, counter)
        return full & MAC_MASK

    def verify(self, message: bytes, address: int, counter: int, tag: int) -> bool:
        """Check a stored tag.  Constant-time behaviour is out of scope."""
        return self.tag(message, address, counter) == (tag & MAC_MASK)

    def reference_twin(self) -> "CarterWegmanMac":
        """Same-key MAC with the pure-python mask implementation.

        The cross-check side of paranoid / sampled-paranoid kernel
        verification, chosen by the rule of
        :meth:`repro.crypto.ctr.CtrModeCipher.reference_twin`: an
        AES-family mask is recomputed through the table-AES
        ``reference`` backend, so an accelerated mask (numpy batches,
        AES-NI) is checked against an independent implementation.
        """
        twin_mode = "reference" if self.family == "aes" else "splitmix"
        return CarterWegmanMac(self._key, mode=twin_mode)

    # -- linearity hooks for accelerated flip-and-check --------------------

    def hash_delta(self, error: bytes) -> int:
        """Truncated hash of an error pattern: tag(m ^ e) == tag(m) ^ this."""
        return self.hash_part(error) & MAC_MASK

    def single_bit_syndromes(self, message_bytes: int) -> list[int]:
        """Truncated hash deltas for every single-bit error in a
        ``message_bytes``-byte message.

        Entry ``i`` is the tag delta caused by flipping bit ``i`` (bit
        ``i % 8`` of byte ``i // 8``).  Depends only on the MAC key and the
        message length, so callers cache the result.
        """
        if message_bytes % _WORD_BYTES:
            raise ValueError("message length must be a multiple of 8 bytes")
        n_words = message_bytes // _WORD_BYTES
        # Word at index i (0-based from the front) is multiplied by
        # h^(n_words - i) under Horner evaluation.
        word_factors = [GF64.pow(self._h, n_words - i) for i in range(n_words)]
        syndromes: list[int] = []
        for word_index in range(n_words):
            factor = word_factors[word_index]
            for bit in range(64):
                delta = GF64.mul(1 << bit, factor)
                syndromes.append(delta & MAC_MASK)
        return syndromes


__all__ = ["CarterWegmanMac", "MAC_BITS", "MAC_MASK"]
