"""Pluggable keystream backends behind one registry.

The engine's counter-mode construction (paper Section 2.1) is fixed: each
64-byte block's keystream is the block cipher applied to four nonce
blocks laid out as ``56-bit counter LE | 0x00 | 48-bit address LE |
16-bit segment LE``, the counter a nonce in the 56-bit lane (enforced).
What *varies* is how that block cipher is executed, and that choice is
what a :class:`KeystreamBackend` names:

* ``reference`` -- the pure-python table AES, one block at a time.  The
  ground truth every other AES-family backend must match bit for bit.
* ``fast``      -- the same table AES scalar path plus the numpy
  byte-plane :class:`~repro.fast.aes_batch.BatchAes128` for batches.
* ``aesni``     -- hardware AES via the ``cryptography`` package.  CTR
  keystream blocks are by definition the ECB encryption of the counter
  blocks, so a single ECB call over the numpy-assembled nonce array
  reproduces the engine's little-endian segment layout exactly (the
  library's own CTR mode cannot: it increments the 16-byte counter
  big-endian, while the segment lane at bytes 14..15 is little-endian).
* ``splitmix``  -- the non-cryptographic SplitMix64 simulation PRF; a
  different *family*, so its pads intentionally differ from the AES
  backends'.

The same name selects the Carter-Wegman MAC's nonce mask (paper Section
3.2): an AES-family backend's block encryptor computes the mask, the
``splitmix`` backend masks with SplitMix64 (see
:class:`repro.crypto.mac.CarterWegmanMac`).

Backends within the ``aes`` family are interchangeable at the bit level;
``tests/crypto/test_kat.py`` pins every registered backend to golden
vectors and ``tests/fast/test_backend_differential.py`` property-tests
cross-backend equality, so a backend cannot register without proving
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.crypto.aes import AES128
from repro.crypto.ctr import check_nonce, check_nonces
from repro.crypto.prf import XorShiftKeystream
from repro.fast.aes_batch import BatchAes128
from repro.fast.prf_batch import BatchSplitMix64, splitmix64_batch
from repro.lint.contracts import ADDRESS_BITS, BLOCK_BYTES

_AES_BLOCK = 16
_SEGMENTS = BLOCK_BYTES // _AES_BLOCK
_MASK64 = (1 << 64) - 1
_ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
_WORDS_PER_BLOCK = BLOCK_BYTES // 8

try:  # pragma: no cover - exercised via backend availability below
    from cryptography.hazmat.primitives.ciphers import (
        Cipher as _CgCipher,
        algorithms as _cg_algorithms,
        modes as _cg_modes,
    )

    _CRYPTOGRAPHY_ERROR: Optional[str] = None
except Exception as exc:  # pragma: no cover - depends on environment
    _CgCipher = None  # type: ignore[assignment, misc]
    _cg_algorithms = None  # type: ignore[assignment]
    _cg_modes = None  # type: ignore[assignment]
    _CRYPTOGRAPHY_ERROR = f"python package 'cryptography' unavailable: {exc}"


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run in this environment."""


class BlockEncryptor(Protocol):
    """AES-family execution strategy: encrypt raw 16-byte blocks."""

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(M, 16)`` uint8 array of blocks."""


class TableAesEncryptor:
    """Pure-python table AES, scalar even for batches (the reference)."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES128(key)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        out = b"".join(self._aes.encrypt_block(bytes(row)) for row in blocks)
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, _AES_BLOCK)


class BatchTableAesEncryptor:
    """Table AES scalar path + numpy byte-plane batches (one schedule)."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES128(key)
        self._batch = BatchAes128.from_scalar(self._aes)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        return self._batch.encrypt_blocks(blocks)


class AesNiEncryptor:
    """Hardware AES through ``cryptography`` (OpenSSL AES-NI).

    A single long-lived ECB context is reused for every call: ECB has no
    chaining state, so ``update`` on full blocks is a pure block-cipher
    map and the context never needs finalizing.
    """

    def __init__(self, key: bytes) -> None:
        if _CRYPTOGRAPHY_ERROR is not None:
            raise BackendUnavailable(_CRYPTOGRAPHY_ERROR)
        cipher = _CgCipher(_cg_algorithms.AES(bytes(key)), _cg_modes.ECB())
        self._ctx = cipher.encryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != _AES_BLOCK:
            raise ValueError("block must be 16 bytes")
        return self._ctx.update(bytes(block))

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(blocks, dtype=np.uint8)
        out = self._ctx.update(flat.tobytes())
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, _AES_BLOCK)


def aes_nonce_block(counter: int, address: int, segment: int) -> bytes:
    """One scalar nonce block: 7-byte counter | 0 | 6-byte addr | 2-byte seg."""
    return (
        check_nonce(counter).to_bytes(7, "little")
        + b"\x00"
        + (address & _ADDRESS_MASK).to_bytes(6, "little")
        + segment.to_bytes(2, "little")
    )


def aes_nonce_blocks(
    counters: Sequence[int], addresses: Sequence[int]
) -> np.ndarray:
    """Nonce blocks for N 64-byte pads: ``(N, 4, 16)`` uint8.

    Byte-for-byte the batched twin of :func:`aes_nonce_block`, with the
    segment index varying along axis 1.
    """
    n = len(counters)
    c = check_nonces(counters).astype(np.uint64)
    a = np.asarray(addresses, dtype=np.uint64) & np.uint64(_ADDRESS_MASK)
    blocks = np.zeros((n, _SEGMENTS, _AES_BLOCK), dtype=np.uint8)
    for k in range(7):
        blocks[:, :, k] = (
            (c >> np.uint64(8 * k)) & np.uint64(0xFF)
        ).astype(np.uint8)[:, None]
    for k in range(6):
        blocks[:, :, 8 + k] = (
            (a >> np.uint64(8 * k)) & np.uint64(0xFF)
        ).astype(np.uint8)[:, None]
    blocks[:, :, 14] = np.arange(_SEGMENTS, dtype=np.uint8)
    return blocks


class AesCtrKeystream:
    """The Section 2.1 keystream construction over any AES encryptor."""

    family = "aes"

    def __init__(self, encryptor: BlockEncryptor) -> None:
        self.encryptor = encryptor

    def keystream(self, counter: int, address: int, length: int) -> bytes:
        out = bytearray()
        segment = 0
        while len(out) < length:
            block = aes_nonce_block(counter, address, segment)
            out.extend(self.encryptor.encrypt_block(block))
            segment += 1
        return bytes(out[:length])

    def pads(
        self, counters: Sequence[int], addresses: Sequence[int]
    ) -> np.ndarray:
        """64-byte keystream pads for N nonces: ``(N, 64)`` uint8."""
        blocks = aes_nonce_blocks(counters, addresses)
        encrypted = self.encryptor.encrypt_blocks(
            blocks.reshape(-1, _AES_BLOCK)
        )
        return encrypted.reshape(len(counters), BLOCK_BYTES)


class SplitmixKeystream:
    """The simulation-speed SplitMix64 PRF keystream (non-cryptographic)."""

    family = "splitmix"

    def __init__(self, key: bytes) -> None:
        self._scalar = XorShiftKeystream(key)
        self._prf = BatchSplitMix64(self._scalar._prf)

    def keystream(self, counter: int, address: int, length: int) -> bytes:
        seed = (check_nonce(counter) << 64) | (address & _MASK64)
        return self._scalar.keystream(seed, length)

    def pads(
        self, counters: Sequence[int], addresses: Sequence[int]
    ) -> np.ndarray:
        n = len(counters)
        # Scalar seed = counter << 64 | address, split back into
        # high = counter, low = address inside XorShiftKeystream.
        high = check_nonces(counters).astype(np.uint64)
        low = np.asarray(addresses, dtype=np.uint64)
        word_index = np.arange(_WORDS_PER_BLOCK, dtype=np.uint64)
        tweak = splitmix64_batch(high[:, None] ^ word_index)
        words = self._prf.value(low[:, None] ^ tweak)
        return words.astype("<u8").view(np.uint8).reshape(n, BLOCK_BYTES)


def _always_available() -> Optional[str]:
    return None


def _aesni_availability() -> Optional[str]:
    return _CRYPTOGRAPHY_ERROR


@dataclass(frozen=True)
class KeystreamBackend:
    """One named keystream execution strategy in the registry."""

    name: str
    family: str  # "aes" | "splitmix"
    summary: str
    encryptor_factory: Optional[Callable[[bytes], BlockEncryptor]] = None
    availability: Callable[[], Optional[str]] = field(
        default=_always_available
    )

    def availability_error(self) -> Optional[str]:
        """``None`` when usable, else a human-readable reason."""
        return self.availability()

    def available(self) -> bool:
        return self.availability_error() is None

    def build_encryptor(self, key: bytes) -> BlockEncryptor:
        """Raw block encryptor for this backend (AES family only)."""
        if self.encryptor_factory is None:
            raise BackendUnavailable(
                f"backend {self.name!r} ({self.family} family) has no "
                "block encryptor"
            )
        error = self.availability_error()
        if error is not None:
            raise BackendUnavailable(f"backend {self.name!r}: {error}")
        return self.encryptor_factory(key)

    def build(self, key: bytes):
        """Keystream engine (``keystream``/``pads``) keyed by ``key``."""
        if self.family == "aes":
            return AesCtrKeystream(self.build_encryptor(key))
        error = self.availability_error()
        if error is not None:  # pragma: no cover - splitmix always works
            raise BackendUnavailable(f"backend {self.name!r}: {error}")
        return SplitmixKeystream(key)


_REGISTRY: Dict[str, KeystreamBackend] = {}


def register_backend(backend: KeystreamBackend) -> KeystreamBackend:
    """Add a backend to the registry (duplicate names are an error)."""
    if backend.name in _REGISTRY:
        raise ValueError(f"duplicate keystream backend {backend.name!r}")
    if backend.family not in ("aes", "splitmix"):
        raise ValueError(f"unknown backend family {backend.family!r}")
    _REGISTRY[backend.name] = backend
    return backend


def keystream_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def resolve_backend(name: str) -> KeystreamBackend:
    """Look up a backend by its registered name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(_REGISTRY)
        raise ValueError(
            f"unknown keystream backend {name!r} (choices: {choices})"
        ) from None


register_backend(
    KeystreamBackend(
        name="reference",
        family="aes",
        summary="pure-python table AES, scalar even for batches",
        encryptor_factory=TableAesEncryptor,
    )
)
register_backend(
    KeystreamBackend(
        name="fast",
        family="aes",
        summary="table AES scalar path + numpy byte-plane batches",
        encryptor_factory=BatchTableAesEncryptor,
    )
)
register_backend(
    KeystreamBackend(
        name="aesni",
        family="aes",
        summary="hardware AES-NI via the 'cryptography' package",
        encryptor_factory=AesNiEncryptor,
        availability=_aesni_availability,
    )
)
register_backend(
    KeystreamBackend(
        name="splitmix",
        family="splitmix",
        summary="non-cryptographic SplitMix64 simulation PRF",
    )
)


__all__ = [
    "AesCtrKeystream",
    "AesNiEncryptor",
    "BackendUnavailable",
    "BatchTableAesEncryptor",
    "BlockEncryptor",
    "KeystreamBackend",
    "SplitmixKeystream",
    "TableAesEncryptor",
    "aes_nonce_block",
    "aes_nonce_blocks",
    "keystream_backends",
    "register_backend",
    "resolve_backend",
]
