"""Vectorized SplitMix64 mixing (fast-mode keystream and MAC masks).

Mirrors :mod:`repro.crypto.prf` on uint64 numpy arrays.  All arithmetic is
modulo 2^64 by construction of the dtype; the explicit ``errstate`` guard
silences the (intentional) wrap-around overflow.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.prf import SplitMix64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64_batch(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (matches ``splitmix64``)."""
    mixed = values.astype(np.uint64, copy=True)
    splitmix64_inplace(mixed, np.empty_like(mixed))
    return mixed


def splitmix64_inplace(values: np.ndarray, scratch: np.ndarray) -> None:
    """``splitmix64`` on a uint64 array in place (``scratch``: same shape).

    Allocates nothing, so long per-row chains (the tree hash) can run
    it once per round.
    """
    values += _GOLDEN
    np.right_shift(values, _S30, out=scratch)
    values ^= scratch
    values *= _MIX1
    np.right_shift(values, _S27, out=scratch)
    values ^= scratch
    values *= _MIX2
    np.right_shift(values, _S31, out=scratch)
    values ^= scratch


class BatchSplitMix64:
    """Vector twin of :class:`repro.crypto.prf.SplitMix64`."""

    def __init__(self, prf: SplitMix64) -> None:
        self._k0 = np.uint64(prf._k0)
        self._k1 = np.uint64(prf._k1)

    def value(self, x: np.ndarray) -> np.ndarray:
        """``prf(x) = mix(mix(x ^ k0) + k1)`` over a uint64 array."""
        mixed = splitmix64_batch(x.astype(np.uint64) ^ self._k0)
        with np.errstate(over="ignore"):
            mixed += self._k1
        return splitmix64_batch(mixed)


__all__ = ["splitmix64_batch", "splitmix64_inplace", "BatchSplitMix64"]
