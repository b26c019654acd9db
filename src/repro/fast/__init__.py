"""Vectorized batch kernels for the engine's hot paths.

Every scalar hot path the batch engine runs -- AES-CTR keystream
generation, Carter-Wegman MAC evaluation, the MAC-in-ECC lane's Hamming
check bits and parity, tree node hashing, and delta-group counter
pack/unpack -- has a numpy-batched twin that processes N blocks per call
instead of one.  The pairing is explicit: each fast kernel registers
against its scalar reference in a :class:`repro.fast.kernels.KernelPair`,
and one mode token says how often the kernel table cross-checks the two:
``fast`` (never), ``paranoid`` (every call) or ``sampled:N`` (1-in-N
calls on a seeded schedule).  The differential test suites (`tests/fast/test_differential.py`,
`tests/fast/test_backend_differential.py`) property-test ``fast(x) ==
reference(x)`` for every pair and every keystream backend, so the
speedup never costs bit-exactness.

The block cipher itself is pluggable: :mod:`repro.fast.backends` keys
execution strategies (``reference`` / ``fast`` / ``aesni`` /
``splitmix``) by name, selected through ``EngineConfig.keystream_mode``;
the one name runs both the CTR keystream and the MAC's nonce mask.

:class:`repro.fast.batch_memory.BatchSecureMemory` composes the kernels
into a façade over :class:`repro.core.engine.secure_memory.SecureMemory`
that queues reads/writes, groups them per 4 KB block-group, and flushes
them through the batch kernels while leaving the underlying engine in a
state indistinguishable from having performed the same operations
scalar-ly, one at a time.

Submodules are imported lazily (PEP 562): ``repro.fast.backends`` is
imported by ``repro.core.engine.config`` for backend-name validation, so
an eager import of :mod:`repro.fast.batch_memory` here would close an
import cycle back through the engine.
"""

from typing import Any

__all__ = [
    "BatchSecureMemory",
    "KernelDivergence",
    "KernelPair",
    "KernelTable",
]

_LAZY = {
    "BatchSecureMemory": "repro.fast.batch_memory",
    "KernelDivergence": "repro.fast.kernels",
    "KernelPair": "repro.fast.kernels",
    "KernelTable": "repro.fast.kernels",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
