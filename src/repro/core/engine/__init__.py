"""The memory-encryption engine.

Composes the counter schemes, the MAC-in-ECC machinery, the Bonsai Merkle
tree and the metadata cache into two top-level objects:

* :class:`~repro.core.engine.secure_memory.SecureMemory` -- the
  *functional* engine: real AES-CTR encryption, real MACs, real tree
  hashing, fault injection and tamper detection.  Used by the security
  tests, the fault-matrix experiments (Figure 3) and the examples.
* :class:`~repro.core.engine.timing.EncryptionTimingBackend` -- the
  *timing* engine: tracks counters, the 32 KB metadata cache and tree
  geometry, and turns every LLC miss into the right set of DRAM
  transactions.  Plugs into the trace-driven CPU model to produce the
  Figure 8 / Table 2 numbers.

Both are configured by :class:`~repro.core.engine.config.EngineConfig`,
whose presets name the four systems Figure 8 compares.
"""

from repro.core.engine.config import EngineConfig, PRESETS
from repro.core.engine.layout import MetadataLayout
from repro.core.engine.secure_memory import (
    IntegrityError,
    ReadResult,
    SecureMemory,
)
from repro.core.engine.timing import EncryptionTimingBackend
from repro.core.engine.tree import BonsaiMerkleTree
from repro.core.engine.units import (
    DecodeUnit,
    IncrementResetUnit,
    ReencryptionEngine,
)

__all__ = [
    "DecodeUnit",
    "IncrementResetUnit",
    "ReencryptionEngine",
    "EngineConfig",
    "PRESETS",
    "MetadataLayout",
    "SecureMemory",
    "ReadResult",
    "IntegrityError",
    "EncryptionTimingBackend",
    "BonsaiMerkleTree",
]
