"""The paper's bit-layout contracts, as one declarative table.

Every number here is fixed by the hardware design the paper describes,
not by any software choice -- together they are the interface contract
between the engine, the ECC side-band, and the metadata encodings:

* **MAC-in-ECC field** (Section 3, Figure 2): each 64-byte block's
  64-bit ECC lane carries a 56-bit Carter-Wegman MAC, 7 Hamming SEC-DED
  check bits over the MAC, and 1 even-parity bit over the ciphertext.
* **Delta-encoded counters** (Section 4): a 4 KB group of 64 blocks
  shares a 512-bit metadata block holding one 56-bit reference counter
  plus per-block deltas -- 7-bit deltas in the plain scheme (504 of 512
  bits), 6-bit deltas in the dual-length scheme, which frees 72 reserved
  bits used to widen one of the 4 delta-groups of 16 by 4 bits each.
* **Nonce composition** (Sections 2.2/3.2): keystream and MAC nonces
  pack a 48-bit block address with a counter in the one 56-bit nonce
  lane (a monolithic scheme packs its wrap epoch above the counter
  inside that lane); the MAC's AES mask block sets a domain-separation
  flag bit at bit 63 of its counter half.

This module is the **single source of truth**: the runtime imports its
constants (``repro.crypto.mac``, ``repro.core.ecc_mac.layout``,
``repro.core.counters.*``), and the ``RL001`` checker cross-checks every
literal mask / shift / modulus / byte-width in ``core/``, ``ecc/`` and
``crypto/`` against the same table, so code and checker cannot drift
apart.  It must stay import-free (stdlib ``dataclasses`` only): the
lowest layers of the engine import it.

All derived relations are asserted at import time at the bottom of the
file -- editing one constant inconsistently fails before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- MAC-in-ECC field (Figure 2) ---------------------------------------------

MAC_BITS = 56  #: Carter-Wegman tag width (SGX-compatible truncation)
MAC_MASK = (1 << MAC_BITS) - 1
HAMMING_BITS = 7  #: SEC-DED check bits protecting the 56 MAC bits
CT_PARITY_BITS = 1  #: even-parity bit over the ciphertext (scrub aid)
MAC_CHECK_SHIFT = MAC_BITS  #: Hamming bits live at bits 56..62
CT_PARITY_SHIFT = 63  #: parity bit is the MSB of the ECC lane
ECC_FIELD_BITS = 64  #: one ECC lane per 64-byte block
ECC_FIELD_BYTES = 8

# -- blocks and groups (Sections 3-4) ----------------------------------------

BLOCK_BYTES = 64  #: one cache line / one ciphertext block
BLOCK_BITS = BLOCK_BYTES * 8  #: data bits per block (fault-injection range)
GROUP_BLOCKS = 64  #: blocks sharing one counter-metadata block
GROUP_BYTES = 4096  #: 4 KB of data per group
METADATA_BLOCK_BITS = 512  #: one 64-byte metadata block

# -- delta-encoded counters (Section 4, Figures 5-6) -------------------------

REFERENCE_BITS = 56  #: per-group frame-of-reference counter
DELTA_BITS = 7  #: plain delta scheme: 56 + 64*7 = 504 of 512 bits
BASE_DELTA_BITS = 6  #: dual-length scheme: every delta starts at 6 bits
EXTENSION_BITS = 4  #: widening adds 4 bits to each delta of one group
WIDE_DELTA_BITS = BASE_DELTA_BITS + EXTENSION_BITS  #: widened capacity
DELTA_GROUPS = 4  #: delta-groups per block-group
DELTAS_PER_DELTA_GROUP = GROUP_BLOCKS // DELTA_GROUPS  #: 16
RESERVED_BITS = 72  #: 512 - 56 - 64*6: the spare widening pool
WIDEN_INDEX_BITS = 2  #: which delta-group owns the extension
WIDEN_VALID_BITS = 1

# -- nonce composition (Sections 2.2/3.2) ------------------------------------

ADDRESS_BITS = 48  #: physical block address lane in keystream/MAC nonces
COUNTER_NONCE_BITS = 56  #: the nonce lane: every keystream/MAC counter

# -- machine widths (not layout, but legal everywhere) ------------------------

WORD_BITS = 64
GENERIC_WIDTHS = frozenset({8, 16, 32, 64, 128})


@dataclass(frozen=True)
class BitField:
    """One named field of a packed layout."""

    name: str
    shift: int
    width: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def end(self) -> int:
        return self.shift + self.width


@dataclass(frozen=True)
class LayoutSpec:
    """A packed bit layout: contiguous, non-overlapping, exhaustive."""

    name: str
    total_bits: int
    fields: tuple[BitField, ...]

    def validate(self) -> None:
        position = 0
        for field in sorted(self.fields, key=lambda f: f.shift):
            if field.shift != position:
                raise ValueError(
                    f"{self.name}: field {field.name} starts at bit "
                    f"{field.shift}, expected {position}"
                )
            position = field.end
        if position != self.total_bits:
            raise ValueError(
                f"{self.name}: fields cover {position} bits of "
                f"{self.total_bits}"
            )


#: The Figure 2 ECC lane, field by field.
ECC_FIELD_LAYOUT = LayoutSpec(
    name="ecc_field",
    total_bits=ECC_FIELD_BITS,
    fields=(
        BitField("mac", 0, MAC_BITS),
        BitField("mac_check", MAC_CHECK_SHIFT, HAMMING_BITS),
        BitField("ct_parity", CT_PARITY_SHIFT, CT_PARITY_BITS),
    ),
)

#: The Figure 6 dual-length counter-metadata block, field by field.
DUAL_LENGTH_LAYOUT = LayoutSpec(
    name="dual_length_metadata",
    total_bits=METADATA_BLOCK_BITS,
    fields=(
        BitField("reference", 0, REFERENCE_BITS),
        BitField(
            "base_deltas", REFERENCE_BITS, GROUP_BLOCKS * BASE_DELTA_BITS
        ),
        BitField(
            "extensions",
            REFERENCE_BITS + GROUP_BLOCKS * BASE_DELTA_BITS,
            DELTAS_PER_DELTA_GROUP * EXTENSION_BITS,
        ),
        BitField(
            "widened_index",
            REFERENCE_BITS
            + GROUP_BLOCKS * BASE_DELTA_BITS
            + DELTAS_PER_DELTA_GROUP * EXTENSION_BITS,
            WIDEN_INDEX_BITS,
        ),
        BitField(
            "widened_valid",
            REFERENCE_BITS
            + GROUP_BLOCKS * BASE_DELTA_BITS
            + DELTAS_PER_DELTA_GROUP * EXTENSION_BITS
            + WIDEN_INDEX_BITS,
            WIDEN_VALID_BITS,
        ),
        BitField(
            "unused",
            REFERENCE_BITS
            + GROUP_BLOCKS * BASE_DELTA_BITS
            + DELTAS_PER_DELTA_GROUP * EXTENSION_BITS
            + WIDEN_INDEX_BITS
            + WIDEN_VALID_BITS,
            METADATA_BLOCK_BITS
            - REFERENCE_BITS
            - GROUP_BLOCKS * BASE_DELTA_BITS
            - DELTAS_PER_DELTA_GROUP * EXTENSION_BITS
            - WIDEN_INDEX_BITS
            - WIDEN_VALID_BITS,
        ),
    ),
)

LAYOUTS: tuple[LayoutSpec, ...] = (ECC_FIELD_LAYOUT, DUAL_LENGTH_LAYOUT)

# -- checker-facing tables ----------------------------------------------------

#: Name -> value.  RL001 flags any module-level ``NAME = <int literal>``
#: whose normalized name (leading underscores stripped, upper-cased)
#: appears here with a different value: copies of contract constants may
#: exist, but they may not drift.
CONTRACT_CONSTANTS: dict[str, int] = {
    "MAC_BITS": MAC_BITS,
    "MAC_MASK": MAC_MASK,
    "HAMMING_BITS": HAMMING_BITS,
    "MAC_CHECK_BITS": HAMMING_BITS,
    "CT_PARITY_BITS": CT_PARITY_BITS,
    "MAC_CHECK_SHIFT": MAC_CHECK_SHIFT,
    "CT_PARITY_SHIFT": CT_PARITY_SHIFT,
    "ECC_FIELD_BITS": ECC_FIELD_BITS,
    "ECC_FIELD_BYTES": ECC_FIELD_BYTES,
    "BLOCK_BYTES": BLOCK_BYTES,
    "BLOCK_BITS": BLOCK_BITS,
    "GROUP_BLOCKS": GROUP_BLOCKS,
    "GROUP_BYTES": GROUP_BYTES,
    "METADATA_BLOCK_BITS": METADATA_BLOCK_BITS,
    "REFERENCE_BITS": REFERENCE_BITS,
    "DELTA_BITS": DELTA_BITS,
    "BASE_DELTA_BITS": BASE_DELTA_BITS,
    "EXTENSION_BITS": EXTENSION_BITS,
    "WIDE_DELTA_BITS": WIDE_DELTA_BITS,
    "DELTA_GROUPS": DELTA_GROUPS,
    "DELTAS_PER_DELTA_GROUP": DELTAS_PER_DELTA_GROUP,
    "RESERVED_BITS": RESERVED_BITS,
    "ADDRESS_BITS": ADDRESS_BITS,
    "COUNTER_NONCE_BITS": COUNTER_NONCE_BITS,
}

#: Bit widths a literal all-ones mask ``(1 << k) - 1`` may legally have
#: (beyond widths <= 8 and the machine widths, which are always legal).
CONTRACT_WIDTHS: frozenset[int] = frozenset(
    {
        MAC_BITS,
        HAMMING_BITS,
        CT_PARITY_BITS,
        DELTA_BITS,
        BASE_DELTA_BITS,
        WIDE_DELTA_BITS,
        REFERENCE_BITS,
        ADDRESS_BITS,
        COUNTER_NONCE_BITS,
        ECC_FIELD_BITS,
    }
)

#: Literal shift amounts beyond 8 that the layouts legitimize.
CONTRACT_SHIFTS: frozenset[int] = frozenset(
    {
        MAC_CHECK_SHIFT,
        CT_PARITY_SHIFT,
        ADDRESS_BITS,
        MAC_BITS,
    }
)

#: Legal literal ``to_bytes``/``from_bytes`` byte counts beyond the
#: power-of-two machine sizes.
CONTRACT_BYTE_SIZES: frozenset[int] = frozenset(
    {
        ECC_FIELD_BYTES,
        BLOCK_BYTES,
        GROUP_BYTES,
        MAC_BITS // 8,  # 7-byte packed MAC / counter lanes
        ADDRESS_BITS // 8,  # 6-byte packed address lane
    }
)

#: Legal literal moduli / divisors >= 8 (grouping and word arithmetic).
CONTRACT_MODULI: frozenset[int] = frozenset(
    {
        8,
        ECC_FIELD_BYTES,
        BLOCK_BYTES,
        GROUP_BLOCKS,
        GROUP_BYTES,
        DELTAS_PER_DELTA_GROUP,
        METADATA_BLOCK_BITS,
    }
)

#: Identifier (suffix) -> contracted width.  RL001 flags
#: ``<identifier> & <literal mask>`` where the mask width disagrees --
#: the ``tag & 0xFF`` class of bug.
IDENTIFIER_WIDTHS: dict[str, int] = {
    "mac": MAC_BITS,
    "tag": MAC_BITS,
    "mac_check": HAMMING_BITS,
    "ct_parity": CT_PARITY_BITS,
    "reference": REFERENCE_BITS,
}


# -- flow-contract tables (RL005-RL007) ---------------------------------------
#
# The flow-aware checkers are driven by the same philosophy as the bit
# tables above: one declarative model, checkers that only interpret it.
# Everything here is a *name* set -- the analyses are intentionally
# name-based (the AST has no types), and every set below errs on the
# side the checker can afford: source sets narrow (miss a source ->
# miss a finding, never a false alarm), sanitizer sets narrow (an
# unlisted declassifier -> a finding to fix or document, never silence).


@dataclass(frozen=True)
class TaintModel:
    """Sources, sinks and sanitizers of the RL005 secret-taint checker.

    *Key material* is anything derived from a tenant or engine secret:
    the service's per-tenant 48-byte keys, AES round keys, MAC/PRF
    subkeys, the master ``secret_seed``.  It may flow through crypto
    primitives (whose outputs -- ciphertext, MAC tags, digests -- are
    *designed* to be stored) but must never itself reach persistence,
    log/metric labels, or wire frames.
    """

    #: calls whose return value IS key material (the sanctioned
    #: key-derivation functions; RL005 widens this set project-wide to
    #: any function that returns one of these results unsanitized)
    source_calls: frozenset[str]
    #: parameter names that carry key material into a function
    source_params: frozenset[str]
    #: attribute names that hold key material on an object
    source_attrs: frozenset[str]
    #: calls that *declassify*: their output is safe to store even when
    #: an argument is key material (ciphertext, tags, digests, sizes)
    sanitizers: frozenset[str]
    #: method/function names whose arguments become durable state
    persistence_sinks: frozenset[str]
    #: names whose arguments end up in logs, metric names, traces
    telemetry_sinks: frozenset[str]
    #: names whose arguments leave the process on the wire
    wire_sinks: frozenset[str]

    def sink_kind(self, name: str) -> str | None:
        if name in self.persistence_sinks:
            return "persistence"
        if name in self.telemetry_sinks:
            return "telemetry"
        if name in self.wire_sinks:
            return "wire"
        return None


TAINT_MODEL = TaintModel(
    source_calls=frozenset({
        "derive_key",      # service.tenant: the per-tenant 48-byte key
        "expand_key",      # crypto.aes: AES round keys
        "key_schedule",
        "derive_subkeys",  # MAC/PRF subkey derivation
        "split_key",
    }),
    source_params=frozenset({
        "key", "aes_key", "mac_key", "tree_key", "prf_key", "master_key",
        "round_keys", "subkeys", "secret_seed",
    }),
    source_attrs=frozenset({
        "aes_key", "mac_key", "tree_key", "prf_key", "master_key",
        "round_keys", "secret_seed", "_key", "_aes_key", "_mac_key",
        "_tree_key",
    }),
    sanitizers=frozenset({
        # crypto primitives: their outputs are designed to be stored
        "encrypt", "decrypt", "encrypt_block", "decrypt_block",
        "keystream", "keystream_block", "keystream_blocks", "tag", "mac",
        "digest", "hexdigest", "prf",
        # size/shape/identity queries reveal no key bits
        "len", "bool", "isinstance", "type", "id", "range",
    }),
    persistence_sinks=frozenset({
        "record_data", "record_meta", "append_resilience",
        "journal_append", "checkpoint_write", "write_checkpoint",
        "write_text", "write_bytes", "write_state", "dump", "dumps",
    }),
    telemetry_sinks=frozenset({
        "counter", "gauge", "histogram", "log", "info", "warning",
        "error", "debug", "exception", "print", "observe",
    }),
    wire_sinks=frozenset({
        "encode_frame", "write_frame", "to_response",
    }),
)


@dataclass(frozen=True)
class TxnModel:
    """The durable-write typestate protocol RL006 enforces.

    The protocol (DESIGN §9): every durable mutation is mirrored into an
    open journal transaction, and the ``commit_txn`` seal is the
    acknowledgement barrier.  Resilience-plane folds journal through
    self-sealing ``append_resilience`` records instead.
    """

    #: call opening a transaction (CLOSED -> OPEN)
    begin_calls: frozenset[str]
    #: calls sealing/discarding one (OPEN -> CLOSED)
    end_calls: frozenset[str]
    #: durable mutations legal only while a transaction is open
    durable_calls: frozenset[str]
    #: quarantine-map mutations that must be journaled on every path
    #: (the PR 6 quarantine-resurrection bug class)
    fold_mutations: frozenset[str]
    #: receiver chains fold mutations are matched against
    fold_receivers: frozenset[str]
    #: journaling calls that satisfy the fold rule (directly, or
    #: transitively through the call graph)
    fold_journal_calls: frozenset[str]


TXN_MODEL = TxnModel(
    begin_calls=frozenset({"begin_txn"}),
    end_calls=frozenset({"commit_txn", "abort_txn"}),
    durable_calls=frozenset({"record_data", "record_meta"}),
    fold_mutations=frozenset({"retire", "apply_retire", "apply_degrade"}),
    fold_receivers=frozenset({"quarantine"}),
    fold_journal_calls=frozenset({"append_resilience"}),
)


@dataclass(frozen=True)
class AsyncModel:
    """What RL007 considers unsafe inside ``service/`` coroutines."""

    #: dotted calls that block the event loop outright
    blocking_calls: frozenset[tuple[str, ...]]
    #: method names that do synchronous file I/O on their receiver
    blocking_methods: frozenset[str]
    #: attributes naming shard-owned state; mutations of one of these
    #: must not straddle an ``await`` (one-event-loop-per-shard
    #: serialization, DESIGN §12)
    shard_state_attrs: frozenset[str]
    #: exception names that must never be swallowed in a coroutine
    must_propagate: frozenset[str]


ASYNC_MODEL = AsyncModel(
    blocking_calls=frozenset({
        ("time", "sleep"),
        ("subprocess", "run"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("os", "system"),
        ("socket", "create_connection"),
    }),
    blocking_methods=frozenset({
        "read_text", "write_text", "read_bytes", "write_bytes",
        "mkdir", "unlink", "touch", "rename", "rmdir",
    }),
    shard_state_attrs=frozenset({
        "tenants", "quotas", "retired", "draining",
        # PR 9 additions: the shard's idempotency cache and the
        # client's per-shard breaker map are loop-owned mutable state
        # exactly like the tenant tables.
        "_idem", "_breakers",
    }),
    must_propagate=frozenset({"CancelledError"}),
)


def validate() -> None:
    """Check every derived relation between the constants.

    Raises ``ValueError``/``AssertionError`` on any inconsistency; called
    at import so a bad edit fails immediately and loudly.
    """
    for layout in LAYOUTS:
        layout.validate()
    if MAC_BITS + HAMMING_BITS + CT_PARITY_BITS != ECC_FIELD_BITS:
        raise ValueError("ECC lane fields must fill exactly 64 bits")
    if ECC_FIELD_BYTES * 8 != ECC_FIELD_BITS:
        raise ValueError("ECC field byte/bit widths disagree")
    if GROUP_BLOCKS * BLOCK_BYTES != GROUP_BYTES:
        raise ValueError("group geometry disagrees")
    if REFERENCE_BITS + GROUP_BLOCKS * DELTA_BITS > METADATA_BLOCK_BITS:
        raise ValueError("7-bit delta layout overflows the metadata block")
    spare = METADATA_BLOCK_BITS - REFERENCE_BITS - GROUP_BLOCKS * BASE_DELTA_BITS
    if spare != RESERVED_BITS:
        raise ValueError(
            f"dual-length spare pool is {spare} bits, contract says "
            f"{RESERVED_BITS}"
        )
    if DELTAS_PER_DELTA_GROUP * EXTENSION_BITS >= RESERVED_BITS:
        raise ValueError("widening extension must leave room for the index")
    if DELTA_GROUPS > 1 << WIDEN_INDEX_BITS:
        raise ValueError("widened-group index field too narrow")


validate()

__all__ = [
    "ADDRESS_BITS",
    "ASYNC_MODEL",
    "AsyncModel",
    "TAINT_MODEL",
    "TXN_MODEL",
    "TaintModel",
    "TxnModel",
    "BASE_DELTA_BITS",
    "BLOCK_BITS",
    "BLOCK_BYTES",
    "BitField",
    "CONTRACT_BYTE_SIZES",
    "CONTRACT_CONSTANTS",
    "CONTRACT_MODULI",
    "CONTRACT_SHIFTS",
    "CONTRACT_WIDTHS",
    "COUNTER_NONCE_BITS",
    "CT_PARITY_BITS",
    "CT_PARITY_SHIFT",
    "DELTAS_PER_DELTA_GROUP",
    "DELTA_BITS",
    "DELTA_GROUPS",
    "DUAL_LENGTH_LAYOUT",
    "ECC_FIELD_BITS",
    "ECC_FIELD_BYTES",
    "ECC_FIELD_LAYOUT",
    "EXTENSION_BITS",
    "GENERIC_WIDTHS",
    "GROUP_BLOCKS",
    "GROUP_BYTES",
    "HAMMING_BITS",
    "IDENTIFIER_WIDTHS",
    "LAYOUTS",
    "LayoutSpec",
    "MAC_BITS",
    "MAC_CHECK_SHIFT",
    "MAC_MASK",
    "METADATA_BLOCK_BITS",
    "REFERENCE_BITS",
    "RESERVED_BITS",
    "WIDEN_INDEX_BITS",
    "WIDEN_VALID_BITS",
    "WIDE_DELTA_BITS",
    "WORD_BITS",
    "validate",
]
