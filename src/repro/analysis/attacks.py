"""Scripted attack scenarios against a :class:`~repro.SecureMemory`.

The paper's threat model (Section 2): an attacker with physical access
can monitor buses, dump DIMM contents, and rewrite any off-chip state --
ciphertexts, MACs/ECC bits, counter storage, interior tree nodes -- but
cannot touch on-chip state (keys, the tree's top level) or break the
cryptography.  This module enumerates concrete attacks within that model
and reports whether the engine defends against each; the security test
suite asserts a clean sweep, and the harness makes the same check easy
to run against custom configurations.

Each scenario returns an :class:`AttackResult`; ``defended`` means the
engine either raised an :class:`~repro.core.engine.secure_memory.
IntegrityError` or returned data the attack did not influence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.ecc_mac.layout import EccField
from repro.core.engine.secure_memory import IntegrityError, SecureMemory
from repro.lint.contracts import BLOCK_BYTES


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one scripted attack."""

    name: str
    defended: bool
    detail: str


def _attack(memory, name, address, mutate, expected_kinds):
    """Run one mutate-then-read attack; classify the outcome."""
    mutate()
    try:
        result = memory.read(address)
    except IntegrityError as error:
        ok = error.kind in expected_kinds
        return AttackResult(
            name,
            defended=ok,
            detail=f"rejected (kind={error.kind})"
            if ok
            else f"rejected with unexpected kind={error.kind}",
        )
    return AttackResult(
        name,
        defended=False,
        detail=f"read returned {result.data[:8].hex()}... without detection",
    )


def ciphertext_tamper(memory: SecureMemory, address: int = 0,
                      seed: int = 1) -> AttackResult:
    """Flip a burst of ciphertext bits (targeted data corruption)."""
    rng = random.Random(seed)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    positions = rng.sample(range(512), 24)
    return _attack(
        memory,
        "ciphertext tamper (24 bits)",
        address,
        lambda: memory.flip_data_bits(address, positions),
        expected_kinds={"mac"},
    )


def ciphertext_and_mac_forgery(memory: SecureMemory, address: int = 0,
                               seed: int = 2) -> AttackResult:
    """Replace the ciphertext *and* write a guessed MAC for it."""
    rng = random.Random(seed)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    block = address // BLOCK_BYTES

    def mutate():
        forged_ct = bytes(rng.randrange(256) for _ in range(64))
        memory.ciphertexts[block] = forged_ct
        # A guessed MAC with self-consistent Hamming bits, so the ECC
        # check passes and only the MAC can reject it (a bare-tag lane
        # compares the whole word).
        guess = rng.getrandbits(56)
        check = memory.codec.mac_hamming.encode(guess)
        memory.lanes[block] = EccField(guess, check, 0).word

    return _attack(
        memory,
        "ciphertext + forged MAC",
        address,
        mutate,
        expected_kinds={"mac"},
    )


def replay_block(memory: SecureMemory, address: int = 0,
                 seed: int = 3) -> AttackResult:
    """Full consistent rollback of data + MAC + counter storage."""
    rng = random.Random(seed)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    snapshot = memory.snapshot_block(address)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    return _attack(
        memory,
        "replay (data+MAC+counter rollback)",
        address,
        lambda: memory.rollback_block(address, snapshot),
        expected_kinds={"tree"},
    )


def counter_manipulation(memory: SecureMemory, address: int = 0,
                         seed: int = 4) -> AttackResult:
    """Rewrite the counter metadata block (e.g. to force nonce reuse)."""
    rng = random.Random(seed)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    group = memory.scheme.group_of(address // BLOCK_BYTES)
    metadata = bytearray(memory.counter_storage[group])
    metadata[rng.randrange(len(metadata))] ^= 0xFF

    return _attack(
        memory,
        "counter-storage manipulation",
        address,
        lambda: memory.corrupt_counter_storage(group, bytes(metadata)),
        expected_kinds={"tree"},
    )


def tree_node_grafting(memory: SecureMemory, address: int = 0,
                       seed: int = 5) -> AttackResult:
    """Overwrite an interior tree node with another node's content."""
    rng = random.Random(seed)
    memory.write(address, bytes(rng.randrange(256) for _ in range(64)))
    if not memory.tree.offchip:
        return AttackResult(
            "tree-node grafting",
            defended=True,
            detail="skipped: tree too small for off-chip nodes",
        )
    keys = sorted(memory.tree.offchip)
    target = keys[0]
    donor = keys[-1]

    def mutate():
        memory.tree.offchip[target] = memory.tree.offchip[donor]

    return _attack(
        memory,
        "tree-node grafting",
        address,
        mutate,
        expected_kinds={"tree"},
    )


def block_relocation(memory: SecureMemory, seed: int = 6) -> AttackResult:
    """Move a valid (ciphertext, MAC) pair to a different address."""
    rng = random.Random(seed)
    source, target = 0, BLOCK_BYTES
    memory.write(source, bytes(rng.randrange(256) for _ in range(64)))
    memory.write(target, bytes(rng.randrange(256) for _ in range(64)))

    def mutate():
        for store in (memory.ciphertexts, memory.lanes):
            store[target // BLOCK_BYTES] = store[source // BLOCK_BYTES]

    return _attack(
        memory,
        "block relocation",
        target,
        mutate,
        expected_kinds={"mac"},
    )


ALL_ATTACKS = (
    ciphertext_tamper,
    ciphertext_and_mac_forgery,
    replay_block,
    counter_manipulation,
    tree_node_grafting,
    block_relocation,
)


def run_all(memory_factory) -> list:
    """Run every scripted attack, each against a *fresh* memory.

    ``memory_factory`` is a zero-argument callable returning a configured
    :class:`SecureMemory`.
    """
    return [attack(memory_factory()) for attack in ALL_ATTACKS]


__all__ = [
    "AttackResult",
    "ciphertext_tamper",
    "ciphertext_and_mac_forgery",
    "replay_block",
    "counter_manipulation",
    "tree_node_grafting",
    "block_relocation",
    "ALL_ATTACKS",
    "run_all",
]
