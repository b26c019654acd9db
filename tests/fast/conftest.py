"""Shared helpers for the batch-engine suites."""

from itertools import groupby


def engine_state(engine):
    """An engine's off-chip state: ciphertexts, lane words (MAC, check
    bits and parity bit), counter storage and the tree root."""
    return (
        dict(engine.ciphertexts),
        dict(engine.lanes),
        dict(engine.counter_storage),
        engine.tree.root_digest(),
    )


def run_ops(memory, ops):
    """Drive ``("write", block, data)`` / ``("read", block)`` ops through
    a ``BatchSecureMemory`` or an ``EngineStack``, one ``write_many``
    call per maximal run of writes; a run of reads is one ``read_many``
    call, or one ``read`` per address on a stack.  Returns the reads'
    results in order."""
    read_many = getattr(memory, "read_many", None) or (
        lambda addresses: map(memory.read, addresses)
    )
    reads = []
    for kind, run in groupby(ops, key=lambda op: op[0]):
        if kind == "write":
            memory.write_many([(op[1] * 64, op[2]) for op in run])
        else:
            reads.extend(read_many([op[1] * 64 for op in run]))
    return reads
