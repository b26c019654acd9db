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


def run_ops(batch, ops):
    """Drive ``("write", block, data)`` / ``("read", block)`` ops through
    a ``BatchSecureMemory``, one ``write_many``/``read_many`` call per
    maximal same-op run; returns the reads' results in order."""
    reads = []
    for kind, run in groupby(ops, key=lambda op: op[0]):
        if kind == "write":
            batch.write_many([(op[1] * 64, op[2]) for op in run])
        else:
            reads.extend(batch.read_many([op[1] * 64 for op in run]))
    return reads
