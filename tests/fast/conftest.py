"""Shared helpers for the batch-engine suites."""


def engine_state(engine):
    """An engine's off-chip state: ciphertexts, lane words (MAC, check
    bits and parity bit), counter storage and the tree root."""
    return (
        dict(engine.ciphertexts),
        dict(engine.lanes),
        dict(engine.counter_storage),
        engine.tree.root_digest(),
    )
