"""One ground-truth shadow for every correctness harness.

The fault campaign, the crash matrix, the crash x fault torture and the
service's loadgen/chaos campaigns all check *no silent data corruption,
no replay* against one :class:`ShadowOracle` and its transitions:

* ``ack(writes)`` pins each address to its value, clearing candidates;
* ``refuse_ambiguous(writes)`` (a refusal that may still have reached
  the engine) and ``crash(stack, inflight)`` (a power cut with writes in
  flight) let each address read as its pinned value *or* the new one;
* ``check(address, seen)`` is :data:`OK`, :data:`AMBIGUOUS_OK` (a legal
  candidate), :data:`SDC` (a third value) or :data:`SKIPPED`;
* ``verify(observed)`` sweeps every tracked address.

A never-acknowledged address reads as ``unacked``: the zero block for
the engine harnesses, unknown (``None``, so skipped) through the
service.  The engine harnesses also :meth:`~ShadowOracle.pin` the
anti-replay counter floor and the journaled quarantine mapping at every
acknowledgement, and check a recovered stack against both.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

from repro.lint.contracts import BLOCK_BYTES

ZERO_BLOCK = b"\x00" * BLOCK_BYTES

OK = "ok"
AMBIGUOUS_OK = "ambiguous_ok"
SDC = "sdc"
SKIPPED = "skipped"


def mapping_snapshot(stack) -> dict[str, Any] | None:
    """The immediately-journaled slice of a stack's quarantine state.

    The health history is checkpoint-cadence state and may legitimately
    lag, so it is left out.  ``None`` when the stack has no resilience
    layer.
    """
    if stack.resilient is None:
        return None
    state = stack.resilient.quarantine.state_dict()
    return {
        key: state[key] for key in ("map", "retired", "free_spares", "degraded")
    }


class ShadowOracle:
    """Acked values, ambiguity candidates, counter floor, sealed mappings."""

    def __init__(self, unacked: bytes | None = None) -> None:
        #: what a never-acknowledged address reads as (None: unknown)
        self.unacked = unacked
        #: address -> last acknowledged value
        self.acked: dict[int, bytes] = {}
        #: address -> every value a read may legally return
        self.candidates: dict[int, set[bytes | None]] = {}
        #: counter storage and scheme epoch at the last acknowledgement
        self.floor_meta: dict[int, bytes] = {}
        self.floor_epoch = 0
        #: quarantine mapping at the last acknowledgement / at the crash
        self.mapping: dict[str, Any] | None = None
        self.crash_mapping: dict[str, Any] | None = None
        #: every physical block retired at any acknowledgement
        self.retired_ever: set[int] = set()

    # -- value transitions ---------------------------------------------------

    def expected(self, address: int) -> bytes | None:
        return self.acked.get(address, self.unacked)

    def ack(self, writes: Iterable[tuple[int, bytes]]) -> None:
        for address, data in dict(writes).items():
            self.acked[address] = data
            self.candidates.pop(address, None)

    def refuse_ambiguous(self, writes: Iterable[tuple[int, bytes]]) -> None:
        """Each address now reads as its pinned value or the attempted one
        (the final one, when a batch writes an address twice)."""
        for address, attempted in dict(writes).items():
            self.candidates.setdefault(
                address, {self.expected(address)}
            ).add(attempted)

    def crash(self, stack, inflight: Iterable[tuple[int, bytes]] = ()) -> None:
        """Power cut: in-flight writes may land or vanish."""
        self.refuse_ambiguous(inflight)
        self.crash_mapping = mapping_snapshot(stack)

    # -- verdicts ------------------------------------------------------------

    def known(self, address: int) -> bool:
        """Whether there is ground truth to hold ``address`` to."""
        return address in self.acked or self.unacked is not None

    def tracked(self) -> list[int]:
        return sorted(self.acked.keys() | self.candidates.keys())

    def sweep(self) -> list[int]:
        """The tracked addresses a final sweep must read back."""
        return [address for address in self.tracked() if self.known(address)]

    def check(self, address: int, seen: bytes | None) -> str:
        if not self.known(address):
            return SKIPPED
        candidates = self.candidates.get(address)
        if candidates is None:
            return OK if seen == self.expected(address) else SDC
        return AMBIGUOUS_OK if seen in candidates else SDC

    def verify(self, observed: Mapping[int, bytes | None]) -> Counter:
        """One verdict per tracked address; ``observed`` holds what each
        :meth:`sweep` address read back as (None: unreadable)."""
        return Counter(
            self.check(address, observed.get(address))
            for address in self.tracked()
        )

    # -- durable side channels (engine harnesses) ----------------------------

    def pin(self, stack) -> None:
        """Pin the counter floor and the quarantine mapping at an ack."""
        engine = stack.engine
        self.floor_meta = dict(engine.counter_storage)
        self.floor_epoch = getattr(engine.scheme, "epoch", 0)
        self.mapping = mapping_snapshot(stack)
        if self.mapping is not None:
            self.retired_ever.update(int(k) for k in self.mapping["retired"])

    def recovery_violations(self, stack) -> list[str]:
        """Counter regressions and quarantine divergence after recovery."""
        bad: list[str] = []
        engine = stack.engine
        scheme = engine.scheme
        if getattr(scheme, "epoch", 0) == self.floor_epoch:
            for group, metadata in sorted(self.floor_meta.items()):
                floor = scheme.decode_metadata(metadata)
                stored = engine.counter_storage.get(group)
                now = (
                    scheme.decode_metadata(stored)
                    if stored is not None
                    else floor
                )
                for slot, (lo, cur) in enumerate(zip(floor, now)):
                    if cur < lo:
                        bad.append(
                            f"counter regression in group {group} slot "
                            f"{slot} (recovered {cur} < acked {lo})"
                        )
        if stack.resilient is None:
            return bad
        # Retire/degrade records seal immediately: the recovered mapping
        # is the last acknowledged one, or the crash-time one when the
        # crash interrupted a read after its retirement record sealed.
        sealed = [self.mapping]
        if self.crash_mapping is not None:
            sealed.append(self.crash_mapping)
        if mapping_snapshot(stack) not in sealed:
            bad.append("quarantine mapping diverged from every sealed state")
        quarantine = stack.resilient.quarantine
        for physical in sorted(self.retired_ever):
            if not quarantine.is_retired(physical):
                bad.append(
                    f"retired physical block {physical} resurrected by "
                    f"recovery"
                )
        return bad


__all__ = [
    "AMBIGUOUS_OK",
    "OK",
    "SDC",
    "SKIPPED",
    "ShadowOracle",
    "ZERO_BLOCK",
    "mapping_snapshot",
]
