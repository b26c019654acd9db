"""The kernel-pair table: every fast kernel bound to its scalar reference.

A :class:`KernelPair` names one batched kernel and the scalar loop it
claims to be bit-identical to.  :class:`KernelTable` always runs the
batched kernel; its one ``mode`` token says how often the scalar
reference also runs and is compared (:func:`parse_mode`):

* ``fast``       -- never (production),
* ``paranoid``   -- on every call, raising :class:`KernelDivergence` on
  the first mismatch (the acceptance mode: a full figure-8 run in
  paranoid mode must complete with zero divergences),
* ``sampled:N``  -- on 1-in-N calls, on a deterministic schedule.

The table for a given engine is built by :func:`build_kernel_table`,
which binds each pair to that engine's cipher, MAC, counter-scheme
geometry and tree key.  Calls are metered under
``fast.kernel.*`` / ``fast.paranoid.*`` in the active metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.counters.delta import DeltaCounters
from repro.core.engine.tree import node_hash, node_hash_rows, node_hashes
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.mac import CarterWegmanMac
from repro.ecc.hamming import HammingSecDed
from repro.ecc.parity import parity_of_bytes
from repro.fast import ecc_lane
from repro.fast.mac_batch import BatchCarterWegmanMac
from repro.fast import counters_batch
from repro.crypto.prf import splitmix64
from repro.lint.contracts import MAC_BITS
from repro.obs.metrics import get_registry

#: ``tree.hash`` batches below this many rows take the scalar loop: the
#: numpy chain costs ~60-95 us whatever the row count and the scalar
#: loop ~7-10 us a row, so they break even at about 10 rows (DESIGN §10)
TREE_HASH_CROSSOVER = 10


class KernelDivergence(AssertionError):
    """A paranoid-mode cross-check found fast != reference."""

    def __init__(self, kernel: str, detail: str) -> None:
        super().__init__(
            f"kernel {kernel!r}: fast and reference outputs diverge ({detail})"
        )
        self.kernel = kernel


def _default_equal(fast: Any, reference: Any) -> bool:
    if isinstance(fast, np.ndarray) or isinstance(reference, np.ndarray):
        return bool(np.array_equal(np.asarray(fast), np.asarray(reference)))
    return bool(fast == reference)


@dataclass(frozen=True)
class KernelPair:
    """One fast kernel and the scalar reference it must match."""

    name: str
    fast: Callable[..., Any]
    reference: Callable[..., Any]
    equal: Callable[[Any, Any], bool] = field(default=_default_equal)


#: seed of the sampled-paranoid schedule (any fixed value works;
#: determinism is the requirement, not secrecy)
SAMPLE_SEED = 0x0DAC2018


def parse_mode(token: str) -> int:
    """Validate a kernel-mode token; returns its check period.

    ``fast`` -> 0 (no cross-checks), ``paranoid`` -> 1 (every call),
    ``sampled:N`` -> N (one call in N, ``N >= 1``).
    """
    if token == "fast":
        return 0
    if token == "paranoid":
        return 1
    prefix, _, count = token.partition(":")
    if prefix == "sampled" and count.isdigit() and int(count) >= 1:
        return int(count)
    raise ValueError(
        f"unknown kernel mode {token!r} "
        "(choices: fast, paranoid, sampled:N with N >= 1)"
    )


class KernelTable:
    """Registry of kernel pairs, cross-checked as ``mode`` says.

    Every call runs the batched kernel.  With a check period ``N``
    (``paranoid`` is ``N = 1``, ``sampled:N`` any ``N >= 1``), every Nth
    call -- counted across the table, on a schedule whose phase derives
    from :data:`SAMPLE_SEED` -- also runs the scalar reference and
    compares: repeated runs check the same calls, the rate is exactly
    1/N, and a *persistent* kernel corruption is caught within N calls.
    """

    def __init__(self, pairs: Sequence[KernelPair], mode: str = "fast") -> None:
        self.mode = mode
        self._period = parse_mode(mode)
        self._calls_seen = 0
        self._sample_phase = (
            splitmix64(SAMPLE_SEED) % self._period if self._period else 0
        )
        self.pairs: dict[str, KernelPair] = {}
        for pair in pairs:
            if pair.name in self.pairs:
                raise ValueError(f"duplicate kernel pair {pair.name!r}")
            self.pairs[pair.name] = pair
        registry = get_registry()
        inst = registry.instance("kernels")
        self._m_calls = registry.counter("fast.kernel.calls", inst=inst)
        self._m_blocks = registry.counter("fast.kernel.blocks", inst=inst)
        self._m_checks = registry.counter("fast.paranoid.checks", inst=inst)
        self._m_divergence = registry.counter(
            "fast.paranoid.divergence", inst=inst
        )
        self._m_sampled = registry.counter("fast.paranoid.sampled", inst=inst)
        self._m_skipped = registry.counter("fast.paranoid.skipped", inst=inst)

    def run(self, name: str, *args: Any, blocks: int = 1) -> Any:
        """Execute one kernel, cross-checking it when the schedule says."""
        pair = self.pairs[name]
        result = pair.fast(*args)
        self._m_calls.inc()
        self._m_blocks.inc(blocks)
        if not self._period:
            return result
        index = self._calls_seen
        self._calls_seen += 1
        if index % self._period != self._sample_phase:
            self._m_skipped.inc()
            return result
        self._m_sampled.inc()
        reference = pair.reference(*args)
        self._m_checks.inc()
        if not pair.equal(result, reference):
            self._m_divergence.inc()
            raise KernelDivergence(name, f"batch of {blocks} block(s)")
        return result


# -- scalar reference loops -------------------------------------------------


def _reference_ctr_encrypt(
    cipher: CtrModeCipher,
) -> Callable[[np.ndarray, Sequence[int], Sequence[int]], np.ndarray]:
    def encrypt(
        data: np.ndarray, counters: Sequence[int], addresses: Sequence[int]
    ) -> np.ndarray:
        out = [
            cipher.encrypt(bytes(row), counter, address)
            for row, counter, address in zip(
                data, map(int, counters), map(int, addresses)
            )
        ]
        return np.frombuffer(b"".join(out), dtype=np.uint8).reshape(
            len(out), -1
        )

    return encrypt


def _reference_mac_tags(
    mac: CarterWegmanMac,
) -> Callable[[np.ndarray, Sequence[int], Sequence[int]], np.ndarray]:
    def tags(
        messages: np.ndarray,
        addresses: Sequence[int],
        counters: Sequence[int],
    ) -> np.ndarray:
        return np.array(
            [
                mac.tag(bytes(row), address, counter)
                for row, address, counter in zip(
                    messages, map(int, addresses), map(int, counters)
                )
            ],
            dtype=np.uint64,
        )

    return tags


_MAC_HAMMING = HammingSecDed(MAC_BITS)


def _reference_ecc_lane(
    tags: np.ndarray, ciphertexts: np.ndarray
) -> np.ndarray:
    return np.array(
        [
            _MAC_HAMMING.encode(int(tag))
            | parity_of_bytes(bytes(row)) << ecc_lane.PARITY_SHIFT
            for tag, row in zip(tags, ciphertexts)
        ],
        dtype=np.uint8,
    )


def _fast_tree_hash(
    key: int,
) -> Callable[[np.ndarray, int, np.ndarray], np.ndarray]:
    def hashes(rows: np.ndarray, level: int, indices: np.ndarray) -> np.ndarray:
        if len(rows) < TREE_HASH_CROSSOVER:
            return node_hashes(key, rows, level, indices)
        return node_hash_rows(key, rows, level, indices)

    return hashes


def _reference_tree_hash(
    key: int,
) -> Callable[[np.ndarray, int, np.ndarray], np.ndarray]:
    def hashes(rows: np.ndarray, level: int, indices: np.ndarray) -> np.ndarray:
        return np.array(
            [
                node_hash(key, row.tobytes(), level, index)
                for row, index in zip(rows, np.asarray(indices).tolist())
            ],
            dtype=np.uint64,
        )

    return hashes


def build_kernel_table(
    cipher: CtrModeCipher,
    mac: CarterWegmanMac,
    scheme: Any,
    tree_key: int,
    mode: str = "fast",
) -> KernelTable:
    """Bind the full kernel-pair set to one engine's primitives.

    The crypto reference sides are *independent twins* of the production
    primitives (same key, pure-python implementation), so paranoid and
    sampled-paranoid checks on an accelerated backend (numpy batches,
    AES-NI) compare against table AES rather than the code under test.
    """
    batch_mac = BatchCarterWegmanMac(mac)
    pairs = [
        KernelPair(
            name="ctr.encrypt",
            fast=cipher.xor_blocks,
            reference=_reference_ctr_encrypt(cipher.reference_twin()),
        ),
        KernelPair(
            name="mac.tags",
            fast=batch_mac.tags,
            reference=_reference_mac_tags(mac.reference_twin()),
        ),
        KernelPair(
            name="ecc.lane",
            fast=ecc_lane.check_bytes,
            reference=_reference_ecc_lane,
        ),
        KernelPair(
            name="tree.hash",
            fast=_fast_tree_hash(tree_key),
            reference=_reference_tree_hash(tree_key),
        ),
    ]
    if isinstance(scheme, DeltaCounters):
        layout = scheme.layout

        def encode(groups: Sequence[int]) -> list[bytes]:
            return counters_batch.pack(
                layout, [scheme.group_fields(group) for group in groups]
            )

        def encode_reference(groups: Sequence[int]) -> list[bytes]:
            return [scheme.group_metadata(group) for group in groups]

        def decode(datas: Sequence[bytes]) -> np.ndarray:
            references, deltas, _ = counters_batch.unpack(layout, datas)
            deltas += references[:, None]
            return deltas

        def decode_reference(datas: Sequence[bytes]) -> np.ndarray:
            rows = [scheme.decode_metadata(data) for data in datas]
            return np.array(rows, dtype=np.int64).reshape(
                len(rows), layout.slots
            )

        pairs += [
            KernelPair("counters.decode", decode, decode_reference),
            KernelPair("counters.encode", encode, encode_reference),
        ]
    return KernelTable(pairs, mode=mode)


__all__ = [
    "KernelDivergence",
    "KernelPair",
    "KernelTable",
    "SAMPLE_SEED",
    "TREE_HASH_CROSSOVER",
    "build_kernel_table",
    "parse_mode",
]
