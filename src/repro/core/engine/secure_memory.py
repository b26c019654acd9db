"""Functional authenticated-encrypted memory.

This is the full data path of the paper's system, bit-for-bit:

* AES counter-mode encryption per 64-byte block, nonce = (counter,
  physical address),
* per-block 56-bit Carter-Wegman MACs bound to the counter (Bonsai
  requirement), stored either in a separate metadata region (baseline) or
  inside the ECC bits with 7-bit Hamming + 1 parity (the paper's scheme),
* counters held in one of the four interchangeable representations,
  *read back from their serialized storage* (never from trusted in-object
  state) so counter tampering corrupts decryption exactly as in hardware,
* a Bonsai Merkle tree over the counter storage; leaf verification on
  every read, leaf update on every write,
* fault injection (bit flips in data or ECC bits) and attacker operations
  (rollback/replay, arbitrary overwrites, tree-node corruption) for the
  security and Figure 3 experiments,
* flip-and-check error correction on MAC-in-ECC configurations.

The class keeps everything addressable by *byte address* of the block
(block-aligned), mirroring how the engine sits on the memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.core.counters.events import CounterEvent
from repro.core.ecc_mac.correction import (
    CorrectionResult,
    FlipAndCheckCorrector,
)
from repro.core.ecc_mac.detection import CheckOutcome, check_block
from repro.core.ecc_mac.layout import (
    ECC_FIELD_BITS,
    EccField,
    MacEccCodec,
)
from repro.core.engine.config import EngineConfig
from repro.core.engine.tree import BonsaiMerkleTree
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.mac import CarterWegmanMac
from repro.obs.metrics import (
    MetricRegistry,
    RegistryView,
    get_registry,
    use_registry,
)
from repro.obs.probe import ProbePoint
from repro.obs.trace import get_tracer
from repro.persist.config import DurabilityConfig
from repro.persist.journal import DataImage
from repro.persist.manager import PersistenceManager, SnapshotState

# One cache line per ciphertext block -- a layout contract, shared with
# the RL001 checker via the contract table.
from repro.lint.contracts import BLOCK_BYTES


class IntegrityError(Exception):
    """Raised when a read cannot be authenticated.

    ``kind`` distinguishes what tripped:

    * ``"tree"`` -- counter-storage verification failed (tamper/replay of
      counters or tree nodes),
    * ``"mac"`` -- the data MAC failed and no small error explains it
      (data tamper, or an uncorrectable fault),
    * ``"mac_bits"`` -- the stored MAC itself had an uncorrectable
      multi-bit fault.

    ``outcome`` carries the :class:`CheckOutcome` that tripped (``None``
    for tree failures, which happen before the block check), and
    ``correction`` the full flip-and-check statistics when correction was
    attempted -- so recovery policies and tests can tell *why* a read
    failed without re-deriving it.
    """

    def __init__(
        self,
        kind: str,
        address: int,
        message: str,
        *,
        outcome: CheckOutcome | None = None,
        correction: CorrectionResult | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.address = address
        self.outcome = outcome
        #: CorrectionResult when flip-and-check ran (and failed), else None
        self.correction = correction


@dataclass(frozen=True)
class ReadResult:
    """A successful authenticated read."""

    data: bytes
    outcome: CheckOutcome
    corrected_bits: tuple[int, ...] = ()  # data bits fixed by flip-and-check
    correction_checks: int = 0

    @property
    def clean(self) -> bool:
        return self.outcome is CheckOutcome.CLEAN and not self.corrected_bits

    @classmethod
    def clean_many(cls, datas: Iterable[bytes]) -> list[ReadResult]:
        """One clean result per block of ``datas`` (the batch read path's
        constructor): equal to ``ReadResult(data, CheckOutcome.CLEAN)``,
        with the fields set as the frozen ``__init__`` sets them, by
        ``object.__setattr__``, minus the per-call overhead."""
        new = object.__new__
        assign = object.__setattr__
        clean = CheckOutcome.CLEAN
        results = []
        for data in datas:
            result = new(cls)
            assign(result, "data", data)
            assign(result, "outcome", clean)
            assign(result, "corrected_bits", ())
            assign(result, "correction_checks", 0)
            results.append(result)
        return results


class EngineCounters(RegistryView):
    """Operation counters for reporting.

    Since the observability subsystem this is a thin view over shared
    registry counters (``engine.read.total`` etc.): same attribute
    names as the old dataclass, but the storage is the unified metrics
    plane, so ``memory.counters.corrections`` and
    ``registry.total("engine.read.correction")`` agree by construction.
    """

    _VIEW_FIELDS = {
        "reads": "engine.read.total",
        "writes": "engine.write.total",
        "group_reencryptions": "engine.write.group_reencrypt",
        "corrections": "engine.read.correction",
        "mac_self_corrections": "engine.read.mac_self_correction",
    }


class SecureMemory:
    """Authenticated, encrypted, optionally error-correcting memory."""

    def __init__(
        self,
        config: EngineConfig,
        key: bytes,
        registry: MetricRegistry | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        if len(key) < 48:
            raise ValueError(
                "key material must be at least 48 bytes "
                "(16 data-encryption + 24 MAC + 8 tree)"
            )
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self.config = config
        # Built under this registry so the scheme's ``counters.*`` stats
        # land in the same plane as the engine's own metrics.
        with use_registry(registry):
            self.scheme = config.build_scheme()
        self._cipher = CtrModeCipher(key[:16], mode=config.keystream_mode)
        self._mac = CarterWegmanMac(key[16:40], mode=config.keystream_mode)
        self._codec = MacEccCodec(self._mac)
        self._corrector = FlipAndCheckCorrector(self._mac)
        tree_key = int.from_bytes(key[40:48], "little")
        #: counter storage as the attacker sees it: group -> serialized bytes
        self.counter_storage: dict[int, bytes] = {}
        self._initial_metadata = self.scheme.group_metadata(0)
        self.tree = BonsaiMerkleTree(
            num_leaves=self.scheme.num_groups,
            key=tree_key,
            arity=config.tree_arity,
            onchip_bytes=config.onchip_tree_bytes,
            initial_leaf=self._initial_metadata,
        )
        #: off-chip data: block index -> ciphertext bytes
        self.ciphertexts: dict[int, bytes] = {}
        #: off-chip MAC state: block index -> the 64-bit word its lane
        #: holds, read in the same burst as the data.  With MAC-in-ECC
        #: that is the Figure 2 ECC word (``EccField.word``: 56-bit MAC,
        #: 7 Hamming bits, 1 parity bit); otherwise the bare 56-bit tag
        #: from the separate MAC region.
        self.lanes: dict[int, int] = {}
        # Observability: all counters live in the (run- or process-wide)
        # metrics registry; lookups are resolved once, here, so the
        # read/write hot paths touch only pre-bound objects.
        inst = registry.instance("engine")
        self.counters = EngineCounters(registry=registry, labels={"inst": inst})
        self._m_mac_checks = registry.counter("engine.read.mac_check", inst=inst)
        self._m_tree_fails = registry.counter("engine.read.tree_fail", inst=inst)
        self._m_mac_fails = registry.counter("engine.read.mac_fail", inst=inst)
        self._probe_read = ProbePoint("engine.read", registry=registry)
        self._probe_write = ProbePoint("engine.write", registry=registry)
        self._probe_reencrypt = ProbePoint("engine.reencrypt", registry=registry)
        #: optional in-flight fault hook for resilience harnesses: called
        #: on every read with ``(address, ciphertext, ecc_field)`` and
        #: returns the (possibly perturbed) pair the controller *receives*
        #: -- storage itself is untouched, so a re-read goes through the
        #: hook again (transient faults clear, stuck-at faults re-assert).
        self.read_perturb: (
            Callable[
                [int, bytes, EccField | None],
                tuple[bytes, EccField | None],
            ]
            | None
        ) = None
        #: write-ahead persistence (None = volatile engine, the default)
        self.persist: PersistenceManager | None = None
        #: optional resilience-plane state provider folded into durable
        #: snapshots (installed by ResilientMemory when durability is on)
        self.resilience_state: Callable[[], dict[str, Any]] | None = None
        if durability is not None:
            self.attach_persistence(
                PersistenceManager(durability, registry=registry)
            )

    # -- durability ----------------------------------------------------------

    def attach_persistence(
        self, manager: PersistenceManager, bootstrap: bool = True
    ) -> None:
        """Wire a persistence manager to this engine.

        Binds the durable-state snapshot provider and (unless resuming on
        a recovered store) seals the epoch-0 checkpoint so recovery always
        has a redo base.
        """
        manager.bind(self._durable_snapshot)
        self.persist = manager
        if bootstrap:
            manager.bootstrap()

    def _durable_snapshot(self) -> SnapshotState:
        """Everything a checkpoint must capture to rebuild this engine."""
        return {
            "data": {
                block: DataImage(ciphertext, self.lanes.get(block))
                for block, ciphertext in self.ciphertexts.items()
            },
            "meta": dict(self.counter_storage),
            "root": self.tree.root_digest(),
            "scheme_epoch": getattr(self.scheme, "epoch", 0),
            "resilience": (
                self.resilience_state()
                if self.resilience_state is not None
                else {}
            ),
        }

    def restore_block_image(self, block: int, image: DataImage) -> None:
        """Recovery redo: reinstall one durable data-block image."""
        self.ciphertexts[block] = image.ciphertext
        if image.lane is not None:
            self.lanes[block] = image.lane

    def restore_group_metadata(self, group: int, metadata: bytes) -> None:
        """Recovery redo: reinstall one group's serialized counters.

        Feeds the scheme (so in-object state matches storage), the
        counter storage, and the tree leaf -- after replaying every
        group the rebuilt root must equal the journaled digest.
        """
        self.scheme.restore_group_metadata(group, metadata)
        self.counter_storage[group] = metadata
        self.tree.update_leaf(group, metadata)

    def restore_scheme_epoch(self, scheme_epoch: int) -> None:
        """Recovery redo: reinstall the global re-encryption epoch."""
        if hasattr(self.scheme, "epoch"):
            self.scheme.epoch = scheme_epoch

    # -- helpers -------------------------------------------------------------

    @property
    def codec(self) -> MacEccCodec:
        """The MAC/ECC codec (for scrubbers and fault harnesses)."""
        return self._codec

    @property
    def cipher(self) -> CtrModeCipher:
        """The block cipher (for the batch-kernel façade)."""
        return self._cipher

    @property
    def mac(self) -> CarterWegmanMac:
        """The MAC (for the batch-kernel façade)."""
        return self._mac

    def _block_index(self, address: int) -> int:
        if address % BLOCK_BYTES:
            raise ValueError("addresses must be 64-byte aligned")
        block = address // BLOCK_BYTES
        if not 0 <= block < self.scheme.total_blocks:
            raise ValueError(f"address {address:#x} outside protected region")
        return block

    def _stored_metadata(self, group: int) -> bytes:
        return self.counter_storage.get(group, self._initial_metadata)

    def _stored_ciphertext(self, block: int) -> bytes:
        if block in self.ciphertexts:
            return self.ciphertexts[block]
        # Untouched blocks hold the encryption of all-zeros under the
        # nonce of counter 0.
        zero = b"\x00" * BLOCK_BYTES
        address = block * BLOCK_BYTES
        nonce = self.scheme.nonce(0)
        ciphertext = self._cipher.encrypt(zero, nonce, address)
        self._store_block(block, ciphertext, nonce)
        return ciphertext

    def _lane_word(self, ciphertext: bytes, address: int, nonce: int) -> int:
        """The word a block's lane holds for ``ciphertext`` under ``nonce``."""
        if self.config.mac_in_ecc:
            return self._codec.build(ciphertext, address, nonce).word
        return self._mac.tag(ciphertext, address, nonce)

    def _stored_field(self, block: int) -> EccField | None:
        """The decoded view of a block's stored ECC word, if any."""
        word = self.lanes.get(block)
        return EccField.from_word(word) if word is not None else None

    def _store_block(self, block: int, ciphertext: bytes, nonce: int) -> None:
        word = self._lane_word(ciphertext, block * BLOCK_BYTES, nonce)
        self.ciphertexts[block] = ciphertext
        self.lanes[block] = word
        if self.persist is not None and self.persist.in_txn:
            self.persist.record_data(block, DataImage(ciphertext, word))

    def _commit_metadata(self, group: int) -> None:
        metadata = self.scheme.group_metadata(group)
        self.counter_storage[group] = metadata
        self.tree.update_leaf(group, metadata)
        if self.persist is not None and self.persist.in_txn:
            self.persist.record_meta(group, metadata)

    # -- public API -------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Encrypt and store one 64-byte block.

        With persistence attached, the whole write -- including any
        overflow-triggered group or global re-encryption -- is one
        journal transaction: every stored block image and every touched
        group's metadata land in a single sealed record, so recovery
        replays it atomically or not at all.
        """
        if len(data) != BLOCK_BYTES:
            raise ValueError(f"data must be {BLOCK_BYTES} bytes")
        if self.persist is not None:
            self.persist.begin_txn()
        try:
            global_reencrypt = self._write_inner(address, data)
        except BaseException:
            if self.persist is not None:
                self.persist.abort_txn()
            raise
        if self.persist is not None:
            force = (
                global_reencrypt
                and self.persist.config.checkpoint_on_global_reencrypt
            )
            self.persist.commit_txn(
                root=self.tree.root_digest(),
                scheme_epoch=getattr(self.scheme, "epoch", 0),
                force_checkpoint=force,
            )

    def _write_inner(self, address: int, data: bytes) -> bool:
        """The write data path; returns True on a global re-encryption."""
        global_reencrypt = False
        with self._probe_write:
            block = self._block_index(address)
            outcome = self.scheme.on_write(block)
            self.counters.writes += 1
            if outcome.has(CounterEvent.GLOBAL_RE_ENCRYPT):
                global_reencrypt = True
                self._trace_reencrypt("engine.global_reencrypt", address)
                with self._probe_reencrypt:
                    self._global_reencrypt(skip_block=block)
            elif outcome.reencrypted_group is not None:
                self._trace_reencrypt(
                    "engine.group_reencrypt",
                    address,
                    group=outcome.reencrypted_group,
                )
                with self._probe_reencrypt:
                    self._reencrypt_group(
                        outcome.reencrypted_group,
                        outcome.group_counter,
                        skip_block=block,
                    )
                self.counters.group_reencryptions += 1
            nonce = self.scheme.nonce(outcome.counter)
            ciphertext = self._cipher.encrypt(data, nonce, address)
            self._store_block(block, ciphertext, nonce)
            self._commit_metadata(self.scheme.group_of(block))
        return global_reencrypt

    @staticmethod
    def _trace_reencrypt(name: str, address: int, **args: Any) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(name, cat="engine", address=address, **args)

    def _reencrypt_group(
        self, group: int, group_counter: int, skip_block: int
    ) -> None:
        """Decrypt every block of the group under its old counter and
        re-encrypt under the shared fresh counter (Figure 5a).

        Each block's MAC is verified against its old counter *before*
        re-encryption: otherwise an overflow-triggered re-encryption
        would launder tampered ciphertext into freshly-MACed garbage.
        (The paper leaves the re-encryption engine's checks implicit;
        SGX-class hardware verifies on every read, including these.)
        """
        old_counters = self.scheme.decode_metadata(self._stored_metadata(group))
        for slot, blk in enumerate(self.scheme.blocks_in_group(group)):
            if blk == skip_block:
                continue  # about to be overwritten with new data anyway
            address = blk * BLOCK_BYTES
            old_nonce = self.scheme.nonce(old_counters[slot])
            ciphertext = self._verify_for_reencryption(
                blk, address, self._stored_ciphertext(blk), old_nonce
            )
            plaintext = self._cipher.decrypt(ciphertext, old_nonce, address)
            new_nonce = self.scheme.nonce(group_counter)
            ciphertext = self._cipher.encrypt(plaintext, new_nonce, address)
            self._store_block(blk, ciphertext, new_nonce)

    def _verify_for_reencryption(
        self, block: int, address: int, ciphertext: bytes, nonce: int
    ) -> bytes:
        """Integrity check on the re-encryption path.

        Benign <=2-bit faults are corrected exactly as on demand reads
        (MAC-in-ECC configurations); anything else raises.  Returns the
        authenticated (possibly healed) ciphertext to re-encrypt.
        """
        if self.config.mac_in_ecc:
            ecc = self._stored_field(block)
            result = check_block(self._codec, ciphertext, ecc, address, nonce)
            if result.outcome is CheckOutcome.MAC_UNCORRECTABLE:
                raise IntegrityError(
                    "mac_bits",
                    address,
                    "stored MAC uncorrectable during group re-encryption",
                    outcome=result.outcome,
                )
            if result.ok:
                return ciphertext
            correction = self._corrector.correct(
                ciphertext, address, nonce, result.recovered_mac
            )
            if not correction.corrected:
                raise IntegrityError(
                    "mac",
                    address,
                    "block failed integrity check during group "
                    "re-encryption",
                    outcome=result.outcome,
                    correction=correction,
                )
            self.counters.corrections += 1
            return correction.data
        if self._mac.tag(ciphertext, address, nonce) != self.lanes.get(block):
            raise IntegrityError(
                "mac",
                address,
                "block failed integrity check during group re-encryption",
                outcome=CheckOutcome.DATA_MISMATCH,
            )
        return ciphertext

    def _global_reencrypt(self, skip_block: int) -> None:
        """Handle a monolithic counter wrap: re-encrypt *everything*
        from the previous epoch's nonces to counter 0 of the new epoch.

        Old counters come from the still-uncommitted serialized storage;
        every block is integrity-verified before re-encryption, as on
        the group path.
        """
        old_epoch = self.scheme.epoch - 1
        decoded_cache: dict[int, list[int]] = {}
        for blk in sorted(self.ciphertexts):
            if blk == skip_block:
                continue
            group = self.scheme.group_of(blk)
            if group not in decoded_cache:
                decoded_cache[group] = self.scheme.decode_metadata(
                    self._stored_metadata(group)
                )
            old_counter = decoded_cache[group][self.scheme.slot_of(blk)]
            old_nonce = self.scheme.nonce(old_counter, epoch=old_epoch)
            address = blk * BLOCK_BYTES
            ciphertext = self._verify_for_reencryption(
                blk, address, self.ciphertexts[blk], old_nonce
            )
            plaintext = self._cipher.decrypt(ciphertext, old_nonce, address)
            new_nonce = self.scheme.nonce(0)  # counter 0, new epoch
            self._store_block(
                blk, self._cipher.encrypt(plaintext, new_nonce, address),
                new_nonce,
            )
        for group in range(self.scheme.num_groups):
            self._commit_metadata(group)

    def read(self, address: int, *, correct: bool = True) -> ReadResult:
        """Authenticate and decrypt one block.

        Raises :class:`IntegrityError` on tamper/replay or uncorrectable
        faults; transparently corrects <=2-bit faults on MAC-in-ECC
        configurations (writing the corrected ciphertext back, as a
        demand-scrub would).

        ``correct=False`` runs the detection flow only: a data-MAC
        mismatch raises immediately instead of entering flip-and-check.
        Recovery policies use this to try cheap re-reads (which clear
        in-flight transients) before paying for correction.
        """
        with self._probe_read:
            block = self._block_index(address)
            self.counters.reads += 1
            group = self.scheme.group_of(block)
            metadata = self._stored_metadata(group)
            if not self.tree.verify_leaf(group, metadata):
                self._m_tree_fails.inc()
                raise IntegrityError(
                    "tree", address, "counter storage failed tree verification"
                )
            counter = self.scheme.decode_metadata(metadata)[
                self.scheme.slot_of(block)
            ]
            nonce = self.scheme.nonce(counter)
            ciphertext = self._stored_ciphertext(block)
            ecc = self._stored_field(block) if self.config.mac_in_ecc else None
            if self.read_perturb is not None:
                ciphertext, ecc = self.read_perturb(address, ciphertext, ecc)

            if self.config.mac_in_ecc:
                return self._read_with_ecc(
                    block, address, ciphertext, nonce, ecc, correct=correct
                )
            self._m_mac_checks.inc()
            if self._mac.tag(ciphertext, address, nonce) != self.lanes.get(block):
                self._m_mac_fails.inc()
                raise IntegrityError(
                    "mac",
                    address,
                    "MAC mismatch on separate-MAC configuration",
                    outcome=CheckOutcome.DATA_MISMATCH,
                )
            return ReadResult(
                data=self._cipher.decrypt(ciphertext, nonce, address),
                outcome=CheckOutcome.CLEAN,
            )

    def _read_with_ecc(
        self,
        block: int,
        address: int,
        ciphertext: bytes,
        nonce: int,
        ecc: EccField | None,
        correct: bool = True,
    ) -> ReadResult:
        self._m_mac_checks.inc()
        result = check_block(self._codec, ciphertext, ecc, address, nonce)
        if result.outcome is CheckOutcome.MAC_UNCORRECTABLE:
            self._m_mac_fails.inc()
            raise IntegrityError(
                "mac_bits",
                address,
                "stored MAC bits uncorrectable",
                outcome=result.outcome,
            )
        if result.ok:
            if result.outcome is CheckOutcome.MAC_CORRECTED:
                self.counters.mac_self_corrections += 1
                # Write the healed field back (demand scrub).
                self.lanes[block] = self._lane_word(ciphertext, address, nonce)
            return ReadResult(
                data=self._cipher.decrypt(ciphertext, nonce, address),
                outcome=result.outcome,
            )
        if not correct:
            self._m_mac_fails.inc()
            raise IntegrityError(
                "mac",
                address,
                "MAC mismatch on detection-only read",
                outcome=result.outcome,
            )
        # Data MAC mismatch: attempt flip-and-check before declaring tamper.
        correction = self._corrector.correct(
            ciphertext, address, nonce, result.recovered_mac
        )
        if not correction.corrected:
            self._m_mac_fails.inc()
            raise IntegrityError(
                "mac",
                address,
                "MAC mismatch not explained by <=2 bit flips: tampering",
                outcome=result.outcome,
                correction=correction,
            )
        self.counters.corrections += 1
        self.ciphertexts[block] = correction.data
        self.lanes[block] = self._lane_word(correction.data, address, nonce)
        return ReadResult(
            data=self._cipher.decrypt(correction.data, nonce, address),
            outcome=CheckOutcome.DATA_MISMATCH,
            corrected_bits=correction.flipped_bits,
            correction_checks=correction.checks,
        )

    # -- fault injection / attacker operations -------------------------------------

    def flip_data_bits(self, address: int, positions: Iterable[int]) -> None:
        """Inject DRAM faults: flip ciphertext bits (0..511)."""
        block = self._block_index(address)
        data = bytearray(self._stored_ciphertext(block))
        for position in positions:
            if not 0 <= position < BLOCK_BYTES * 8:
                raise ValueError("bit position out of range")
            data[position >> 3] ^= 1 << (position & 7)
        self.ciphertexts[block] = bytes(data)

    def flip_ecc_bits(self, address: int, positions: Iterable[int]) -> None:
        """Inject faults into the stored 64 ECC bits (MAC-in-ECC only)."""
        if not self.config.mac_in_ecc:
            raise ValueError("configuration stores no ECC field")
        block = self._block_index(address)
        self._stored_ciphertext(block)  # ensure initialized
        flips = 0
        for position in positions:
            if not 0 <= position < ECC_FIELD_BITS:
                raise ValueError("position must be within the 64-bit field")
            flips ^= 1 << position
        self.lanes[block] ^= flips

    def snapshot_block(self, address: int) -> dict[str, Any]:
        """Attacker records everything off-chip about a block (for replay)."""
        block = self._block_index(address)
        group = self.scheme.group_of(block)
        return {
            "ciphertext": self._stored_ciphertext(block),
            "lane": self.lanes.get(block),
            "metadata": self._stored_metadata(group),
        }

    def rollback_block(self, address: int, snapshot: dict[str, Any]) -> None:
        """Attacker restores data + MAC + counter storage to an old,
        mutually consistent state.  The tree (whose top lives on-chip)
        cannot be rolled back, so the next read must detect this."""
        block = self._block_index(address)
        group = self.scheme.group_of(block)
        self.ciphertexts[block] = snapshot["ciphertext"]
        if snapshot["lane"] is not None:
            self.lanes[block] = snapshot["lane"]
        self.counter_storage[group] = snapshot["metadata"]

    def corrupt_counter_storage(self, group: int, data: bytes) -> None:
        """Attacker overwrites a counter metadata block."""
        self.counter_storage[group] = data

    def corrupt_tree_node(self, level: int, index: int, data: bytes) -> None:
        """Attacker overwrites an off-chip interior tree node."""
        if (level, index) not in self.tree.offchip:
            raise KeyError(f"no off-chip node at level {level}, index {index}")
        self.tree.offchip[(level, index)] = data

    def scrub_iter(self) -> Iterator[tuple[int, bytes, EccField]]:
        """Yield (address, ciphertext, EccField) for the scrubber."""
        if not self.config.mac_in_ecc:
            raise ValueError("scrubbing needs the MAC-in-ECC layout")
        for block in sorted(self.ciphertexts):
            yield (
                block * BLOCK_BYTES,
                self.ciphertexts[block],
                EccField.from_word(self.lanes[block]),
            )


__all__ = ["SecureMemory", "ReadResult", "IntegrityError", "EngineCounters"]
