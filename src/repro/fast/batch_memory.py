"""Batched façade over :class:`SecureMemory` with scalar-equivalent state.

``BatchSecureMemory`` runs each ``write_many``/``read_many`` call, and
the writes ``queue_write`` defers until ``flush``, as one run through
the batch kernels.  The contract is *state equivalence*: after a run,
the underlying engine's externally observable state -- ciphertexts, lane
words, serialized counter storage, tree leaves and root,
scheme state, and every ``engine.*`` / ``counters.*`` metric -- is
bit-identical to what the scalar ``engine.write`` / ``engine.read`` loop
would have produced for the same operation sequence.  The equivalence
test suite asserts exactly that.

How the write path keeps the scalar semantics while batching:

* counters advance in order (counter state machines are inherently
  sequential), a run at a time: one ``scheme.on_writes`` call advances
  a plain segment -- every write up to the first for which
  ``scheme.may_overflow`` is True -- and records its statistics as
  bulk counts; that one write takes the exact per-block
  ``scheme.on_write`` path below, and the next segment starts after
  it.  A segment's blocks, counters and data join parallel pending
  columns and its groups are marked stale and dirty in bulk; the
  expensive keystream, MAC and ECC-lane work is deferred into per-run
  batches, with one ``scheme.nonce`` call for their nonces and their
  lane words (MAC, check bits and parity in one uint64 per block) built
  as one array;
* the groups touched by the run are serialized when the run commits,
  all of them in one multi-group ``counters.encode`` call.  Until then
  their ``counter_storage`` lags the scheme.  The only reader that can
  see the lag is the overflow re-encryption path, which decodes old
  counters from storage, so when ``scheme.may_overflow`` says the next
  ``on_write`` can reach it, the written block's own group is
  serialized early if it lags (a monolithic wrap reads every group, so
  schemes with an ``epoch`` serialize all lagging groups, in one call)
  -- leaving in storage what the scalar engine's per-write metadata
  commits would have left there.  A run without such a write encodes
  each dirty group once;
* an overflow re-encryption (a group, or a monolithic wrap of every
  stored block) flushes the pending batch, then checks every block
  under its old counter with the read path's clean test and, if all
  are clean, decrypts them in one ``ctr.encrypt`` and re-encrypts, tags
  and stores them as one pending batch; a group with any block that is
  not clean goes, before anything is mutated, to the engine's own
  scalar handler (metered as ``fast.fallback.scalar``), so
  corrections and raises stay scalar;
* Merkle-tree leaf updates are deferred to the commit, which installs
  every dirty group's leaf in one ``update_leaves`` walk: each touched
  ancestor is patched and hashed once, one ``tree.hash`` kernel call
  per level (intermediate leaf states are unobservable -- no read can
  happen inside a write run).

A call is validated before anything runs -- one array test over its
addresses, the per-address checks (``queue_write``'s, or
``engine._block_index``'s for reads) only when it fails -- so a bad call
raises their exact ``ValueError`` with nothing queued, stored or read,
and both paths compute blocks, groups, slots and nonces arithmetically.
``read_many`` hands its call straight to the read path, which
classifies a run with arrays and visits only its anomalies one by one:

* the touched groups (distinct, in first-touch order) are verified in
  one ``verify_leaves`` walk and those that verified decoded in one
  ``counters.decode`` call into a ``(groups, slots)`` matrix, from
  which one fancy index gathers every block's counter;
* the stored state the clean test reads -- ciphertexts, stored MACs,
  Hamming check bits -- is gathered once per run by the helper the
  batched re-encryption shares, with a per-block presence mask built
  only when a whole-run key test fails;
* a block whose group verified, whose ciphertext and MAC state are
  stored, read without a perturb hook, is a candidate; the candidates
  are checked in one batch (clean exactly when the stored MAC is the
  tag of the stored ciphertext and the stored check bits equal the
  ``ecc.lane`` encoding of the stored MAC) and the clean ones
  decrypted in one ``ctr.encrypt``;
* in call order, each stretch of clean reads is emitted by
  ``ReadResult.clean_many`` and counted in one ``engine.read.total``
  and one ``engine.read.mac_check`` bump; then the anomaly that ends it
  raises (a tree failure) or falls back to the scalar ``engine.read``
  (lazy initialization, Hamming status not clean, MAC mismatch, perturb
  hook installed), so corrections, heal-writebacks, metrics and raised
  ``IntegrityError``\\ s are exactly the scalar ones.

Engines with persistence attached get **group commit**: each flushed
write run becomes *one* journal transaction -- ``begin_txn`` before
the first counter advances, every stored block image and every touched
group's metadata mirrored into it (including what a re-encryption
stores, batched or scalar, which journals inside the same open
transaction), and a
single ``commit_txn(..., writes=N)`` whose seal acknowledges the whole
batch.  The write-ahead invariants are unchanged -- the record is the
same physical-redo shape the scalar path seals per write, just N writes
wide -- so recovery replays it with no new code, and a torn group-commit
frame discards the *entire* batch: a flush lands atomically or not at
all.  Reads never run inside a flush transaction (read-path corrections
stay volatile heals, exactly as on the scalar path).

``bench/tracing.py`` hooks ``write_many``, ``read_many`` and ``flush``
(naming a flush span by ``_queue[0][0]``) and the stages
``_run_writes``, ``_flush_pending`` and ``_flush_reads``, so those names
and the ``("write", address, data)`` entries stay.  Work belongs inside
a stage: a call's own body is attributed to no stage, and the traced
benchmark fails a run whose unattributed share is too large.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.counters.events import CounterEvent
from repro.core.engine.config import ConfigError
from repro.core.engine.secure_memory import (
    IntegrityError,
    ReadResult,
    SecureMemory,
)
from repro.fast.ecc_lane import CHECK_MASK
from repro.fast.kernels import KernelTable, build_kernel_table
from repro.lint.contracts import BLOCK_BYTES, MAC_CHECK_SHIFT, MAC_MASK
from repro.persist.journal import DataImage

_CHECK_SHIFT = np.uint64(MAC_CHECK_SHIFT)


class BatchSecureMemory:
    """Run-per-call façade running an engine through the batch kernels."""

    def __init__(
        self,
        engine: SecureMemory,
        mode: str = "fast",
    ) -> None:
        if not isinstance(engine, SecureMemory):
            raise ConfigError(
                "BatchSecureMemory wraps the core SecureMemory, not "
                f"{type(engine).__name__}: the working stack order is "
                "SecureMemory (+durability) -> BatchSecureMemory, with "
                "ResilientMemory translating logical addresses above "
                "both -- repro.stack.EngineStack builds exactly that"
            )
        self.engine = engine
        self.kernels: KernelTable = build_kernel_table(
            engine.cipher,
            engine.mac,
            engine.scheme,
            engine.tree.key,
            mode=mode,
        )
        self._has_counter_kernels = "counters.encode" in self.kernels.pairs
        registry = engine.registry
        inst = registry.instance("batch")
        self._m_reads = registry.counter("fast.batch.reads", inst=inst)
        self._m_writes = registry.counter("fast.batch.writes", inst=inst)
        self._m_flushes = registry.counter("fast.batch.flushes", inst=inst)
        self._m_groups = registry.counter("fast.batch.groups", inst=inst)
        self._m_fallback = registry.counter(
            "fast.fallback.scalar", inst=inst
        )
        #: writes deferred by queue_write: ("write", address, data)
        self._queue: list[tuple[str, int, bytes]] = []

    @property
    def mode(self) -> str:
        return self.kernels.mode

    # -- calls -------------------------------------------------------------

    def queue_write(self, address: int, data: bytes) -> None:
        """Defer one 64-byte block write to the next run (validated
        immediately)."""
        self._queue.append(("write", address, self._checked(address, data)))

    def write_many(self, writes: Iterable[tuple[int, bytes]]) -> None:
        """Write ``(address, data)`` pairs as one run, after the writes
        :meth:`queue_write` deferred.

        Only when the call fails its one array test are the writes
        checked one by one, so the first bad write raises what
        :meth:`queue_write` raises for it, with nothing queued or stored.
        """
        writes = list(writes)
        array = None
        try:
            addresses, datas = zip(*writes) if writes else ((), ())
            if set(map(len, datas)) <= {BLOCK_BYTES}:
                if not set(map(type, datas)) <= {bytes}:
                    datas = list(map(bytes, datas))
                array = self._address_array(addresses)
        except (TypeError, ValueError):
            pass
        if array is None:
            datas = [self._checked(address, data) for address, data in writes]
            blocks = [address // BLOCK_BYTES for address, _ in writes]
        else:
            blocks = (array // BLOCK_BYTES).tolist()
        self.flush()
        if blocks:
            self._m_flushes.inc()
            self._flush_writes(blocks, datas)

    def read_many(self, addresses: Sequence[int]) -> list[ReadResult]:
        """Read ``addresses`` as one run, after the writes
        :meth:`queue_write` deferred; the first bad address raises what
        ``engine._block_index`` raises for it, with nothing stored or read.
        """
        if self._address_array(addresses) is None:
            for address in addresses:
                self.engine._block_index(address)
        self.flush()
        if not len(addresses):
            return []
        self._m_flushes.inc()
        return self._flush_reads(addresses)

    def _checked(self, address: int, data: bytes) -> bytes:
        """``data`` as bytes, once the write passed the per-write checks."""
        if len(data) != BLOCK_BYTES:
            raise ValueError(f"data must be {BLOCK_BYTES} bytes")
        self.engine._block_index(address)
        return bytes(data)

    def _address_array(self, addresses: Sequence[int]) -> np.ndarray | None:
        """A call's addresses as one int array, or None unless one array
        test shows that each passes ``engine._block_index``'s checks:
        64-byte aligned, inside the protected region."""
        if not len(addresses):
            return np.zeros(0, dtype=np.int64)
        try:
            array = np.array(addresses)
        except (TypeError, ValueError, OverflowError):
            return None
        if array.ndim != 1 or array.dtype.kind not in "iu":
            return None
        limit = self.engine.scheme.total_blocks * BLOCK_BYTES
        if array.min() < 0 or array.max() >= limit or (array % BLOCK_BYTES).any():
            return None
        return array

    def flush(self) -> None:
        """Store the writes :meth:`queue_write` deferred as one run (on
        :class:`IntegrityError`, the writes after the failing one are
        discarded, as the scalar loop would never have reached them)."""
        queue, self._queue = self._queue, []
        if queue:
            self._m_flushes.inc()
            self._flush_writes(
                [address // BLOCK_BYTES for _, address, _ in queue],
                [data for _, _, data in queue],
            )

    # -- write path --------------------------------------------------------

    def _hash_nodes(
        self, rows: np.ndarray, level: int, indices: np.ndarray
    ) -> np.ndarray:
        hashes = self.kernels.run(
            "tree.hash", rows, level, indices, blocks=len(rows)
        )
        assert isinstance(hashes, np.ndarray)
        return hashes

    def _serialize_groups(self, groups: list[int]) -> list[bytes]:
        if self._has_counter_kernels:
            metadata = self.kernels.run(
                "counters.encode", groups, blocks=len(groups)
            )
            assert isinstance(metadata, list)
            return metadata
        return [self.engine.scheme.group_metadata(g) for g in groups]

    def _decode_groups(self, metadata: list[bytes]) -> np.ndarray:
        """The groups' counters as one int64 ``(groups, slots)`` matrix."""
        if self._has_counter_kernels:
            counters = self.kernels.run(
                "counters.decode", metadata, blocks=len(metadata)
            )
            assert isinstance(counters, np.ndarray)
            return counters
        scheme = self.engine.scheme
        rows = [scheme.decode_metadata(data) for data in metadata]
        return np.array(rows, dtype=np.int64).reshape(
            len(rows), scheme.blocks_per_group
        )

    def _commit_groups(self, groups: list[int]) -> None:
        """Install the run's dirty groups: one counter encode, the
        storage writes, one tree walk, then the journal's metadata."""
        engine = self.engine
        metadata = self._serialize_groups(groups)
        engine.counter_storage.update(zip(groups, metadata))
        engine.tree.update_leaves(groups, metadata, self._hash_nodes)
        if engine.persist is not None and engine.persist.in_txn:
            for group, data in zip(groups, metadata):
                engine.persist.record_meta(group, data)

    def _flush_writes(self, blocks: list[int], datas: list[bytes]) -> None:
        """One write run; with persistence attached, one group-commit txn.

        The whole run -- including any re-encryptions, whose stores and
        metadata commits (batched or scalar) mirror into the open
        transaction -- seals as a single
        :class:`~repro.persist.journal.TxnRecord`.  Any failure before
        the seal aborts the transaction: nothing reached the store, so
        the batch rolls back atomically.
        """
        engine = self.engine
        persist = engine.persist
        if persist is None:
            self._run_writes(blocks, datas)
            return
        if persist.in_txn:
            raise ConfigError(
                "cannot flush a batch inside an open journal "
                "transaction: group commit opens one transaction per "
                "write run; finish the scalar engine.write (or nested "
                "flush) first -- the working order is "
                "SecureMemory(+durability) -> BatchSecureMemory with "
                "flush() between, not inside, scalar transactions"
            )
        persist.begin_txn()
        try:
            global_reencrypt = self._run_writes(blocks, datas)
        except BaseException:
            persist.abort_txn()
            raise
        force = (
            global_reencrypt
            and persist.config.checkpoint_on_global_reencrypt
        )
        persist.commit_txn(
            root=engine.tree.root_digest(),
            scheme_epoch=getattr(engine.scheme, "epoch", 0),
            force_checkpoint=force,
            writes=len(blocks),
        )

    def _run_writes(self, blocks: list[int], datas: list[bytes]) -> bool:
        """The write-run data path; True when a global re-encrypt fired.

        The run is walked as plain segments, each advanced by one
        ``scheme.on_writes`` call, separated by single writes that may
        overflow, which take the exact per-block path.
        """
        engine = self.engine
        scheme = engine.scheme
        per_group = scheme.blocks_per_group
        global_reencrypt = False
        wraps = hasattr(scheme, "epoch")
        engine_writes = engine.counters.metric("writes")
        self._m_writes.inc(len(blocks))
        #: writes encrypted/stored lazily: blocks, counters, data
        pending: tuple[list[int], list[int], list[bytes]] = ([], [], [])
        #: groups whose counter_storage lags the scheme state
        stale: dict[int, None] = {}
        #: groups needing a final tree-leaf commit
        dirty: dict[int, None] = {}
        try:
            start = 0
            while True:
                counters = scheme.on_writes(blocks, start)
                stop = start + len(counters)
                if counters:
                    pending[0].extend(blocks[start:stop])
                    pending[1].extend(counters)
                    pending[2].extend(datas[start:stop])
                    touched = dict.fromkeys(
                        [block // per_group for block in blocks[start:stop]]
                    )
                    stale.update(touched)
                    dirty.update(touched)
                    engine_writes.inc(len(counters))
                if stop == len(blocks):
                    break
                # ``scheme.may_overflow`` is True for this write.
                block = blocks[stop]
                address = block * BLOCK_BYTES
                group = block // per_group
                # What the scalar per-write commit would have left in
                # storage where the overflow handlers read old counters: a
                # group re-encryption reads only its own group, a monolithic
                # wrap every group (and moves the epoch: the pending writes
                # are stored first, under their epoch's nonces).
                if wraps:
                    self._flush_pending(*pending)
                    pending = ([], [], [])
                    lagging = list(stale)
                elif group in stale:
                    lagging = [group]
                else:
                    lagging = []
                if lagging:
                    engine.counter_storage.update(
                        zip(lagging, self._serialize_groups(lagging))
                    )
                    for lagged in lagging:
                        del stale[lagged]
                outcome = scheme.on_write(block)
                engine_writes.inc()
                if outcome.has(CounterEvent.GLOBAL_RE_ENCRYPT):
                    global_reencrypt = True
                    engine._trace_reencrypt("engine.global_reencrypt", address)
                    with engine._probe_reencrypt:
                        self._global_reencrypt(skip_block=block)
                    # Storage and tree now hold every group's current state.
                    stale.clear()
                    dirty.clear()
                elif outcome.reencrypted_group is not None:
                    self._flush_pending(*pending)
                    pending = ([], [], [])
                    engine._trace_reencrypt(
                        "engine.group_reencrypt",
                        address,
                        group=outcome.reencrypted_group,
                    )
                    with engine._probe_reencrypt:
                        self._reencrypt_group(
                            outcome.reencrypted_group,
                            outcome.group_counter,
                            skip_block=block,
                        )
                    engine.counters.group_reencryptions += 1
                pending[0].append(block)
                pending[1].append(outcome.counter)
                pending[2].append(datas[stop])
                stale[group] = None
                dirty[group] = None
                start = stop + 1
        except BaseException:
            # Leave what the scalar write loop leaves when a write
            # raises: every earlier write stored under its counter, its
            # group's metadata and tree leaf committed.
            self._flush_pending(*pending)
            lagging = list(stale)
            if lagging:
                engine.counter_storage.update(
                    zip(lagging, self._serialize_groups(lagging))
                )
            if dirty:
                groups = list(dirty)
                engine.tree.update_leaves(
                    groups,
                    [engine.counter_storage[group] for group in groups],
                    self._hash_nodes,
                )
            raise
        self._flush_pending(*pending)
        self._m_groups.inc(len(dirty))
        if dirty:
            self._commit_groups(list(dirty))
        return global_reencrypt

    def _flush_pending(
        self, blocks: list[int], counters: list[int], datas: list[bytes]
    ) -> None:
        """Encrypt, tag and store parallel columns of pending writes,
        under the nonces of ``counters`` in the scheme's current epoch."""
        if not blocks:
            return
        engine = self.engine
        nonces = engine.scheme.nonce(np.asarray(counters, dtype=np.int64))
        count = len(blocks)
        addresses = np.asarray(blocks, dtype=np.int64) * BLOCK_BYTES
        data = np.frombuffer(b"".join(datas), dtype=np.uint8).reshape(
            count, BLOCK_BYTES
        )
        ciphertexts = self.kernels.run(
            "ctr.encrypt", data, nonces, addresses, blocks=count
        )
        tags = self.kernels.run(
            "mac.tags", ciphertexts, addresses, nonces, blocks=count
        )
        flat = ciphertexts.tobytes()
        stored = [
            flat[offset : offset + BLOCK_BYTES]
            for offset in range(0, count * BLOCK_BYTES, BLOCK_BYTES)
        ]
        if engine.config.mac_in_ecc:
            lane = self.kernels.run(
                "ecc.lane", tags, ciphertexts, blocks=count
            )
            tags = tags | lane.astype(np.uint64) << _CHECK_SHIFT
        words = tags.tolist()
        engine.ciphertexts.update(zip(blocks, stored))
        engine.lanes.update(zip(blocks, words))
        if engine.persist is not None and engine.persist.in_txn:
            for block, ciphertext, word in zip(blocks, stored, words):
                engine.persist.record_data(block, DataImage(ciphertext, word))

    # -- overflow re-encryption -------------------------------------------

    def _reencrypt_group(
        self, group: int, group_counter: int, skip_block: int
    ) -> None:
        """``engine._reencrypt_group`` as one batch when the group is
        clean: old counters decoded from the group's stored metadata,
        every block moved to the shared fresh counter."""
        engine = self.engine
        scheme = engine.scheme
        blocks = [
            block for block in scheme.blocks_in_group(group)
            if block != skip_block
        ]
        (old,) = self._decode_groups([engine._stored_metadata(group)])
        old_nonces = scheme.nonce(old[[scheme.slot_of(b) for b in blocks]])
        if not self._reencrypt(blocks, old_nonces, group_counter):
            self._m_fallback.inc()
            engine._reencrypt_group(group, group_counter, skip_block)

    def _global_reencrypt(self, skip_block: int) -> None:
        """``engine._global_reencrypt`` as one batch when every stored
        block is clean: the previous epoch's nonces to counter 0 of the
        new one, then one commit of every group."""
        engine = self.engine
        scheme = engine.scheme
        blocks = [
            block for block in sorted(engine.ciphertexts)
            if block != skip_block
        ]
        groups = list(dict.fromkeys(scheme.group_of(block) for block in blocks))
        metadata = [engine._stored_metadata(group) for group in groups]
        decoded = dict(zip(groups, self._decode_groups(metadata)))
        old = [decoded[scheme.group_of(b)][scheme.slot_of(b)] for b in blocks]
        old_nonces = scheme.nonce(
            np.array(old, dtype=np.int64), epoch=scheme.epoch - 1
        )
        if not self._reencrypt(blocks, old_nonces, 0):
            self._m_fallback.inc()
            engine._global_reencrypt(skip_block)
            return
        self._commit_groups(list(range(scheme.num_groups)))

    def _reencrypt(
        self, blocks: list[int], old_nonces: np.ndarray, new_counter: int
    ) -> bool:
        """Move ``blocks`` from their old nonces to the nonce of
        ``new_counter`` as one batch; False, with nothing changed,
        unless every block is clean.

        A stored block is clean under the read path's rule (the
        re-encryption path reads storage directly, so ``read_perturb``
        does not apply).  A block never written holds what
        ``engine._stored_ciphertext`` would create, zeros under counter
        0, so it is clean exactly when its old nonce is that counter's.
        Non-clean groups go back to the scalar handler, whose
        corrections and raises are then exactly the scalar engine's.
        """
        engine = self.engine
        written, held, messages, macs, checks = self._stored_columns(blocks)
        if (written & ~held).any():
            return False  # a stored ciphertext without its stored MAC
        if (old_nonces[~written] != engine.scheme.nonce(0)).any():
            return False
        addresses = np.array(blocks, dtype=np.int64) * BLOCK_BYTES
        plains = [bytes(BLOCK_BYTES)] * len(blocks)
        rows = np.flatnonzero(held).tolist()
        if rows:
            nonces, held_at = old_nonces[rows], addresses[rows]
            if not self._clean(messages, held_at, nonces, macs, checks).all():
                return False
            decrypted = self.kernels.run(
                "ctr.encrypt", messages, nonces, held_at, blocks=len(rows)
            )
            for row, plain in zip(rows, decrypted):
                plains[row] = plain.tobytes()
        self._flush_pending(blocks, [new_counter] * len(blocks), plains)
        return True

    def _stored_columns(
        self, blocks: list[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stored state the clean test reads, gathered once per batch.

        Returns ``(written, held, messages, macs, checks)``: ``written``
        marks the blocks with a stored ciphertext, ``held`` those that
        also have their stored lane word; ``messages`` (``(rows, 64)``
        uint8), ``macs`` and ``checks`` are the held rows' stored
        ciphertexts, MACs and Hamming check bits, split out of the lane
        words (a bare tag's check bits read 0).  A mask is built per
        block only when a whole-batch key test fails.
        """
        engine = self.engine
        count = len(blocks)
        wanted = set(blocks)
        ciphertexts = engine.ciphertexts
        lanes = engine.lanes
        if ciphertexts.keys() >= wanted:
            written = np.ones(count, dtype=bool)
        else:
            written = np.fromiter(
                map(ciphertexts.__contains__, blocks), dtype=bool, count=count
            )
        if lanes.keys() >= wanted:
            held = written.copy()
        else:
            held = written & np.fromiter(
                map(lanes.__contains__, blocks), dtype=bool, count=count
            )
        rows = blocks if held.all() else [
            block for block, ok in zip(blocks, held.tolist()) if ok
        ]
        messages = np.frombuffer(
            b"".join(map(ciphertexts.__getitem__, rows)), dtype=np.uint8
        ).reshape(len(rows), BLOCK_BYTES)
        words = np.fromiter(
            map(lanes.__getitem__, rows), dtype=np.uint64, count=len(rows)
        )
        macs = words & np.uint64(MAC_MASK)
        checks = (words >> _CHECK_SHIFT).astype(np.uint8) & CHECK_MASK
        return written, held, messages, macs, checks

    def _clean(
        self,
        messages: np.ndarray,
        addresses: Sequence[int],
        nonces: np.ndarray,
        macs: np.ndarray,
        checks: np.ndarray,
    ) -> np.ndarray:
        """The read path's clean test over one batch, mutation-free: the
        stored MAC is the tag of the ciphertext under ``nonces`` and,
        with MAC-in-ECC, the stored check bits are the ``ecc.lane``
        encoding of the stored MAC (exactly when SEC-DED decodes CLEAN).
        """
        count = len(addresses)
        tags = self.kernels.run(
            "mac.tags", messages, addresses, nonces, blocks=count
        )
        clean = tags == macs
        if self.engine.config.mac_in_ecc:
            lane = self.kernels.run("ecc.lane", macs, messages, blocks=count)
            clean &= (lane & CHECK_MASK) == checks
        return clean

    # -- read path ---------------------------------------------------------

    def _flush_reads(self, addresses: Sequence[int]) -> list[ReadResult]:
        """One read run, classified per run: the clean blocks are
        verified and decrypted in batches and emitted as clean
        stretches; only the anomalies are visited one by one."""
        engine = self.engine
        count = len(addresses)
        self._m_reads.inc(count)
        # The call's addresses were validated: aligned and in range.
        block_array = np.array(addresses, dtype=np.int64) // BLOCK_BYTES
        group_array, slots = np.divmod(
            block_array, engine.scheme.blocks_per_group
        )

        # Per-group pre-pass, in first-touch order: one tree walk over
        # the distinct groups, then one decode of those that verified.
        # (Deduplicated by a dict, not ``np.unique``: its sorts would
        # page in ~450 KiB of numpy code no other engine path uses.)
        block_groups = group_array.tolist()
        groups = list(dict.fromkeys(block_groups))
        rank = dict(zip(groups, range(len(groups))))
        stored = [engine._stored_metadata(group) for group in groups]
        verdicts = engine.tree.verify_leaves(groups, stored, self._hash_nodes)
        self._m_groups.inc(len(groups))
        #: per block, its group's position in ``groups``; per group, its
        #: row among the decoded (verified) groups
        group_at = np.fromiter(
            map(rank.__getitem__, block_groups), dtype=np.int64, count=count
        )
        decoded_row = np.cumsum(verdicts) - 1
        verified = verdicts[group_at]

        # Classification (no engine mutation): a candidate is a block
        # whose group verified, with a stored ciphertext and stored MAC
        # state, read without a perturb hook; the candidates' clean
        # test runs as one batch.  Everything else is an anomaly: a
        # tree failure raises at its call position, the rest (lazily
        # initialized blocks, corrections, raises) fall back to the
        # scalar ``engine.read``.
        clean = np.zeros(count, dtype=bool)
        #: the clean blocks' plaintexts, in call order
        datas: list[bytes] = []
        if engine.read_perturb is None and verdicts.any():
            _, held, messages, macs, checks = self._stored_columns(
                block_array.tolist()
            )
            candidate = held & verified
            if not candidate.all():
                keep = candidate[held]
                messages, macs, checks = messages[keep], macs[keep], checks[keep]
            rows = np.flatnonzero(candidate)
            if len(rows):
                decoded = self._decode_groups(
                    [stored[i] for i in np.flatnonzero(verdicts).tolist()]
                )
                nonces = engine.scheme.nonce(
                    decoded[decoded_row[group_at[rows]], slots[rows]]
                )
                v_addresses = block_array[rows] * BLOCK_BYTES
                ok = self._clean(messages, v_addresses, nonces, macs, checks)
                clean[rows] = ok
                if not ok.all():
                    messages, nonces = messages[ok], nonces[ok]
                    v_addresses = v_addresses[ok]
                if len(nonces):
                    flat = self.kernels.run(
                        "ctr.encrypt", messages, nonces, v_addresses,
                        blocks=len(nonces),
                    ).tobytes()
                    datas = [
                        flat[offset : offset + BLOCK_BYTES]
                        for offset in range(0, len(flat), BLOCK_BYTES)
                    ]

        # Call-order pass over the anomalies alone: the stretch of
        # clean reads before each is emitted and counted in bulk, then
        # the anomaly's mutation or raise happens exactly where the
        # scalar loop would have performed it.
        results: list[ReadResult] = []
        emitted = start = 0
        for position in np.flatnonzero(~clean).tolist() + [count]:
            stretch = datas[emitted : emitted + position - start]
            results.extend(ReadResult.clean_many(stretch))
            self._count_clean_reads(len(stretch))
            emitted += len(stretch)
            if position == count:
                break
            if not verified[position]:
                engine.counters.reads += 1
                engine._m_tree_fails.inc()
                raise IntegrityError(
                    "tree",
                    addresses[position],
                    "counter storage failed tree verification",
                )
            self._m_fallback.inc()
            results.append(engine.read(addresses[position]))
            start = position + 1
        return results

    def _count_clean_reads(self, count: int) -> None:
        """What ``count`` clean scalar reads add to the engine metrics."""
        if count:
            self.engine.counters.metric("reads").inc(count)
            self.engine._m_mac_checks.inc(count)


__all__ = ["BatchSecureMemory"]
