"""FileStore: the disk mirror of the in-memory durable store."""

from repro.core.engine.config import preset
from repro.faultfs import FaultFS, FaultKind, FaultPlan
from repro.persist.config import DurabilityConfig
from repro.service.storage import FileStore, load_file_store
from repro.service.tenant import derive_key
from repro.stack import EngineStack


def small_config():
    return preset("combined", protected_bytes=4096,
                  scheme_kwargs={"delta_bits": 2}, keystream_mode="splitmix")


def durability():
    return DurabilityConfig(checkpoint_interval=4)


def build_stack(store):
    return EngineStack(small_config(), derive_key(1, "t"), store=store,
                       durability=durability())


def recover_stack(root):
    return EngineStack.recover(
        load_file_store(root), small_config(), derive_key(1, "t"),
        durability=durability(),
    )


class TestMirror:
    def test_journal_record_and_seal_mirrored(self, tmp_path):
        store = FileStore(tmp_path)
        index = store.journal_append(b"payload-bytes", "txn")
        assert (tmp_path / "journal" / f"{index:08d}.rec").read_bytes() \
            == b"payload-bytes"
        assert not (tmp_path / "journal" / f"{index:08d}.sealed").exists()
        store.journal_seal(index, "txn")
        assert (tmp_path / "journal" / f"{index:08d}.sealed").exists()

    def test_truncate_clears_directory(self, tmp_path):
        store = FileStore(tmp_path)
        for i in range(3):
            store.journal_seal(store.journal_append(b"x", "t"), "t")
        store.journal_truncate()
        assert list((tmp_path / "journal").iterdir()) == []

    def test_checkpoint_unseals_before_rewriting(self, tmp_path):
        store = FileStore(tmp_path)
        store.checkpoint_write(0, b"epoch1", 1)
        store.checkpoint_seal(0, 1)
        assert (tmp_path / "ckpt0.sealed").exists()
        # A rewrite of the same slot must drop the old seal first, so a
        # kill mid-body can never leave a sealed half-written slot.
        store.checkpoint_write(0, b"epoch3", 3)
        assert not (tmp_path / "ckpt0.sealed").exists()
        store.checkpoint_seal(0, 3)
        assert (tmp_path / "ckpt0.bin").read_bytes() == b"epoch3"


class TestLoadFileStore:
    def test_roundtrip_preserves_slots(self, tmp_path):
        store = FileStore(tmp_path)
        sealed = store.journal_append(b"alpha", "t")
        store.journal_seal(sealed, "t")
        unsealed = store.journal_append(b"beta", "t")
        store.checkpoint_write(1, b"ckpt", 2)
        store.checkpoint_seal(1, 2)

        loaded = load_file_store(tmp_path)
        assert loaded.journal[sealed].payload == b"alpha"
        assert loaded.journal[sealed].sealed
        assert loaded.journal[unsealed].payload == b"beta"
        assert not loaded.journal[unsealed].sealed
        assert loaded.slots[1].payload == b"ckpt"
        assert loaded.slots[1].epoch == 2
        assert loaded.slots[1].sealed

    def test_empty_directory_loads_empty(self, tmp_path):
        loaded = load_file_store(tmp_path)
        assert loaded.journal == []
        assert all(not slot.sealed for slot in loaded.slots)


class TestKillRecovery:
    """Abandoning the live objects == SIGKILL; reload from disk only."""

    def test_acknowledged_writes_survive_abandonment(self, tmp_path):
        stack = build_stack(FileStore(tmp_path))
        expected = {}
        for i in range(12):
            address = (i % 8) * 64
            data = bytes([i + 1]) * 64
            stack.write(address, data)
            expected[address] = data
        stack.flush()
        del stack  # no drain, no checkpoint call: the "kill"

        recovered, report = recover_stack(tmp_path)
        assert report.root_verified
        for address, data in expected.items():
            assert recovered.read(address).data == data

    def test_unsealed_tail_discarded_not_fatal(self, tmp_path):
        stack = build_stack(FileStore(tmp_path))
        stack.write(0, b"A" * 64)
        stack.flush()
        # Forge a kill between append and seal: payload on disk, no
        # marker.  scan_journal must discard it as an unsealed tail.
        (tmp_path / "journal" / "99999999.rec").unlink(missing_ok=True)
        tail = sorted((tmp_path / "journal").glob("*.rec"))[-1]
        forged = tail.with_name(f"{int(tail.stem) + 1:08d}.rec")
        forged.write_bytes(b"\x00" * 32)

        recovered, report = recover_stack(tmp_path)
        assert report.root_verified
        assert recovered.read(0).data == b"A" * 64

    def test_torn_record_payload_discarded(self, tmp_path):
        stack = build_stack(FileStore(tmp_path))
        stack.write(0, b"B" * 64)
        stack.flush()
        stack.write(64, b"C" * 64)
        stack.flush()
        # Truncate the last sealed record's payload: a partially flushed
        # file.  The CRC framing must reject it like a torn write.
        tail = sorted((tmp_path / "journal").glob("*.rec"))[-1]
        tail.write_bytes(tail.read_bytes()[:10])

        recovered, report = recover_stack(tmp_path)
        assert report.root_verified
        # The earlier sealed record must still replay.
        assert recovered.read(0).data == b"B" * 64


class TestBarriers:
    """FileStore under FaultFS: the seal is the real durability point."""

    def test_sealed_record_survives_simulated_power_loss(self, tmp_path):
        fs = FaultFS()
        store = FileStore(tmp_path, fs=fs)
        index = store.journal_append(b"durable-payload", "txn")
        store.journal_seal(index, "txn")
        assert fs.crash() == 0, "seal must leave nothing volatile"
        loaded = load_file_store(tmp_path)
        assert loaded.journal[index].payload == b"durable-payload"
        assert loaded.journal[index].sealed

    def test_unsealed_append_vanishes_at_power_loss(self, tmp_path):
        fs = FaultFS()
        store = FileStore(tmp_path, fs=fs)
        store.journal_append(b"never-acked", "txn")  # no seal
        assert fs.crash() >= 1
        loaded = load_file_store(tmp_path)
        assert loaded.journal == []

    def test_lost_before_fsync_is_discarded_on_recovery(self, tmp_path):
        """Lying-firmware fault through the full stack: the write
        appears acknowledged, the fsync silently skips, and power loss
        reveals the record never reached the platter.  Recovery must
        verify with the earlier acked write intact (the orphan
        ``.sealed`` marker without its ``.rec`` is harmless)."""
        fs = FaultFS()
        stack = build_stack(FileStore(tmp_path, fs=fs))
        stack.write(0, b"A" * 64)
        stack.flush()  # genuinely durable

        fs.plan = FaultPlan.single(fs.step, FaultKind.LOST_BEFORE_FSYNC)
        stack.write(64, b"B" * 64)
        stack.flush()  # "acks", but the record is stuck in cache
        assert stack.read(64).data == b"B" * 64  # in-memory view lies too
        fs.crash()

        recovered, report = recover_stack(tmp_path)
        assert report.root_verified
        assert recovered.read(0).data == b"A" * 64
