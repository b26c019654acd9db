"""End-to-end functional engine: confidentiality, integrity, error
correction, and attacker scenarios across every configuration."""

import pytest

from repro.core.ecc_mac.detection import CheckOutcome
from repro.core.engine import IntegrityError, SecureMemory
from repro.core.engine.config import preset
from tests.conftest import random_block

REGION = 64 * 1024  # 1024 blocks, 16 groups


def make_memory(name, key48, **overrides):
    overrides.setdefault("protected_bytes", REGION)
    overrides.setdefault("keystream_mode", "fast")
    return SecureMemory(preset(name, **overrides), key48)


ALL_PRESETS = ["bmt_baseline", "mac_in_ecc", "delta_only", "combined",
               "combined_dual"]


@pytest.mark.parametrize("name", ALL_PRESETS)
class TestRoundtripAllConfigs:
    def test_write_read_roundtrip(self, name, key48, rng):
        memory = make_memory(name, key48)
        state = {}
        for _ in range(300):
            address = rng.randrange(REGION // 64) * 64
            data = random_block(rng)
            memory.write(address, data)
            state[address] = data
        for address, data in state.items():
            result = memory.read(address)
            assert result.data == data
            assert result.ok if hasattr(result, "ok") else True

    def test_unwritten_blocks_read_as_zero(self, name, key48):
        memory = make_memory(name, key48)
        assert memory.read(0).data == bytes(64)

    def test_ciphertext_is_not_plaintext(self, name, key48, rng):
        memory = make_memory(name, key48)
        data = random_block(rng)
        memory.write(128, data)
        assert memory.ciphertexts[2] != data

    def test_rewrites_use_fresh_keystream(self, name, key48):
        """Same plaintext re-written must yield a different ciphertext
        (the counter advanced)."""
        memory = make_memory(name, key48)
        data = b"\x5A" * 64
        memory.write(0, data)
        first = memory.ciphertexts[0]
        memory.write(0, data)
        assert memory.ciphertexts[0] != first

    SMALL_WIDTHS = {
        "bmt_baseline": {"counter_bits": 12},
        "mac_in_ecc": {"counter_bits": 12},
        "delta_only": {"delta_bits": 3},
        "combined": {"delta_bits": 3},
        "combined_dual": {"base_delta_bits": 2, "extension_bits": 2},
    }

    def test_group_reencryption_preserves_all_data(self, name, key48, rng):
        """Force counter overflows and confirm every block of the
        re-encrypted groups still decrypts."""
        memory = make_memory(name, key48,
                             scheme_kwargs=self.SMALL_WIDTHS[name])
        state = {}
        for _ in range(800):
            address = rng.randrange(64) * 64  # hammer one group
            data = random_block(rng)
            memory.write(address, data)
            state[address] = data
        for address, data in state.items():
            assert memory.read(address).data == data

    def test_alignment_enforced(self, name, key48):
        memory = make_memory(name, key48)
        with pytest.raises(ValueError):
            memory.write(32, bytes(64))
        with pytest.raises(ValueError):
            memory.read(REGION)  # out of range
        with pytest.raises(ValueError):
            memory.write(0, bytes(63))


class TestTamperDetection:
    @pytest.mark.parametrize("name", ["bmt_baseline", "combined"])
    def test_heavy_data_tamper_detected(self, name, key48, rng):
        memory = make_memory(name, key48)
        memory.write(0, random_block(rng))
        memory.flip_data_bits(0, rng.sample(range(512), 20))
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(0)
        assert excinfo.value.kind == "mac"
        assert excinfo.value.address == 0

    def test_counter_storage_tamper_detected(self, key48, rng):
        memory = make_memory("combined", key48)
        memory.write(0, random_block(rng))
        metadata = bytearray(memory.counter_storage[0])
        metadata[0] ^= 0x0F
        memory.corrupt_counter_storage(0, bytes(metadata))
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(0)
        assert excinfo.value.kind == "tree"

    def test_replay_attack_detected(self, key48, rng):
        """The full Section 2.2 replay: attacker restores data + MAC +
        counters to a mutually consistent old state."""
        memory = make_memory("combined", key48)
        memory.write(192, b"\x01" * 64)
        snapshot = memory.snapshot_block(192)
        memory.write(192, b"\x02" * 64)
        memory.rollback_block(192, snapshot)
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(192)
        assert excinfo.value.kind == "tree"

    def test_replay_on_baseline_also_detected(self, key48):
        memory = make_memory("bmt_baseline", key48)
        memory.write(192, b"\x01" * 64)
        snapshot = memory.snapshot_block(192)
        memory.write(192, b"\x02" * 64)
        memory.rollback_block(192, snapshot)
        with pytest.raises(IntegrityError):
            memory.read(192)

    def test_tree_node_corruption_detected(self, key48, rng):
        memory = SecureMemory(
            preset("combined", protected_bytes=16 * 1024 * 1024,
                   keystream_mode="splitmix"),
            key48,
        )
        memory.write(0, random_block(rng))
        assert memory.tree.offchip, "need a tree with off-chip nodes"
        (level, index) = next(iter(memory.tree.offchip))
        memory.corrupt_tree_node(level, index, b"\x00" * 64)
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(0)
        assert excinfo.value.kind == "tree"

    def test_malformed_tree_node_write_refused(self, key48, rng):
        """``corrupt_tree_node`` takes one whole node at a known
        position: anything else raises before the tree changes."""
        memory = SecureMemory(
            preset("combined", protected_bytes=16 * 1024 * 1024,
                   keystream_mode="splitmix"),
            key48,
        )
        data = random_block(rng)
        memory.write(0, data)
        before = dict(memory.tree.offchip)
        for bad in (b"", b"\x00" * 63, b"\x00" * 65, b"\x00" * 128):
            with pytest.raises(ValueError):
                memory.corrupt_tree_node(1, 0, bad)
        levels = memory.tree.geometry.level_sizes
        for level, index in ((0, 0), (len(levels) - 1, 0), (1, levels[1])):
            with pytest.raises(KeyError):
                memory.corrupt_tree_node(level, index, b"\x00" * 64)
        assert dict(memory.tree.offchip) == before
        assert memory.read(0).data == data

    def test_cross_block_ciphertext_swap_detected(self, key48, rng):
        """Relocating a valid ciphertext to another address must fail
        (the MAC binds the physical address)."""
        memory = make_memory("combined", key48)
        memory.write(0, random_block(rng))
        memory.write(64, random_block(rng))
        ct0, ct1 = memory.ciphertexts[0], memory.ciphertexts[1]
        lane0, lane1 = memory.lanes[0], memory.lanes[1]
        memory.ciphertexts[0], memory.ciphertexts[1] = ct1, ct0
        memory.lanes[0], memory.lanes[1] = lane1, lane0
        with pytest.raises(IntegrityError):
            memory.read(0)


class TestFaultCorrection:
    def test_single_bit_fault_corrected_and_healed(self, key48, rng):
        memory = make_memory("combined", key48)
        data = random_block(rng)
        memory.write(0, data)
        memory.flip_data_bits(0, [77])
        result = memory.read(0)
        assert result.data == data
        assert result.corrected_bits == (77,)
        assert memory.counters.corrections == 1
        # Healed in place: the next read is clean.
        assert memory.read(0).clean

    def test_double_bit_fault_corrected(self, key48, rng):
        memory = make_memory("combined", key48)
        data = random_block(rng)
        memory.write(0, data)
        memory.flip_data_bits(0, [3, 400])
        result = memory.read(0)
        assert result.data == data
        assert sorted(result.corrected_bits) == [3, 400]

    def test_triple_bit_fault_is_uncorrectable(self, key48, rng):
        memory = make_memory("combined", key48)
        memory.write(0, random_block(rng))
        memory.flip_data_bits(0, [1, 2, 3])
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(0)
        assert excinfo.value.kind == "mac"

    def test_mac_bit_fault_self_corrected(self, key48, rng):
        memory = make_memory("combined", key48)
        data = random_block(rng)
        memory.write(0, data)
        memory.flip_ecc_bits(0, [25])
        result = memory.read(0)
        assert result.data == data
        assert result.outcome is CheckOutcome.MAC_CORRECTED
        assert memory.counters.mac_self_corrections == 1

    def test_double_mac_bit_fault_uncorrectable(self, key48, rng):
        memory = make_memory("combined", key48)
        memory.write(0, random_block(rng))
        memory.flip_ecc_bits(0, [25, 40])
        with pytest.raises(IntegrityError) as excinfo:
            memory.read(0)
        assert excinfo.value.kind == "mac_bits"

    def test_baseline_detects_but_cannot_correct(self, key48, rng):
        """The separate-MAC baseline has no flip-and-check: a single-bit
        fault is an integrity failure."""
        memory = make_memory("bmt_baseline", key48)
        memory.write(0, random_block(rng))
        memory.flip_data_bits(0, [5])
        with pytest.raises(IntegrityError):
            memory.read(0)

    def test_ecc_injection_requires_ecc_config(self, key48):
        memory = make_memory("bmt_baseline", key48)
        with pytest.raises(ValueError):
            memory.flip_ecc_bits(0, [1])


class TestScrubIntegration:
    def test_scrub_iter_feeds_scrubber(self, key48, rng):
        from repro.core.ecc_mac.scrubber import Scrubber

        memory = make_memory("combined", key48)
        for i in range(8):
            memory.write(i * 64, random_block(rng))
        memory.flip_data_bits(3 * 64, [9])
        report = Scrubber(memory._codec).scrub(memory.scrub_iter())
        assert 3 * 64 in report.suspicious_blocks

    def test_scrub_requires_ecc_layout(self, key48):
        memory = make_memory("bmt_baseline", key48)
        with pytest.raises(ValueError):
            list(memory.scrub_iter())


class TestKeyHandling:
    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SecureMemory(preset("combined", protected_bytes=4096), b"short")

    def test_different_keys_different_ciphertexts(self, rng):
        config = preset("combined", protected_bytes=4096,
                        keystream_mode="splitmix")
        a = SecureMemory(config, bytes(range(48)))
        b = SecureMemory(config, bytes(range(1, 49)))
        data = random_block(rng)
        a.write(0, data)
        b.write(0, data)
        assert a.ciphertexts[0] != b.ciphertexts[0]

    def test_real_aes_mode_roundtrip(self, key48, rng):
        memory = SecureMemory(
            preset("combined", protected_bytes=4096, keystream_mode="fast"),
            key48,
        )
        data = random_block(rng)
        memory.write(0, data)
        assert memory.read(0).data == data


class TestGlobalReencryption:
    """Monolithic counter wrap: the whole memory re-keys (new epoch)."""

    def _tiny_counter_memory(self, key48, mode="splitmix"):
        return SecureMemory(
            preset(
                "mac_in_ecc",
                protected_bytes=8 * 1024,  # 128 blocks, 2 groups
                keystream_mode=mode,
                counter_scheme="monolithic",
                scheme_kwargs={"counter_bits": 4},  # wraps after 15 writes
            ),
            key48,
        )

    def test_data_survives_epoch_bump(self, key48, rng):
        memory = self._tiny_counter_memory(key48)
        state = {}
        for i in range(8):
            addr = i * 64
            data = random_block(rng)
            memory.write(addr, data)
            state[addr] = data
        # Hammer one block until its 4-bit counter wraps (global re-enc).
        hot = b"\xEE" * 64
        for _ in range(40):
            memory.write(512, hot)
        assert memory.scheme.epoch >= 1
        # Everything, hot and cold, still decrypts to the right data.
        assert memory.read(512).data == hot
        for addr, data in state.items():
            if addr != 512:
                assert memory.read(addr).data == data

    def test_nonces_stay_fresh_across_epochs(self, key48):
        """Same (counter, address) in different epochs must produce
        different ciphertexts: the epoch is packed into the nonce, inside
        the 56-bit lane every backend keeps (AES included)."""
        for mode in ("splitmix", "fast"):
            memory = self._tiny_counter_memory(key48, mode)
            payload = b"\x11" * 64
            seen = set()
            for _ in range(64):  # four epochs' worth of wraps
                memory.write(0, payload)
                ct = memory.ciphertexts[0]
                assert ct not in seen, "keystream reuse across epochs!"
                seen.add(ct)

    def test_tampered_block_blocks_global_reencryption(self, key48, rng):
        memory = self._tiny_counter_memory(key48)
        memory.write(64, random_block(rng))
        memory.flip_data_bits(64, [1, 2, 3, 4, 5])  # >2 bits: tamper
        with pytest.raises(IntegrityError):
            for _ in range(40):  # the wrap-triggering write must fail
                memory.write(0, b"\x00" * 64)

    def test_exhausted_counter_space_is_refused(self, key48):
        """A wrap whose epoch would leave the nonce lane (at 56 bits, the
        first) raises before the engine or the scheme changes."""
        memory = SecureMemory(
            preset(
                "mac_in_ecc", protected_bytes=8 * 1024,
                keystream_mode="splitmix",
            ),
            key48,
        )
        memory.write(64, b"\x22" * 64)
        memory.scheme._counters[1] = (1 << 56) - 1

        def state():
            return (
                dict(memory.ciphertexts), dict(memory.lanes),
                dict(memory.counter_storage), memory.tree.root_digest(),
                list(memory.scheme._counters), memory.scheme.epoch,
            )

        before = state()
        with pytest.raises(OverflowError, match="nonce lane"):
            memory.write(64, b"\x33" * 64)
        assert state() == before
        assert memory.read(64).data == b"\x22" * 64
