"""Counter-mode encryption: nonce semantics and roundtrips."""

import numpy as np
import pytest

from repro.crypto.ctr import MEMORY_BLOCK_SIZE, CtrModeCipher


@pytest.fixture(params=["reference", "fast", "aesni", "splitmix"])
def cipher(request):
    return CtrModeCipher(bytes(range(16)), mode=request.param)


class TestRoundtrip:
    def test_decrypt_inverts_encrypt(self, cipher, rng):
        for _ in range(10):
            block = bytes(rng.randrange(256) for _ in range(64))
            counter = rng.randrange(1 << 40)
            address = rng.randrange(1 << 30) * 64
            ct = cipher.encrypt(block, counter, address)
            assert cipher.decrypt(ct, counter, address) == block
            assert ct != block  # keystream actually applied

    def test_wrong_counter_garbles(self, cipher):
        block = b"\x42" * 64
        ct = cipher.encrypt(block, 7, 0x1000)
        assert cipher.decrypt(ct, 8, 0x1000) != block

    def test_wrong_address_garbles(self, cipher):
        block = b"\x42" * 64
        ct = cipher.encrypt(block, 7, 0x1000)
        assert cipher.decrypt(ct, 7, 0x1040) != block


class TestNonceSemantics:
    """The (counter, address) pair is the nonce; uniqueness is the whole
    point of the paper's counter machinery."""

    def test_same_nonce_same_keystream(self, cipher):
        zero = bytes(64)
        assert cipher.encrypt(zero, 5, 0x80) == cipher.encrypt(zero, 5, 0x80)

    def test_distinct_counters_distinct_keystreams(self, cipher):
        zero = bytes(64)
        streams = {bytes(cipher.encrypt(zero, c, 0x80)) for c in range(32)}
        assert len(streams) == 32

    def test_distinct_addresses_distinct_keystreams(self, cipher):
        zero = bytes(64)
        streams = {
            bytes(cipher.encrypt(zero, 5, a * 64)) for a in range(32)
        }
        assert len(streams) == 32

    def test_keystream_reuse_leaks_xor(self, cipher):
        """Demonstrate the attack counter overflow would enable: two
        blocks under the same nonce leak their XOR."""
        m1 = b"\xAA" * 64
        m2 = b"\x55" * 64
        c1 = cipher.encrypt(m1, 9, 0x40)
        c2 = cipher.encrypt(m2, 9, 0x40)
        xor = bytes(a ^ b for a, b in zip(c1, c2))
        assert xor == bytes(a ^ b for a, b in zip(m1, m2))


class TestKeystreamGenerator:
    """``CtrModeCipher.keystream``: the per-(counter, address) generator."""

    def test_length_control(self):
        cipher = CtrModeCipher(bytes(16))
        for length in (1, 16, 63, 64, 128):
            assert len(cipher.keystream(1, 64, length)) == length

    def test_prefix_consistency(self):
        cipher = CtrModeCipher(bytes(16))
        long = cipher.keystream(1, 64, 128)
        short = cipher.keystream(1, 64, 64)
        assert long[:64] == short

    def test_default_block_size(self):
        cipher = CtrModeCipher(bytes(16))
        assert len(cipher.keystream(0, 0)) == MEMORY_BLOCK_SIZE

    def test_negative_inputs_rejected(self):
        cipher = CtrModeCipher(bytes(16))
        with pytest.raises(ValueError):
            cipher.keystream(-1, 0)
        with pytest.raises(ValueError):
            cipher.keystream(0, -64)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CtrModeCipher(bytes(16), mode="rot13")

    def test_families_differ(self):
        aes = CtrModeCipher(bytes(16), mode="fast")
        splitmix = CtrModeCipher(bytes(16), mode="splitmix")
        assert aes.keystream(1, 64) != splitmix.keystream(1, 64)

    def test_legacy_aes_spelling_rejected(self):
        with pytest.raises(ValueError, match="reference, fast, aesni"):
            CtrModeCipher(bytes(16), mode="aes")


class TestXorBlocks:
    def test_rejects_misshaped_batches(self):
        cipher = CtrModeCipher(bytes(16))
        with pytest.raises(ValueError, match="shape"):
            cipher.xor_blocks(np.zeros((2, 32), dtype=np.uint8), [1, 2], [0, 64])
        with pytest.raises(ValueError, match="align"):
            cipher.xor_blocks(np.zeros((2, 64), dtype=np.uint8), [1], [0, 64])
