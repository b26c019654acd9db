"""The Figure 2 ECC-field layout: 56 MAC + 7 Hamming + 1 parity = 64."""

import pytest

from repro.core.ecc_mac.layout import ECC_FIELD_BYTES, EccField, MacEccCodec
from repro.crypto.mac import CarterWegmanMac
from repro.ecc.hamming import DecodeStatus
from tests.conftest import random_block


@pytest.fixture
def codec(key24):
    return MacEccCodec(CarterWegmanMac(key24, mode="splitmix"))


class TestEccField:
    def test_pack_unpack_roundtrip(self, rng):
        for _ in range(50):
            field = EccField(
                mac=rng.getrandbits(56),
                mac_check=rng.getrandbits(7),
                ct_parity=rng.getrandbits(1),
            )
            assert EccField.unpack(field.pack()) == field

    def test_packs_to_exactly_8_bytes(self):
        """The whole field must fit the DIMM's per-block ECC budget."""
        field = EccField(mac=(1 << 56) - 1, mac_check=127, ct_parity=1)
        packed = field.pack()
        assert len(packed) == ECC_FIELD_BYTES
        assert packed == b"\xff" * 8  # all 64 bits used, none spare

    def test_field_validation(self):
        with pytest.raises(ValueError):
            EccField(mac=1 << 56, mac_check=0, ct_parity=0)
        with pytest.raises(ValueError):
            EccField(mac=0, mac_check=128, ct_parity=0)
        with pytest.raises(ValueError):
            EccField(mac=0, mac_check=0, ct_parity=2)

    def test_word_is_the_packed_lane(self, rng):
        for _ in range(50):
            field = EccField(
                mac=rng.getrandbits(56),
                mac_check=rng.getrandbits(7),
                ct_parity=rng.getrandbits(1),
            )
            assert field.pack() == field.word.to_bytes(ECC_FIELD_BYTES, "little")
            assert EccField.from_word(field.word) == field

    def test_unpack_validation(self):
        with pytest.raises(ValueError):
            EccField.unpack(b"short")

    def test_flip_bit_targets_correct_subfield(self):
        field = EccField(mac=0, mac_check=0, ct_parity=0)
        assert field.flip_bit(0).mac == 1
        assert field.flip_bit(55).mac == 1 << 55
        assert field.flip_bit(56).mac_check == 1
        assert field.flip_bit(62).mac_check == 1 << 6
        assert field.flip_bit(63).ct_parity == 1
        with pytest.raises(ValueError):
            field.flip_bit(64)

    def test_flip_bit_is_involution(self, rng):
        field = EccField(mac=rng.getrandbits(56), mac_check=3, ct_parity=1)
        for position in (0, 31, 56, 63):
            assert field.flip_bit(position).flip_bit(position) == field


class TestMacEccCodec:
    def test_build_produces_consistent_field(self, codec, rng):
        ciphertext = random_block(rng)
        field = codec.build(ciphertext, 0x1000, 42)
        assert field.mac == codec.mac.tag(ciphertext, 0x1000, 42)
        # The Hamming bits must verify the MAC cleanly.
        result = codec.recover_mac(field)
        assert result.status is DecodeStatus.CLEAN
        assert result.data == field.mac

    def test_ct_parity_tracks_ciphertext(self, codec, rng):
        ciphertext = random_block(rng)
        field = codec.build(ciphertext, 0, 0)
        flipped = bytearray(ciphertext)
        flipped[0] ^= 1
        other = codec.build(bytes(flipped), 0, 0)
        assert other.ct_parity == field.ct_parity ^ 1

    def test_recover_single_mac_flip(self, codec, rng):
        ciphertext = random_block(rng)
        field = codec.build(ciphertext, 0x40, 7)
        for position in range(56):
            corrupted = field.flip_bit(position)
            result = codec.recover_mac(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == field.mac

    def test_recover_single_check_flip(self, codec, rng):
        ciphertext = random_block(rng)
        field = codec.build(ciphertext, 0x40, 7)
        for position in range(56, 63):
            corrupted = field.flip_bit(position)
            result = codec.recover_mac(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == field.mac

    def test_double_mac_flip_detected(self, codec, rng):
        ciphertext = random_block(rng)
        field = codec.build(ciphertext, 0x40, 7)
        corrupted = field.flip_bit(3).flip_bit(44)
        assert codec.recover_mac(corrupted).status is DecodeStatus.DETECTED
