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

    def test_many_equals_the_per_field_constructor(self, rng):
        rows = [
            (rng.getrandbits(56), rng.getrandbits(7), rng.getrandbits(1))
            for _ in range(50)
        ] + [((1 << 56) - 1, 127, 1), (0, 0, 0)]
        macs, checks, parities = (list(column) for column in zip(*rows))
        fields = EccField.many(macs, checks, parities)
        assert fields == [EccField(*row) for row in rows]
        assert EccField.many([], [], []) == []

    @pytest.mark.parametrize(
        "column,value",
        [(0, 1 << 56), (0, -1), (1, 128), (1, -1), (2, 2)],
    )
    def test_many_validates_each_column_like_the_constructor(
        self, column, value
    ):
        columns = [[5, 6], [7, 8], [0, 1]]
        columns[column][1] = value
        row = [columns[0][1], columns[1][1], columns[2][1]]
        with pytest.raises(ValueError) as expected:
            EccField(*row)
        with pytest.raises(ValueError) as raised:
            EccField.many(*columns)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError):
            EccField.many([1, 2], [3], [0, 1])

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
