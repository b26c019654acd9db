"""Carter-Wegman MAC: verification, nonce binding, and the linearity the
accelerated flip-and-check decoder exploits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import MAC_BITS, MAC_MASK, CarterWegmanMac
from repro.fast.backends import keystream_backends, resolve_backend

blocks = st.binary(min_size=64, max_size=64)


@pytest.fixture(params=keystream_backends())
def mac(request, key24):
    error = resolve_backend(request.param).availability_error()
    if error is not None:
        pytest.skip(error)
    return CarterWegmanMac(key24, mode=request.param)


class TestTagBasics:
    def test_tag_is_56_bits(self, mac, rng):
        for _ in range(10):
            message = bytes(rng.randrange(256) for _ in range(64))
            tag = mac.tag(message, 0x1000, 3)
            assert 0 <= tag <= MAC_MASK

    def test_verify_accepts_valid(self, mac):
        message = b"\x7F" * 64
        tag = mac.tag(message, 0x40, 12)
        assert mac.verify(message, 0x40, 12, tag)

    def test_verify_rejects_modified_message(self, mac):
        message = bytearray(b"\x7F" * 64)
        tag = mac.tag(bytes(message), 0x40, 12)
        message[0] ^= 1
        assert not mac.verify(bytes(message), 0x40, 12, tag)

    def test_verify_rejects_wrong_counter(self, mac):
        """The Bonsai binding: a replayed counter changes the expected
        tag, so stale (data, MAC) pairs fail under the fresh counter."""
        message = b"\x7F" * 64
        tag = mac.tag(message, 0x40, 12)
        assert not mac.verify(message, 0x40, 13, tag)

    def test_verify_rejects_wrong_address(self, mac):
        """Relocation defense: the same data+tag at another address fails."""
        message = b"\x7F" * 64
        tag = mac.tag(message, 0x40, 12)
        assert not mac.verify(message, 0x80, 12, tag)

    def test_deterministic(self, mac):
        message = b"\x01" * 64
        assert mac.tag(message, 1, 1) == mac.tag(message, 1, 1)

    def test_key_separation(self):
        a = CarterWegmanMac(bytes(range(24)))
        b = CarterWegmanMac(bytes(range(1, 25)))
        message = b"\x00" * 64
        assert a.tag(message, 0, 0) != b.tag(message, 0, 0)


class TestValidation:
    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            CarterWegmanMac(b"tiny")

    def test_unknown_mode_rejected(self, key24):
        for mode in ("md5", "aes"):
            with pytest.raises(ValueError, match="reference, fast, aesni"):
                CarterWegmanMac(key24, mode=mode)

    def test_unaligned_message_rejected(self, mac):
        with pytest.raises(ValueError):
            mac.tag(b"x" * 63, 0, 0)

    def test_negative_nonce_rejected(self, mac):
        with pytest.raises(ValueError):
            mac.tag(b"x" * 64, -1, 0)
        with pytest.raises(ValueError):
            mac.tag(b"x" * 64, 0, -1)

    def test_zero_hash_key_remapped(self):
        # A pathological all-zero hash key must not hash everything to 0.
        mac = CarterWegmanMac(bytes(8) + bytes(range(16)))
        assert mac.hash_part(b"\x01" * 64) != 0


class TestLinearity:
    """tag(m ^ e) == tag(m) ^ truncated_hash(e) for fixed nonce."""

    @given(message=blocks, error=blocks)
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_linearity(self, message, error):
        mac = CarterWegmanMac(bytes(range(24)), mode="splitmix")
        mixed = bytes(m ^ e for m, e in zip(message, error))
        assert mac.tag(mixed, 0x100, 5) == mac.tag(
            message, 0x100, 5
        ) ^ mac.hash_delta(error)

    def test_single_bit_syndromes_match_real_flips(self, mac, rng):
        message = bytes(rng.randrange(256) for _ in range(64))
        base = mac.tag(message, 0x200, 9)
        syndromes = mac.single_bit_syndromes(64)
        assert len(syndromes) == 512
        for position in rng.sample(range(512), 24):
            flipped = bytearray(message)
            flipped[position >> 3] ^= 1 << (position & 7)
            assert mac.tag(bytes(flipped), 0x200, 9) == base ^ syndromes[
                position
            ], position

    def test_syndromes_mostly_distinct(self, mac):
        """Distinct syndromes are what make single-bit errors uniquely
        locatable; collisions would only add (verified-away) candidates."""
        syndromes = mac.single_bit_syndromes(64)
        assert len(set(syndromes)) >= 510

    def test_syndrome_length_validation(self, mac):
        with pytest.raises(ValueError):
            mac.single_bit_syndromes(63)


class TestForgery:
    def test_random_forgery_fails(self, mac, rng):
        """A random tag matches with probability 2^-56; 100 attempts must
        all fail."""
        message = b"\x99" * 64
        real = mac.tag(message, 0x40, 1)
        for _ in range(100):
            guess = rng.getrandbits(MAC_BITS)
            if guess == real:
                continue  # astronomically unlikely; skip, not a failure
            assert not mac.verify(message, 0x40, 1, guess)
