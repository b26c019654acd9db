"""Known-answer tests for the crypto primitives.

The AES core is pinned to the FIPS-197 appendix vectors and, composed
into standard CTR mode, to the NIST SP 800-38A F.5.1 vectors.  The
Carter-Wegman MAC has no external standard (it is the paper's
construction), so its golden vectors are *pinned*: computed once from
the reviewed implementation and frozen here, so any later refactor that
silently changes tag values -- and thereby breaks stored-MAC
compatibility -- fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.aes import AES128
from repro.crypto.mac import CarterWegmanMac
from repro.fast.backends import (
    KeystreamBackend,
    keystream_backends,
    register_backend,
    resolve_backend,
)
from repro.fast.mac_batch import BatchCarterWegmanMac


def _available_backends(family=None):
    out = []
    for name in keystream_backends():
        backend = resolve_backend(name)
        if family is not None and backend.family != family:
            continue
        out.append(
            pytest.param(name, marks=())
            if backend.availability_error() is None
            else pytest.param(
                name,
                marks=pytest.mark.skip(reason=backend.availability_error()),
            )
        )
    return out

# -- FIPS-197 appendix vectors ---------------------------------------------

FIPS197_VECTORS = [
    # Appendix B worked example
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    ),
    # Appendix C.1 AES-128 example vector
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
]


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS197_VECTORS)
def test_fips197_encrypt(key, plaintext, ciphertext):
    aes = AES128(bytes.fromhex(key))
    assert aes.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


# -- the same vectors, through every registered AES-family backend ----------


@pytest.mark.parametrize("backend_name", _available_backends(family="aes"))
@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS197_VECTORS)
def test_fips197_every_aes_backend(backend_name, key, plaintext, ciphertext):
    encryptor = resolve_backend(backend_name).build_encryptor(
        bytes.fromhex(key)
    )
    assert (
        encryptor.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext
    )


@pytest.mark.parametrize("backend_name", _available_backends(family="aes"))
def test_fips197_every_aes_backend_batch(backend_name):
    # The batch entry point must agree with the scalar one on the same
    # standard vectors (stacked in one call).
    for key, plaintext, ciphertext in FIPS197_VECTORS:
        encryptor = resolve_backend(backend_name).build_encryptor(
            bytes.fromhex(key)
        )
        blocks = np.frombuffer(
            bytes.fromhex(plaintext) * 3, dtype=np.uint8
        ).reshape(3, 16)
        out = np.asarray(encryptor.encrypt_blocks(blocks))
        assert out.shape == (3, 16)
        for row in out:
            assert bytes(bytearray(row)).hex() == ciphertext


@pytest.mark.parametrize("backend_name", _available_backends(family="aes"))
def test_sp800_38a_ctr_every_aes_backend(backend_name):
    # Standard CTR mode is ECB over the counter blocks; composing any
    # backend's block encryptor with the NIST counter sequence must
    # reproduce the F.5.1 keystream exactly.
    encryptor = resolve_backend(backend_name).build_encryptor(
        bytes.fromhex(SP800_38A_KEY)
    )
    counter0 = int(SP800_38A_COUNTER0, 16)
    for index, (plain_hex, cipher_hex) in enumerate(SP800_38A_BLOCKS):
        counter = (counter0 + index) % (1 << 128)
        pad = encryptor.encrypt_block(counter.to_bytes(16, "big"))
        plain = bytes.fromhex(plain_hex)
        assert bytes(a ^ b for a, b in zip(plain, pad)).hex() == cipher_hex


# -- pinned engine keystream pads, one per backend family -------------------

KEYSTREAM_KEY = bytes(range(16))

#: family -> 64-byte pad for (counter=5, address=0x1000), frozen from
#: the reviewed implementation; every backend of a family must emit its
#: family's exact bytes, so a new backend cannot silently change what
#: ends up XORed into memory.
KEYSTREAM_GOLDEN = {
    "aes": (
        "7516e0672d1aab2a5792c4ac5b5d2d0edefcf66368b5942d386a66b3de822fb8"
        "8a94296e475cc4bba462e7e74eb3271818b2c2c0134efacf86fa0fee31cf6028"
    ),
    "splitmix": (
        "e618b9f0ed1d41722677971e8440e70e359f425484ab111107d9e72675251f10"
        "ee5839d07ac71da33fa39c98c695b3ddbedb8dbc0be3c5c9c649206cd0f546ca"
    ),
}


@pytest.mark.parametrize("backend_name", _available_backends())
def test_engine_keystream_pinned_per_family(backend_name):
    backend = resolve_backend(backend_name)
    golden = KEYSTREAM_GOLDEN.get(backend.family)
    assert golden is not None, (
        f"backend {backend_name!r} declares family {backend.family!r} "
        "with no pinned keystream vector; add one to KEYSTREAM_GOLDEN"
    )
    engine = backend.build(KEYSTREAM_KEY)
    assert engine.keystream(5, 0x1000, 64).hex() == golden


@pytest.mark.parametrize("backend_name", _available_backends())
def test_engine_pads_batch_matches_pinned(backend_name):
    engine = resolve_backend(backend_name).build(KEYSTREAM_KEY)
    golden = KEYSTREAM_GOLDEN[resolve_backend(backend_name).family]
    pads = np.asarray(engine.pads([5], [0x1000]))
    assert pads.shape == (1, 64)
    assert bytes(bytearray(pads[0])).hex() == golden


# -- registry contract ------------------------------------------------------


def test_registry_lists_expected_backends_in_order():
    assert list(keystream_backends()) == [
        "reference",
        "fast",
        "aesni",
        "splitmix",
    ]


def test_registry_rejects_legacy_alias():
    # "aes" once aliased the fast backend; backends are named only by
    # their registered names now.
    with pytest.raises(ValueError, match="unknown keystream backend"):
        resolve_backend("aes")


def test_registry_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown keystream backend"):
        resolve_backend("nope")


def test_registry_rejects_duplicate_registration():
    existing = resolve_backend("fast")
    with pytest.raises(ValueError, match="duplicate keystream backend"):
        register_backend(
            KeystreamBackend(
                name="fast",
                family=existing.family,
                summary="duplicate",
                encryptor_factory=existing.encryptor_factory,
            )
        )


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS197_VECTORS)
def test_fips197_decrypt(key, plaintext, ciphertext):
    aes = AES128(bytes.fromhex(key))
    assert aes.decrypt_block(bytes.fromhex(ciphertext)).hex() == plaintext


# -- NIST SP 800-38A F.5.1 / F.5.2 (CTR-AES128) ----------------------------

SP800_38A_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
SP800_38A_COUNTER0 = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
SP800_38A_BLOCKS = [
    ("6bc1bee22e409f96e93d7e117393172a", "874d6191b620e3261bef6864990db6ce"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "9806f66b7970fdff8617187bb9fffdff"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "5ae4df3edbd5d35e5b4f09020db03eab"),
    ("f69f2445df4f9b17ad2b417be66c3710", "1e031dda2fbe03d1792170a0f3009cee"),
]


def _nist_ctr(aes: AES128, counter0: int, data: bytes) -> bytes:
    """Standard CTR composition: big-endian 128-bit incrementing counter."""
    out = bytearray()
    for index in range(0, len(data), 16):
        block = (counter0 + index // 16) % (1 << 128)
        pad = aes.encrypt_block(block.to_bytes(16, "big"))
        chunk = data[index : index + 16]
        out.extend(a ^ b for a, b in zip(chunk, pad))
    return bytes(out)


def test_sp800_38a_ctr_encrypt():
    aes = AES128(bytes.fromhex(SP800_38A_KEY))
    counter0 = int(SP800_38A_COUNTER0, 16)
    plaintext = bytes.fromhex("".join(p for p, _ in SP800_38A_BLOCKS))
    expected = "".join(c for _, c in SP800_38A_BLOCKS)
    assert _nist_ctr(aes, counter0, plaintext).hex() == expected


def test_sp800_38a_ctr_decrypt():
    aes = AES128(bytes.fromhex(SP800_38A_KEY))
    counter0 = int(SP800_38A_COUNTER0, 16)
    ciphertext = bytes.fromhex("".join(c for _, c in SP800_38A_BLOCKS))
    expected = "".join(p for p, _ in SP800_38A_BLOCKS)
    assert _nist_ctr(aes, counter0, ciphertext).hex() == expected


# -- pinned Carter-Wegman MAC golden vectors -------------------------------

MAC_KEY = bytes(range(48))
MAC_MSG = bytes((i * 37 + 11) & 0xFF for i in range(64))

#: (family, message, address, counter) -> 56-bit tag, frozen from the
#: reviewed implementation; every backend of the family must produce the
#: exact tag, scalar and batched -- a change here is a stored-MAC format
#: break.
MAC_GOLDEN = [
    ("aes", MAC_MSG, 0x1000, 5, 0xD518EAF217CBCB),
    ("aes", bytes(64), 0, 0, 0xCC02432EFF95E4),
    ("aes", MAC_MSG, 0xDEADBEEF, 123456789, 0xCA045737A2864B),
    ("splitmix", MAC_MSG, 0x1000, 5, 0x24340E5A1F9B0E),
    ("splitmix", bytes(64), 0, 0, 0x2BC1449A827243),
    ("splitmix", MAC_MSG, 0xDEADBEEF, 123456789, 0x891529F2F9C652),
]


@pytest.mark.parametrize("family,message,address,counter,expected", MAC_GOLDEN)
def test_mac_golden_tags(family, message, address, counter, expected):
    checked = 0
    for name in keystream_backends():
        backend = resolve_backend(name)
        if backend.family != family or not backend.available():
            continue
        mac = CarterWegmanMac(MAC_KEY, mode=name)
        assert mac.tag(message, address, counter) == expected, name
        assert mac.verify(message, address, counter, expected)
        tags = BatchCarterWegmanMac(mac).tags(
            np.frombuffer(message, dtype=np.uint8).reshape(1, 64),
            [address],
            [counter],
        )
        assert tags.tolist() == [expected], name
        checked += 1
    assert checked >= 1


def test_mac_golden_hash_part_mode_independent():
    # The universal-hash half depends only on the hash key, not on the
    # masking backend; every backend must agree on this pinned value.
    for mode in keystream_backends():
        if not resolve_backend(mode).available():
            continue
        mac = CarterWegmanMac(MAC_KEY, mode=mode)
        assert mac.hash_part(MAC_MSG) == 0x14938009648226CC


def test_mac_golden_single_bit_syndromes():
    mac = CarterWegmanMac(MAC_KEY, mode="reference")
    syndromes = mac.single_bit_syndromes(64)
    assert len(syndromes) == 512
    assert syndromes[:4] == [
        0x1D3A72F03AC0,
        0x3A74E5E07580,
        0x74E9CBC0EB00,
        0xE9D39781D600,
    ]
