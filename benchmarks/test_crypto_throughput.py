"""Micro-benchmarks of the crypto substrate.

Not a paper exhibit -- these time the building blocks so regressions in
the hot paths (MAC evaluation dominates flip-and-check; the keystream
dominates functional-engine tests) are visible, per keystream backend.
"""

import pytest

from repro.crypto.aes import AES128
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.gf import GF64
from repro.crypto.mac import CarterWegmanMac
from repro.fast.backends import keystream_backends, resolve_backend


@pytest.fixture(scope="module")
def block():
    return bytes(range(64))


def test_aes_block_encrypt(benchmark):
    cipher = AES128(bytes(range(16)))
    benchmark(cipher.encrypt_block, bytes(16))


def test_gf64_multiply(benchmark):
    benchmark(GF64.mul, 0xDEADBEEFCAFEBABE, 0x123456789ABCDEF0)


def _backends():
    """Registered backends worth timing: ``reference`` is ``fast``'s
    scalar path, so it is left out; unavailable ones are skipped."""
    return [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                not resolve_backend(name).available(),
                reason=str(resolve_backend(name).availability_error()),
            ),
        )
        for name in keystream_backends()
        if name != "reference"
    ]


@pytest.mark.parametrize("backend", _backends())
def test_mac_tag(benchmark, block, backend):
    mac = CarterWegmanMac(bytes(range(24)), mode=backend)
    benchmark(mac.tag, block, 0x1000, 42)


@pytest.mark.parametrize("backend", _backends())
def test_ctr_encrypt(benchmark, block, backend):
    cipher = CtrModeCipher(bytes(range(16)), mode=backend)
    benchmark(cipher.encrypt, block, 42, 0x1000)


def test_counter_scheme_write_throughput(benchmark):
    from repro.core.counters import DeltaCounters

    scheme = DeltaCounters(1 << 14)
    counter = iter(range(10**9))

    def write():
        scheme.on_write(next(counter) % (1 << 14))

    benchmark(write)
