"""Pinned bytes of the delta-counter layout (Figures 2 and 6).

The scalar codec (``DeltaLayout.pack``/``unpack``), the batch codec
(``repro.fast.counters_batch``) and both schemes share one geometry, so
a geometry slip would move every view together and the fast-vs-reference
differential could not see it.  These hex strings were produced by the
per-scheme serializers that preceded the shared layout; every view must
still produce exactly these bytes.
"""

import pytest

from repro.core.counters import make_scheme
from repro.core.engine.config import preset
from repro.fast import counters_batch
from repro.lint.contracts import REFERENCE_BITS


def _delta_case():
    deltas = [(i * 37 + 11) % 128 for i in range(64)]
    deltas[0], deltas[63] = 127, 0  # both ends of the 7-bit range
    return (
        "delta",
        {},
        0x8123456789ABCD,
        deltas,
        None,
        "cdab89674523817f5855ff21a61d336c5f7464476c5b4049f9a6e4bc0354537e"
        "e1850d2b685df323275c537c477866c4ac7b5051fda065fd23645b72e3060000",
    )


def _dual_length_case():
    deltas = [(i * 29 + 5) % 64 for i in range(64)]
    for i in range(32, 48):  # delta-group 2 holds the extension
        deltas[i] = (i * 53 + 7) % 1024
    deltas[32] = 1023  # every extension bit set
    return (
        "dual_length",
        {},
        0xF0E1D2C3B4A596,
        deltas,
        2,
        "96a5b4c3d2e1f085f873b93543ad7212a1bfe195fcb0893980bd7653b1b3223f"
        "17193b5c6a0f91bb23d608b5f432a931029d7ed191bba0bfdced0f2132547606",
    )


def _endurance_case():
    deltas = [(i * 3 + 1) % 4 for i in range(64)]
    for i in range(48, 64):  # delta-group 3: both index bits set
        deltas[i] = (i * 7 + 2) % 16
    deltas[48] = 15
    config = preset("endurance")
    return (
        config.counter_scheme,
        dict(config.scheme_kwargs),
        (1 << REFERENCE_BITS) - 1,
        deltas,
        3,
        "ffffffffffffffb1b1b1b1b1b1b1b1b1b1b1b1c7c6c6c64b37e29d0700000000"
        "0000000000000000000000000000000000000000000000000000000000000000",
    )


CASES = {
    "delta": _delta_case(),
    "dual_length": _dual_length_case(),
    "endurance": _endurance_case(),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    name, kwargs, reference, deltas, widened, golden = CASES[request.param]
    scheme = make_scheme(name, 64, **kwargs)
    return scheme, reference, deltas, widened, bytes.fromhex(golden)


def test_scalar_pack_matches_pinned_bytes(case):
    scheme, reference, deltas, widened, golden = case
    assert scheme.layout.pack(reference, deltas, widened) == golden


def test_batch_pack_matches_pinned_bytes(case):
    scheme, reference, deltas, widened, golden = case
    fields = (reference, deltas, widened)
    assert counters_batch.pack(scheme.layout, [fields]) == [golden]


def test_unpack_returns_the_inputs(case):
    scheme, reference, deltas, widened, golden = case
    expected = (reference, deltas, widened)
    assert scheme.layout.unpack(golden) == expected
    references, full, widened_rows = counters_batch.unpack(
        scheme.layout, [golden]
    )
    assert references.tolist() == [reference]
    assert full.tolist() == [deltas]
    assert widened_rows.tolist() == [-1 if widened is None else widened]


def test_scheme_serializes_pinned_bytes(case):
    scheme, reference, deltas, widened, golden = case
    scheme.restore_group_metadata(0, golden)
    assert scheme.group_fields(0) == (reference, deltas, widened)
    assert scheme.group_metadata(0) == golden
    assert scheme.decode_metadata(golden) == [reference + d for d in deltas]
