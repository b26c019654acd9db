"""Hypothesis differential suite: ``fast(x) == reference(x)`` per kernel.

For every :class:`KernelPair` the batch kernel and its scalar reference
are driven with random batch shapes, keys, counters and addresses --
and, for the ECC lane, injected bit flips -- asserting
bit-identical outputs.  The counter codecs are additionally driven
through random write sequences at tiny field widths so the widen /
reset / re-encode state-machine edges (Figures 5-6) all appear in the
sampled states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.counters import make_scheme
from repro.core.counters.layout import DeltaLayout
from repro.core.engine.tree import node_hash
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.mac import CarterWegmanMac
from repro.ecc.hamming import DecodeStatus, HammingSecDed
from repro.ecc.parity import parity_of_bytes
from repro.fast import counters_batch
from repro.fast.ecc_lane import CHECK_MASK, PARITY_SHIFT, check_bytes
from repro.fast.kernels import (
    TREE_HASH_CROSSOVER,
    build_kernel_table,
    tree_hash_rows,
)
from repro.fast.mac_batch import BatchCarterWegmanMac
from repro.lint.contracts import (
    DELTA_GROUPS,
    GROUP_BLOCKS,
    HAMMING_BITS,
    MAC_BITS,
    REFERENCE_BITS,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
#: the nonce lane every keystream and MAC counter lies in
NONCES = st.integers(min_value=0, max_value=(1 << 56) - 1)
KEYS = st.binary(min_size=48, max_size=48)
BLOCKS = st.lists(st.binary(min_size=64, max_size=64), min_size=1, max_size=6)


def _as_matrix(rows: list) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), 64)


# -- ctr.encrypt -----------------------------------------------------------


@pytest.mark.parametrize("mode", ["reference", "fast", "aesni", "splitmix"])
@settings(max_examples=40, deadline=None)
@given(key=KEYS, rows=BLOCKS, data=st.data())
def test_ctr_keystream_differential(mode, key, rows, data):
    counters = data.draw(
        st.lists(NONCES, min_size=len(rows), max_size=len(rows))
    )
    addresses = data.draw(
        st.lists(U64, min_size=len(rows), max_size=len(rows))
    )
    cipher = CtrModeCipher(key[:16], mode=mode)
    batched = cipher.xor_blocks(_as_matrix(rows), counters, addresses)
    for row, plain, counter, address in zip(
        batched, rows, counters, addresses
    ):
        assert row.tobytes() == cipher.encrypt(plain, counter, address)


# -- mac.tags --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["reference", "fast", "aesni", "splitmix"])
@settings(max_examples=40, deadline=None)
@given(key=KEYS, rows=BLOCKS, data=st.data())
def test_mac_tags_differential(mode, key, rows, data):
    counters = data.draw(
        st.lists(NONCES, min_size=len(rows), max_size=len(rows))
    )
    addresses = data.draw(
        st.lists(U64, min_size=len(rows), max_size=len(rows))
    )
    mac = CarterWegmanMac(key, mode=mode)
    tags = BatchCarterWegmanMac(mac).tags(
        _as_matrix(rows), addresses, counters
    )
    for tag, message, address, counter in zip(
        tags, rows, addresses, counters
    ):
        assert int(tag) == mac.tag(message, address, counter)


# -- ecc.lane --------------------------------------------------------------

TAGS = st.integers(min_value=0, max_value=(1 << MAC_BITS) - 1)
HAMMING = HammingSecDed(MAC_BITS)


def _lane_reference(tag: int, row: bytes) -> int:
    return HAMMING.encode(tag) | parity_of_bytes(row) << PARITY_SHIFT


@settings(max_examples=60, deadline=None)
@given(
    tags=st.lists(TAGS, min_size=1, max_size=8),
    data=st.data(),
)
def test_ecc_lane_differential(tags, data):
    """Check bits over the whole tag vector and parity over random rows
    equal the scalar encode / parity loop."""
    rows = data.draw(
        st.lists(
            st.binary(min_size=64, max_size=64),
            min_size=len(tags),
            max_size=len(tags),
        )
    )
    lane = check_bytes(np.array(tags, dtype=np.uint64), _as_matrix(rows))
    assert lane.tolist() == [
        _lane_reference(tag, row) for tag, row in zip(tags, rows)
    ]


@pytest.mark.parametrize("tag", [0, (1 << MAC_BITS) - 1])
def test_ecc_lane_edge_tags(tag):
    rows = [bytes(64), b"\xff" * 64, bytes([1]) + bytes(63)]
    tags = np.array([tag] * len(rows), dtype=np.uint64)
    lane = check_bytes(tags, _as_matrix(rows))
    assert lane.tolist() == [_lane_reference(tag, row) for row in rows]
    assert [value >> PARITY_SHIFT for value in lane.tolist()] == [0, 0, 1]


@settings(max_examples=80, deadline=None)
@given(
    tag=TAGS,
    flips=st.lists(
        st.integers(0, MAC_BITS + HAMMING_BITS - 1),
        min_size=1,
        max_size=2,
        unique=True,
    ),
)
def test_ecc_lane_clean_verdict_matches_hamming_decode(tag, flips):
    """The read path's clean test -- stored check bits equal the lane's
    encoding of the stored MAC -- agrees with a full SEC-DED decode under
    1- and 2-bit flips in the MAC and in the check bits."""
    mac, check = tag, HAMMING.encode(tag)
    for bit in flips:
        if bit < MAC_BITS:
            mac ^= 1 << bit
        else:
            check ^= 1 << (bit - MAC_BITS)
    row = np.zeros((1, 64), dtype=np.uint8)
    lane = check_bytes(np.array([mac], dtype=np.uint64), row)
    fast_clean = int(lane[0]) & CHECK_MASK == check
    status = HAMMING.decode(mac, check).status
    assert fast_clean == (status is DecodeStatus.CLEAN)
    assert not fast_clean  # every 1- or 2-bit flip is visible


# -- counters.encode / counters.decode -------------------------------------

WRITE_SEQS = st.lists(st.integers(0, 127), min_size=1, max_size=120)


def _check_codec(scheme, groups):
    """Both codec views agree on these groups, packed as one batch."""
    fields = [scheme.group_fields(group) for group in groups]
    reference = [scheme.group_metadata(group) for group in groups]
    assert counters_batch.pack(scheme.layout, fields) == reference
    references, deltas, widened = counters_batch.unpack(
        scheme.layout, reference
    )
    assert (deltas + references[:, None]).tolist() == [
        scheme.decode_metadata(data) for data in reference
    ]
    assert widened.tolist() == [
        -1 if entry[2] is None else entry[2] for entry in fields
    ]


@settings(max_examples=40, deadline=None)
@given(delta_bits=st.integers(2, 7), writes=WRITE_SEQS)
def test_delta_codec_differential(delta_bits, writes):
    scheme = make_scheme("delta", 128, delta_bits=delta_bits)
    for block in writes:
        scheme.on_write(block)
        _check_codec(scheme, [0, 1])


@settings(max_examples=40, deadline=None)
@given(
    base_bits=st.integers(2, 4),
    extension_bits=st.integers(2, 4),
    writes=WRITE_SEQS,
)
def test_dual_length_codec_differential(base_bits, extension_bits, writes):
    scheme = make_scheme(
        "dual_length",
        128,
        base_delta_bits=base_bits,
        extension_bits=extension_bits,
    )
    for block in writes:
        scheme.on_write(block)
        _check_codec(scheme, [0, 1])


def test_dual_length_codec_widen_reset_reencode_edges():
    """Deterministically walk the widen / reset / re-encode / re-encrypt
    edges and check codec equality in every intermediate state."""

    def check(scheme):
        _check_codec(scheme, [0])

    def drive(scheme, blocks):
        events = set()
        for block in blocks:
            outcome = scheme.on_write(block)
            events.update(event.value for event in outcome.events)
            check(scheme)
        return events

    # Lock-step sweeps make every delta converge and fold into the
    # reference (reset); hammering single blocks first widens one
    # delta-group, then forces the overflow paths (re-encode when
    # delta_min can absorb it, re-encrypt when nothing can).
    lockstep = make_scheme(
        "dual_length", 64, base_delta_bits=2, extension_bits=2
    )
    skewed = make_scheme(
        "dual_length", 64, base_delta_bits=2, extension_bits=2
    )
    events = drive(lockstep, list(range(64)) * 2 + [0] * 6 + [63] * 12)
    events |= drive(skewed, [0] * 6 + list(range(64)) * 2 + [63] * 12)
    assert {"reset", "widen", "re_encode", "re_encrypt"} <= events


@settings(max_examples=60, deadline=None)
@given(
    delta_bits=st.integers(2, 7),
    extension_bits=st.integers(0, 4),
    field=st.sampled_from(["reference", "delta", "extension"]),
    slot=st.integers(0, 63),
)
def test_codec_range_checks_agree(delta_bits, extension_bits, field, slot):
    """One field just past its width: both views refuse the group."""
    assume(field != "extension" or extension_bits)
    layout = DeltaLayout(
        REFERENCE_BITS, delta_bits, GROUP_BLOCKS, extension_bits
    )
    per = layout.deltas_per_delta_group
    reference, deltas, widened = 0, [0] * layout.slots, None
    if field == "reference":
        reference = 1 << layout.reference_bits
    elif field == "delta":
        # Outside the widened delta-group, if any, a delta has only
        # ``delta_bits``.
        deltas[slot] = 1 << delta_bits
        if extension_bits:
            widened = (slot // per + 1) % DELTA_GROUPS
    else:
        widened = slot // per
        deltas[slot] = 1 << (delta_bits + extension_bits)
    with pytest.raises(ValueError):
        layout.pack(reference, deltas, widened)
    with pytest.raises(ValueError):
        counters_batch.pack(layout, [(reference, deltas, widened)])


# -- tree.hash -------------------------------------------------------------

TREE_KEY = 0x5EED_0F_7EE


def _tree_hash_table(mode="fast"):
    return build_kernel_table(
        CtrModeCipher(bytes(16), mode="fast"),
        CarterWegmanMac(bytes(48), mode="splitmix"),
        None,
        TREE_KEY,
        mode=mode,
    )


TREE_HASH = _tree_hash_table().pairs["tree.hash"]


@settings(max_examples=30, deadline=None)
@given(
    key=U64,
    level=st.integers(0, 12),
    words=st.sampled_from([8, 16]),
    data=st.data(),
)
@pytest.mark.parametrize("rows", range(1, 2 * TREE_HASH_CROSSOVER + 1))
def test_tree_hash_differential(rows, key, level, words, data):
    """The numpy chain equals ``node_hash`` at every row count, below
    the crossover too; so does the pair's fast side, which answers
    small batches with the scalar loop."""
    datas = data.draw(
        st.lists(
            st.binary(min_size=8 * words, max_size=8 * words),
            min_size=rows,
            max_size=rows,
        )
    )
    indices = data.draw(
        st.lists(st.integers(0, (1 << 48) - 1), min_size=rows, max_size=rows)
    )

    def reference(key):
        return [
            node_hash(key, node, level, index)
            for node, index in zip(datas, indices)
        ]

    assert tree_hash_rows(key, datas, level, indices) == reference(key)
    assert TREE_HASH.fast(datas, level, indices) == reference(TREE_KEY)
    assert TREE_HASH.reference(datas, level, indices) == reference(TREE_KEY)


def test_tree_hash_unequal_rows_take_the_scalar_loop():
    datas = [bytes(64)] * TREE_HASH_CROSSOVER + [bytes(128)]
    indices = list(range(len(datas)))
    assert _tree_hash_table("paranoid").run("tree.hash", datas, 0, indices) == [
        node_hash(TREE_KEY, node, 0, index)
        for node, index in zip(datas, indices)
    ]


# -- every registered KernelPair, via the table ----------------------------


def test_every_kernel_pair_agrees_through_the_table(key48):
    """Drive each pair through KernelTable paranoid mode (which raises on
    the first fast/reference mismatch) with representative inputs."""
    for scheme_name, kwargs in [
        ("delta", {"delta_bits": 3}),
        ("dual_length", {"base_delta_bits": 2, "extension_bits": 2}),
    ]:
        cipher = CtrModeCipher(key48[:16], mode="fast")
        mac = CarterWegmanMac(key48, mode="splitmix")
        scheme = make_scheme(scheme_name, 128, **kwargs)
        for block in (0, 5, 5, 5, 70, 71, 5):
            scheme.on_write(block)
        table = build_kernel_table(
            cipher, mac, scheme, TREE_KEY, mode="paranoid"
        )
        assert set(table.pairs) == {
            "ctr.encrypt",
            "mac.tags",
            "ecc.lane",
            "tree.hash",
            "counters.decode",
            "counters.encode",
        }
        data = np.arange(3 * 64, dtype=np.uint8).reshape(3, 64)
        ciphertexts = table.run(
            "ctr.encrypt", data, [1, 2, 3], [0, 64, 128], blocks=3
        )
        tags = table.run(
            "mac.tags", ciphertexts, [0, 64, 128], [1, 2, 3], blocks=3
        )
        table.run("ecc.lane", tags, ciphertexts, blocks=3)
        metadata = table.run("counters.encode", [0, 1, 0])
        table.run("counters.decode", metadata)
        for rows in (1, TREE_HASH_CROSSOVER, 2 * TREE_HASH_CROSSOVER):
            table.run(
                "tree.hash", [bytes([rows]) * 64] * rows, 2, range(rows)
            )
