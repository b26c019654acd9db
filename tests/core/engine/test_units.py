"""The Figure 7 hardware units: decode, increment/reset, overflow engine."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.units import (
    PAPER_LAYOUT,
    DecodeUnit,
    IncrementResetUnit,
    OverflowRequest,
    ReencryptionEngine,
    crosscheck_against_scheme,
)
from repro.util.bits import BitWriter


def make_block(reference, deltas, layout=None):
    layout = layout or PAPER_LAYOUT
    writer = BitWriter()
    writer.write(reference, layout.reference_bits)
    for delta in deltas:
        writer.write(delta, layout.delta_bits)
    return writer.to_bytes(64)


class TestFormat:
    def test_paper_geometry_fits(self):
        assert PAPER_LAYOUT.bits_per_group == 504

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            DecodeUnit(replace(PAPER_LAYOUT, delta_bits=8))  # 56 + 512 > 512

    def test_extended_layout_rejected(self):
        # Per-slot extract-and-add cannot see a widened delta's extension.
        with pytest.raises(ValueError):
            DecodeUnit(replace(PAPER_LAYOUT, delta_bits=6, extension_bits=4))


class TestDecodeUnit:
    def test_extract_and_add(self):
        deltas = list(range(64))
        block = make_block(1000, deltas)
        decode = DecodeUnit()
        for slot in (0, 1, 33, 63):
            assert decode.decode(block, slot) == 1000 + slot

    def test_decode_all(self):
        block = make_block(5, [2] * 64)
        assert DecodeUnit().decode_all(block) == [7] * 64

    def test_slot_bounds(self):
        with pytest.raises(IndexError):
            DecodeUnit().decode(make_block(0, [0] * 64), 64)

    def test_latency_constant(self):
        assert DecodeUnit().latency_cycles == 2  # the paper's synthesis


class TestIncrementResetUnit:
    def test_plain_increment(self):
        unit = IncrementResetUnit()
        block = make_block(10, [0] * 64)
        result = unit.increment(block, 5)
        assert not result.overflowed and not result.reset
        assert result.counter == 11
        assert DecodeUnit().decode(result.metadata_block, 5) == 11
        assert DecodeUnit().decode(result.metadata_block, 4) == 10

    def test_overflow_detected_before_increment(self):
        unit = IncrementResetUnit()
        block = make_block(0, [127] + [0] * 63)
        result = unit.increment(block, 0)
        assert result.overflowed
        # The block is untouched -- the engine handles it.
        assert result.metadata_block == block

    def test_reset_fires_on_convergence(self):
        unit = IncrementResetUnit()
        block = make_block(100, [3] * 63 + [2])
        result = unit.increment(block, 63)
        assert result.reset
        assert result.counter == 103
        decoded = DecodeUnit().decode_all(result.metadata_block)
        assert decoded == [103] * 64  # re-labelled, values unchanged


class TestReencryptionEngine:
    def test_reencode_path(self):
        engine = ReencryptionEngine()
        block = make_block(0, [11, 12, 13, 15] + [11] * 60)
        engine.enqueue(OverflowRequest(0x9000, block, 3))
        resolution = engine.process_one()
        assert resolution.reencoded and not resolution.reencrypted
        decoded = DecodeUnit().decode_all(resolution.metadata_block)
        # Counters preserved exactly (pure re-labelling).
        assert decoded == DecodeUnit().decode_all(block)
        assert engine.stats_reencodes == 1

    def test_reencrypt_path(self):
        engine = ReencryptionEngine()
        block = make_block(0, [127] + [0] * 63)
        engine.enqueue(OverflowRequest(0x9000, block, 0))
        resolution = engine.process_one()
        assert resolution.reencrypted
        assert resolution.group_counter == 128
        assert DecodeUnit().decode_all(resolution.metadata_block) == [128] * 64

    def test_buffer_backpressure(self):
        engine = ReencryptionEngine(buffer_capacity=2)
        block = make_block(0, [0] * 64)
        assert engine.enqueue(OverflowRequest(0, block, 0))
        assert engine.enqueue(OverflowRequest(64, block, 0))
        assert not engine.enqueue(OverflowRequest(128, block, 0))
        assert engine.stats_stalls == 1
        engine.drain()
        assert engine.pending == 0
        assert engine.enqueue(OverflowRequest(128, block, 0))

    def test_empty_process(self):
        assert ReencryptionEngine().process_one() is None


class TestCrosscheck:
    """The hardware-shaped datapath must agree with the object model."""

    def test_sequential_laps(self):
        layout = replace(PAPER_LAYOUT, delta_bits=4, slots=16)
        writes = [slot for _ in range(100) for slot in range(16)]
        unit_counters, scheme_counters = crosscheck_against_scheme(
            writes, layout
        )
        assert unit_counters == scheme_counters

    def test_hot_block(self):
        layout = replace(PAPER_LAYOUT, delta_bits=4, slots=16)
        unit_counters, scheme_counters = crosscheck_against_scheme(
            [3] * 200, layout
        )
        assert unit_counters == scheme_counters

    @given(
        writes=st.lists(
            st.integers(min_value=0, max_value=15), min_size=1, max_size=600
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_interleavings(self, writes):
        layout = replace(PAPER_LAYOUT, delta_bits=4, slots=16)
        unit_counters, scheme_counters = crosscheck_against_scheme(
            writes, layout
        )
        assert unit_counters == scheme_counters

    def test_paper_geometry(self, rng):
        writes = [rng.randrange(64) for _ in range(3000)]
        unit_counters, scheme_counters = crosscheck_against_scheme(writes)
        assert unit_counters == scheme_counters
