"""Monolithic (SGX-style) counters."""

import numpy as np
import pytest

from repro.core.counters import CounterEvent, MonolithicCounters


class TestBasics:
    def test_counters_start_at_zero(self):
        scheme = MonolithicCounters(128)
        assert all(scheme.counter(b) == 0 for b in range(128))

    def test_write_increments_only_target(self):
        scheme = MonolithicCounters(128)
        outcome = scheme.on_write(5)
        assert outcome.counter == 1
        assert outcome.has(CounterEvent.INCREMENT)
        assert scheme.counter(5) == 1
        assert scheme.counter(4) == 0

    def test_counters_independent(self):
        scheme = MonolithicCounters(64)
        for _ in range(10):
            scheme.on_write(3)
        scheme.on_write(4)
        assert scheme.counter(3) == 10
        assert scheme.counter(4) == 1

    def test_out_of_range_block(self):
        scheme = MonolithicCounters(64)
        with pytest.raises(IndexError):
            scheme.counter(64)
        with pytest.raises(IndexError):
            scheme.on_write(-1)


class TestOverflow:
    def test_wrap_triggers_global_reencryption(self):
        scheme = MonolithicCounters(64, counter_bits=4)
        for _ in range(15):
            scheme.on_write(0)
        assert scheme.counter(0) == 15
        outcome = scheme.on_write(0)
        assert outcome.has(CounterEvent.GLOBAL_RE_ENCRYPT)
        assert scheme.epoch == 1
        # All counters restart in the new epoch.
        assert all(scheme.counter(b) == 0 for b in range(64))
        assert scheme.stats.global_re_encryptions == 1

    def test_56_bit_default_never_overflows_in_practice(self):
        scheme = MonolithicCounters(64)
        assert scheme.counter_bits == 56
        for _ in range(1000):
            assert not scheme.on_write(1).has(
                CounterEvent.GLOBAL_RE_ENCRYPT
            )


class TestNonceLane:
    """The epoch packs above the counter inside the 56-bit nonce lane."""

    def test_nonce_packs_the_epoch_above_the_counter(self):
        scheme = MonolithicCounters(64, counter_bits=2)
        assert scheme.nonce(3) == 3
        for _ in range(4):
            scheme.on_write(0)  # the fourth write wraps
        assert scheme.epoch == 1
        assert scheme.nonce(1) == 0b101
        assert scheme.nonce(1, epoch=0) == 1
        counters = np.array([0, 3], dtype=np.int64)
        assert scheme.nonce(counters).tolist() == [0b100, 0b111]

    def test_full_width_wrap_is_refused_with_state_unchanged(self):
        """At the default 56 bits the first wrap would need epoch 1 at
        bit 56: refused, before the counters, the epoch or the
        statistics move."""
        scheme = MonolithicCounters(64)
        scheme._counters[7] = (1 << 56) - 1
        scheme.on_write(8)
        before = (list(scheme._counters), scheme.epoch, scheme.stats.writes)
        assert scheme.may_overflow(7)
        with pytest.raises(OverflowError, match="nonce lane"):
            scheme.on_write(7)
        after = (list(scheme._counters), scheme.epoch, scheme.stats.writes)
        assert after == before
        assert scheme.nonce((1 << 56) - 1) == (1 << 56) - 1

    def test_last_epoch_of_a_narrow_counter_is_refused(self):
        scheme = MonolithicCounters(64, counter_bits=54)
        scheme.epoch = 2  # epoch 3 still fits: 4 << 54 == 2**56
        scheme._counters[0] = (1 << 54) - 1
        assert scheme.on_write(0).has(CounterEvent.GLOBAL_RE_ENCRYPT)
        assert scheme.nonce((1 << 54) - 1) == (1 << 56) - 1
        scheme._counters[0] = (1 << 54) - 1
        with pytest.raises(OverflowError):
            scheme.on_write(0)
        assert scheme.epoch == 3

    def test_counter_wider_than_the_lane_is_rejected(self):
        MonolithicCounters(64, counter_bits=56)
        with pytest.raises(ValueError, match="nonce lane"):
            MonolithicCounters(64, counter_bits=57)


class TestStorage:
    def test_56bit_overhead_is_ten_ish_percent(self):
        """448 metadata bytes per 4 KB group: the ~11% of Section 2.1."""
        scheme = MonolithicCounters(64 * 16)
        assert scheme.bits_per_group == 56 * 64
        assert scheme.metadata_blocks == 7 * 16
        assert abs(scheme.storage_overhead - 7 / 64) < 1e-9

    def test_metadata_roundtrip(self, rng):
        scheme = MonolithicCounters(128)
        for _ in range(500):
            scheme.on_write(rng.randrange(128))
        for group in range(scheme.num_groups):
            decoded = scheme.decode_metadata(scheme.group_metadata(group))
            expected = [
                scheme.counter(b) for b in scheme.blocks_in_group(group)
            ]
            assert decoded == expected

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MonolithicCounters(0)
        with pytest.raises(ValueError):
            MonolithicCounters(100, blocks_per_group=64)  # not a multiple
        with pytest.raises(ValueError):
            MonolithicCounters(64, counter_bits=0)
