"""Cross-scheme property tests: the security invariants every counter
representation must uphold, checked under arbitrary write interleavings.

The central one is *nonce freshness*: a block is never encrypted twice
under the same counter value (within one epoch).  Violating it reuses a
keystream, which breaks confidentiality (see
``tests/crypto/test_ctr.py::TestNonceSemantics::test_keystream_reuse_leaks_xor``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import SCHEMES, make_scheme

SMALL_KWARGS = {
    "monolithic": {"counter_bits": 6},
    "split": {"minor_bits": 3},
    "delta": {"delta_bits": 3},
    "dual_length": {"base_delta_bits": 2, "extension_bits": 2},
}

write_sequences = st.lists(
    st.integers(min_value=0, max_value=127), min_size=1, max_size=400
)


def apply_writes(scheme, writes):
    """Replay writes, returning {block: [counters used to encrypt]}."""
    history = {}
    for block in writes:
        outcome = scheme.on_write(block)
        affected = {block: outcome.counter}
        if outcome.reencrypted_group is not None:
            for member in scheme.blocks_in_group(outcome.reencrypted_group):
                affected[member] = outcome.group_counter
        epoch = getattr(scheme, "epoch", 0)
        for member, counter in affected.items():
            history.setdefault(member, []).append((epoch, counter))
    return history


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestInvariantsPerScheme:
    @given(writes=write_sequences)
    @settings(max_examples=30, deadline=None)
    def test_nonce_freshness_and_monotonicity(self, name, writes):
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        history = apply_writes(scheme, writes)
        for block, entries in history.items():
            # No reuse within an epoch...
            assert len(set(entries)) == len(entries), (name, block)
            # ...and strictly increasing within each epoch.
            by_epoch = {}
            for epoch, counter in entries:
                previous = by_epoch.get(epoch)
                assert previous is None or counter > previous, (name, block)
                by_epoch[epoch] = counter

    @given(writes=write_sequences)
    @settings(max_examples=30, deadline=None)
    def test_readback_matches_last_encryption_counter(self, name, writes):
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        history = apply_writes(scheme, writes)
        for block, entries in history.items():
            assert scheme.counter(block) == entries[-1][1], (name, block)

    @given(writes=write_sequences)
    @settings(max_examples=20, deadline=None)
    def test_serialization_equals_live_state(self, name, writes):
        """The decode unit (Figure 7) must reconstruct exactly the
        counters the scheme used -- otherwise decryption diverges."""
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        apply_writes(scheme, writes)
        for group in range(scheme.num_groups):
            decoded = scheme.decode_metadata(scheme.group_metadata(group))
            assert decoded == [
                scheme.counter(b) for b in scheme.blocks_in_group(group)
            ], (name, group)

    @given(writes=write_sequences)
    @settings(max_examples=20, deadline=None)
    def test_replay_equals_the_on_write_loop(self, name, writes):
        """``replay`` (plain segments via ``on_writes``, overflow writes
        via ``on_write``) leaves an ``on_write`` loop's counters and
        statistics."""
        replayed = make_scheme(name, 128, **SMALL_KWARGS[name])
        replayed.replay(writes)
        looped = make_scheme(name, 128, **SMALL_KWARGS[name])
        for block in writes:
            looped.on_write(block)
        for group in range(looped.num_groups):
            assert replayed.group_metadata(group) == looped.group_metadata(
                group
            ), (name, group)
        assert replayed.stats.as_dict() == looped.stats.as_dict()
        assert (
            replayed.stats.per_group_re_encryptions
            == looped.stats.per_group_re_encryptions
        )

    def test_replay_rejects_out_of_range_blocks(self, name):
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        for bad in (-1, 128):
            with pytest.raises(IndexError):
                scheme.replay([0, bad])
        assert scheme.stats.writes == 0

    def test_stats_writes_count(self, name):
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        for i in range(250):
            scheme.on_write(i % 128)
        assert scheme.stats.writes == 250


#: Sequences biased toward one group so the delta escalation ladder
#: (re-encode -> reset -> re-encrypt, Figure 5) actually fires: half the
#: draws land in blocks 0..15 (group 0 at 16-block grouping).
adversarial_sequences = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=127),
    ),
    min_size=1,
    max_size=400,
)


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestRestoreRoundTrip:
    """The durability contract behind crash recovery: restoring a
    group's serialized metadata into a fresh scheme must reproduce every
    counter exactly and re-serialize byte-identically, no matter how
    many re-encodes, resets, widenings, or re-encryptions the writes
    forced (ISSUE 4 satellite: the redo pass depends on this)."""

    @given(writes=adversarial_sequences)
    @settings(max_examples=30, deadline=None)
    def test_restore_round_trips_counters_and_bytes(self, name, writes):
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        apply_writes(scheme, writes)
        clone = make_scheme(name, 128, **SMALL_KWARGS[name])
        if hasattr(scheme, "epoch"):
            clone.epoch = scheme.epoch
        for group in range(scheme.num_groups):
            blob = scheme.group_metadata(group)
            clone.restore_group_metadata(group, blob)
            assert clone.group_metadata(group) == blob, (name, group)
            for block in scheme.blocks_in_group(group):
                assert clone.counter(block) == scheme.counter(block), (
                    name, block,
                )

    @given(writes=adversarial_sequences)
    @settings(max_examples=20, deadline=None)
    def test_restored_scheme_continues_identically(self, name, writes):
        """After a restore, the next write must pick the same fresh
        counter the original would have -- otherwise a recovered machine
        diverges from the pre-crash one on its first write."""
        scheme = make_scheme(name, 128, **SMALL_KWARGS[name])
        apply_writes(scheme, writes)
        clone = make_scheme(name, 128, **SMALL_KWARGS[name])
        if hasattr(scheme, "epoch"):
            clone.epoch = scheme.epoch
        for group in range(scheme.num_groups):
            clone.restore_group_metadata(group, scheme.group_metadata(group))
        probe = writes[-1]
        assert (
            clone.on_write(probe).counter == scheme.on_write(probe).counter
        ), name


class TestSchemeRegistry:
    def test_all_registered(self):
        assert set(SCHEMES) == {
            "monolithic", "split", "delta", "dual_length"
        }

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_scheme("fibonacci", 64)

    def test_compaction_ordering(self):
        """split/delta/dual all pack a 64-block group into one metadata
        block; monolithic needs seven."""
        sizes = {
            name: make_scheme(name, 64).metadata_blocks for name in SCHEMES
        }
        assert sizes["monolithic"] == 7
        assert sizes["split"] == sizes["delta"] == sizes["dual_length"] == 1


class TestEquivalenceUnderIsolatedHotBlock:
    def test_delta_equals_split_when_min_pinned_at_zero(self):
        """Canneal's Table 2 row: with an isolated hot block (neighbours
        never written), reset and re-encode never fire, so 7-bit delta
        re-encrypts exactly as often as a 7-bit-minor split counter."""
        split = make_scheme("split", 64, minor_bits=7)
        delta = make_scheme("delta", 64, delta_bits=7)
        for _ in range(2000):
            split.on_write(5)
            delta.on_write(5)
        assert split.stats.re_encryptions == delta.stats.re_encryptions > 0

    def test_delta_beats_split_under_lockstep(self):
        """Dedup's Table 2 row: lock-step sweeps reset deltas but wrap
        split minors."""
        split = make_scheme("split", 64, minor_bits=4)
        delta = make_scheme("delta", 64, delta_bits=4)
        for lap in range(64):
            for block in range(64):
                split.on_write(block)
                delta.on_write(block)
        assert delta.stats.re_encryptions == 0
        assert split.stats.re_encryptions > 0

    def test_dual_beats_delta_on_single_hot_delta_group(self):
        """Vips/dedup residue: a hot aligned delta-group widens to 10
        bits, so dual-length re-encrypts ~8x less often."""
        delta = make_scheme("delta", 64, delta_bits=7)
        dual = make_scheme("dual_length", 64)
        for _ in range(4096):
            delta.on_write(3)
            dual.on_write(3)
        assert dual.stats.re_encryptions < delta.stats.re_encryptions

    def test_dual_loses_on_straddling_pair(self):
        """Facesim's pathology: two hot blocks in different delta-groups
        of one block-group overflow concurrently; only one can widen."""
        delta = make_scheme("delta", 64, delta_bits=7)
        dual = make_scheme("dual_length", 64)
        for _ in range(2048):
            for hot in (0, 16):  # delta-groups 0 and 1
                delta.on_write(hot)
                dual.on_write(hot)
        assert dual.stats.re_encryptions > delta.stats.re_encryptions
