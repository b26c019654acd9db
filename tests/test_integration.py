"""Cross-layer integration tests.

Each test exercises a full pipeline spanning several packages, checking
consistency properties that no single-module test can see:

* workload -> write-back filter -> counter scheme (the Table 2 pipeline)
  agrees with workload -> timing backend (the Figure 8 pipeline) on
  counter-scheme *event counts* when fed the same eviction stream;
* a fault storm across many blocks is fully healed by scrub + demand
  reads, ending in a byte-identical memory image;
* the storage model's address map and the timing backend's traffic agree
  on which addresses are metadata.
"""

import pytest

from repro.core.counters import make_scheme
from repro.core.ecc_mac.scrubber import Scrubber
from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.core.engine.timing import EncryptionTimingBackend
from repro.harness.runner import WritebackFilter
from repro.memsim.cache.cache import CacheConfig
from repro.memsim.cpu.system import TraceDrivenSystem
from repro.workloads.parsec import profile
from tests.conftest import random_block

REGION = 8 * 1024 * 1024


class TestPipelineConsistency:
    def test_filter_and_timing_backend_agree_on_reencryptions(self):
        """The Table 2 pipeline (explicit filter + scheme replay) and the
        Figure 8 pipeline (hierarchy + timing backend) must drive the
        counter scheme with *equivalent* write-back streams: identical
        event counts are too strict (the hierarchies differ), but both
        must show the same qualitative behaviour per scheme."""
        traces = profile("dedup").traces(
            100_000, REGION // 64, cores=4, seed=3
        )

        # Pipeline A: explicit write-back filter, then replay.
        writebacks, _ = WritebackFilter(
            CacheConfig(size_bytes=128 * 1024, ways=16)
        ).filter([list(t) for t in traces])
        split_a = make_scheme("split", REGION // 64)
        delta_a = make_scheme("delta", REGION // 64)
        for block in writebacks:
            split_a.on_write(block)
            delta_a.on_write(block)

        # Pipeline B: the timing backend's scheme, fed by the hierarchy.
        backend = EncryptionTimingBackend(
            preset("delta_only", protected_bytes=REGION)
        )
        TraceDrivenSystem(backend).run([list(t) for t in traces])

        # dedup's signature must hold in the filter pipeline: delta
        # absorbs overflows through resets/re-encodes.
        assert delta_a.stats.re_encryptions <= split_a.stats.re_encryptions
        assert delta_a.stats.resets + delta_a.stats.re_encodes > 0
        # The timing pipeline runs the *unscaled* 10 MB L3, which absorbs
        # dedup's scaled write footprint entirely -- so its scheme sees
        # at most the A-pipeline's event rate, and certainly no more
        # re-encryptions.
        assert (
            backend.scheme.stats.re_encryptions
            <= delta_a.stats.re_encryptions
        )

    def test_timing_backend_counts_match_demand_traffic(self):
        """Demand reads/writes recorded by the backend must equal the LLC
        misses + writebacks the CPU model generated."""
        traces = profile("canneal").traces(
            20_000, REGION // 64, cores=4, seed=1
        )
        backend = EncryptionTimingBackend(
            preset("combined", protected_bytes=REGION)
        )
        result = TraceDrivenSystem(backend).run([list(t) for t in traces])
        llc_misses = sum(core.llc_misses for core in result.cores)
        assert backend.stats.demand_reads == llc_misses
        assert backend.stats.demand_writes == backend.scheme.stats.writes

    def test_metadata_traffic_stays_in_metadata_region(self):
        """Every DRAM access beyond the protected region must fall inside
        the layout's declared metadata area."""
        backend = EncryptionTimingBackend(
            preset("bmt_baseline", protected_bytes=REGION)
        )
        layout = backend.layout
        # Spot-check the address map directly: all metadata addresses
        # produced for a sample of data addresses are in range.
        for data_address in range(0, REGION, REGION // 64):
            counter_addr = layout.counter_block_address(data_address)
            assert REGION <= counter_addr < layout.total_bytes
            mac_addr = layout.mac_block_address(data_address)
            assert REGION <= mac_addr < layout.total_bytes
            for node in layout.tree_path_addresses(data_address):
                assert layout.tree_base <= node < layout.total_bytes


class TestFaultStormRecovery:
    def test_scrub_then_demand_heal(self, key48, rng):
        """Inject single-bit faults into a quarter of all blocks; the
        scrubber must flag exactly those blocks, and demand reads must
        heal every one back to a byte-identical image."""
        memory = SecureMemory(
            preset("combined", protected_bytes=64 * 1024,
                   keystream_mode="splitmix"),
            key48,
        )
        image = {}
        for block in range(256):
            data = random_block(rng)
            memory.write(block * 64, data)
            image[block * 64] = data

        victims = sorted(rng.sample(range(256), 64))
        for block in victims:
            memory.flip_data_bits(block * 64, [rng.randrange(512)])

        report = Scrubber(memory.codec).scrub(memory.scrub_iter())
        assert report.suspicious_blocks == [b * 64 for b in victims]

        healed = 0
        for address in report.suspicious_blocks:
            result = memory.read(address)
            assert result.data == image[address]
            healed += len(result.corrected_bits)
        assert healed == len(victims)

        # Final sweep: everything byte-identical and clean.
        for address, data in image.items():
            result = memory.read(address)
            assert result.data == data and result.clean
        follow_up = Scrubber(memory.codec).scrub(memory.scrub_iter())
        assert follow_up.suspicious_blocks == []


class TestCrossModePairing:
    def test_every_backend_shares_all_semantics(self, key48, rng):
        """Every available keystream backend, in both families, must
        behave identically at the API level (different bits, same
        structure): roundtrip, fault healing, replay detection."""
        from repro.core.engine.secure_memory import IntegrityError
        from repro.fast.backends import keystream_backends, resolve_backend

        modes = [
            name
            for name in keystream_backends()
            if resolve_backend(name).available()
        ]
        assert {resolve_backend(name).family for name in modes} == {
            "aes",
            "splitmix",
        }
        for mode in modes:
            memory = SecureMemory(
                preset("combined", protected_bytes=16 * 1024,
                       keystream_mode=mode),
                key48,
            )
            data = random_block(rng)
            memory.write(0, data)
            assert memory.read(0).data == data
            memory.flip_data_bits(0, [17])
            assert memory.read(0).data == data
            snapshot = memory.snapshot_block(64)
            memory.write(64, random_block(rng))
            memory.rollback_block(64, snapshot)
            with pytest.raises(IntegrityError):
                memory.read(64)
