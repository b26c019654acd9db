"""The contracts table itself, and its agreement with the runtime.

RL001 keeps *literals* from drifting; these tests keep the contract
module internally consistent and prove the runtime actually derives its
geometry from it (the "one source of truth" property of the ISSUE).
"""

import pytest

from repro.lint import contracts


class TestInternalConsistency:
    def test_validate_passes_at_head(self):
        contracts.validate()

    def test_constants_table_matches_module_attributes(self):
        for name, value in contracts.CONTRACT_CONSTANTS.items():
            if name == "MAC_CHECK_BITS":  # alias of HAMMING_BITS
                assert value == contracts.HAMMING_BITS
                continue
            assert getattr(contracts, name) == value, name

    def test_layouts_are_exhaustive(self):
        ecc = contracts.ECC_FIELD_LAYOUT
        assert sum(f.width for f in ecc.fields) == contracts.ECC_FIELD_BITS
        dual = contracts.DUAL_LENGTH_LAYOUT
        assert (
            sum(f.width for f in dual.fields)
            == contracts.METADATA_BLOCK_BITS
        )

    def test_layout_validation_catches_gaps(self):
        broken = contracts.LayoutSpec(
            name="broken",
            total_bits=16,
            fields=(
                contracts.BitField("a", 0, 7),
                contracts.BitField("b", 8, 8),  # bit 7 uncovered
            ),
        )
        with pytest.raises(ValueError):
            broken.validate()

    def test_widths_and_shifts_derive_from_constants(self):
        assert contracts.MAC_BITS in contracts.CONTRACT_WIDTHS
        assert contracts.MAC_CHECK_SHIFT in contracts.CONTRACT_SHIFTS
        assert contracts.BLOCK_BYTES in contracts.CONTRACT_BYTE_SIZES
        assert contracts.GROUP_BLOCKS in contracts.CONTRACT_MODULI


class TestRuntimeAgreement:
    def test_mac_module_uses_contract_width(self):
        from repro.crypto import mac

        assert mac.MAC_BITS == contracts.MAC_BITS
        assert mac.MAC_MASK == contracts.MAC_MASK

    def test_delta_layout_defaults_are_contracted(self):
        from repro.core.counters import DeltaCounters
        from repro.core.engine.units import PAPER_LAYOUT

        layout = PAPER_LAYOUT
        assert DeltaCounters(contracts.GROUP_BLOCKS).layout == layout
        assert layout.reference_bits == contracts.REFERENCE_BITS
        assert layout.delta_bits == contracts.DELTA_BITS
        assert layout.slots == contracts.GROUP_BLOCKS
        assert layout.bits_per_group <= contracts.METADATA_BLOCK_BITS

    def test_dual_length_layout_matches_figure6_contract(self):
        from repro.core.counters import DualLengthDeltaCounters

        layout = DualLengthDeltaCounters(contracts.GROUP_BLOCKS).layout
        fields = {
            field.name: (field.shift, field.width)
            for field in contracts.DUAL_LENGTH_LAYOUT.fields
        }
        assert fields.pop("reference") == (0, layout.reference_bits)
        assert fields.pop("base_deltas") == (
            layout.deltas_shift,
            layout.slots * layout.delta_bits,
        )
        assert fields.pop("extensions") == (
            layout.extensions_shift,
            layout.deltas_per_delta_group * layout.extension_bits,
        )
        assert fields.pop("widened_index") == (
            layout.index_shift,
            contracts.WIDEN_INDEX_BITS,
        )
        assert fields.pop("widened_valid") == (
            layout.valid_shift,
            contracts.WIDEN_VALID_BITS,
        )
        unused_shift, _ = fields.pop("unused")
        assert unused_shift == layout.bits_per_group
        assert not fields

    def test_engine_config_rejects_unaligned_region(self):
        from repro.core.engine.config import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(protected_bytes=contracts.BLOCK_BYTES + 1)

    def test_ecc_field_geometry_matches_figure2(self):
        from repro.core.ecc_mac.layout import MacEccCodec
        from repro.crypto.mac import CarterWegmanMac

        codec = MacEccCodec(CarterWegmanMac(bytes(range(32)), mode="splitmix"))
        field = codec.build(b"\xaa" * contracts.BLOCK_BYTES, 0, 1)
        assert field.mac <= contracts.MAC_MASK
        assert field.mac_check < (1 << contracts.HAMMING_BITS)
        assert field.ct_parity < (1 << contracts.CT_PARITY_BITS)
        assert len(field.pack()) == contracts.ECC_FIELD_BYTES
