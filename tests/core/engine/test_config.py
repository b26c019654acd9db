"""Engine configuration and presets."""

import pytest

from repro.core.counters import (
    DeltaCounters,
    DualLengthDeltaCounters,
    MonolithicCounters,
)
from repro.core.engine.config import PRESETS, EngineConfig, preset


class TestPresets:
    def test_figure8_presets_exist(self):
        for name in ("bmt_baseline", "mac_in_ecc", "delta_only", "combined"):
            assert name in PRESETS

    def test_baseline_shape(self):
        config = preset("bmt_baseline")
        assert config.counter_scheme == "monolithic"
        assert not config.mac_in_ecc
        assert config.counters_per_metadata_block == 8
        assert config.effective_decode_cycles == 0

    def test_combined_shape(self):
        config = preset("combined")
        assert config.counter_scheme == "delta"
        assert config.mac_in_ecc
        assert config.counters_per_metadata_block == 64
        assert config.effective_decode_cycles == 2  # the paper's synthesis

    def test_preset_overrides(self):
        config = preset("combined", protected_bytes=1 << 20)
        assert config.protected_bytes == 1 << 20
        # The registry entry is untouched.
        assert PRESETS["combined"].protected_bytes == 512 * 1024 * 1024

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("turbo")


class TestBuildHelpers:
    def test_build_scheme_types(self):
        assert isinstance(
            preset("bmt_baseline", protected_bytes=1 << 16).build_scheme(),
            MonolithicCounters,
        )
        assert isinstance(
            preset("combined", protected_bytes=1 << 16).build_scheme(),
            DeltaCounters,
        )
        assert isinstance(
            preset("combined_dual", protected_bytes=1 << 16).build_scheme(),
            DualLengthDeltaCounters,
        )

    def test_scheme_kwargs_forwarded(self):
        config = EngineConfig(
            counter_scheme="delta",
            scheme_kwargs={"delta_bits": 5},
            protected_bytes=1 << 16,
        )
        assert config.build_scheme().delta_bits == 5

    def test_build_layout_consistency(self):
        config = preset("combined", protected_bytes=1 << 20)
        layout = config.build_layout()
        assert layout.protected_bytes == 1 << 20
        assert layout.counters_per_block == 64
        assert layout.mac_blocks == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(protected_bytes=100)
        with pytest.raises(ValueError):
            EngineConfig(keystream_mode="rot13")


class TestKeystreamMode:
    """keystream_mode is validated against (and normalized by) the
    backend registry at construction time."""

    def test_default_is_fast(self):
        assert EngineConfig().keystream_mode == "fast"

    def test_every_registered_backend_accepted(self):
        from repro.fast.backends import keystream_backends, resolve_backend

        for name in keystream_backends():
            if resolve_backend(name).availability_error() is not None:
                continue
            assert EngineConfig(keystream_mode=name).keystream_mode == name

    def test_legacy_aes_alias_rejected(self):
        with pytest.raises(ValueError, match="reference/fast/aesni/splitmix"):
            EngineConfig(keystream_mode="aes")

    def test_unknown_backend_names_choices(self):
        with pytest.raises(ValueError, match="aesni"):
            EngineConfig(keystream_mode="rot13")

    def test_preset_override_carries_backend(self):
        config = preset("combined", keystream_mode="splitmix")
        assert config.keystream_mode == "splitmix"
