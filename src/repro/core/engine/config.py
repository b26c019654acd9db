"""Engine configuration and the four Figure 8 presets.

===================  ==================  ===============
preset               counters            MAC placement
===================  ==================  ===============
``bmt_baseline``     monolithic 56-bit   separate blocks
``mac_in_ecc``       monolithic 56-bit   in ECC bits
``delta_only``       7-bit delta         separate blocks
``combined``         7-bit delta         in ECC bits
``combined_dual``    dual-length delta   in ECC bits
===================  ==================  ===============

Latency constants: the delta decode unit costs 2 cycles (the paper's own
45 nm synthesis result, Section 5.3); the AES-CTR keystream and the
GF-multiply MAC check are pipelined engines whose fixed latencies apply to
every encrypted configuration equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.counters import make_scheme
from repro.core.counters.base import CounterScheme
from repro.core.engine.layout import MetadataLayout
from repro.lint.contracts import BLOCK_BYTES
from repro.memsim.cache.cache import CacheConfig


class ConfigError(ValueError):
    """An engine/stack composition that cannot work as requested.

    Raised instead of a bare ``ValueError`` wherever the fix is a
    different composition, so the message can name the stack order (or
    option) that does work.
    """


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build a functional or timing engine."""

    counter_scheme: str = "monolithic"
    scheme_kwargs: dict[str, Any] = field(default_factory=dict)
    mac_in_ecc: bool = False
    protected_bytes: int = 512 * 1024 * 1024
    blocks_per_group: int = 64
    metadata_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=8)
    )
    tree_arity: int = 8
    onchip_tree_bytes: int = 3072
    #: keystream backend name from the :mod:`repro.fast.backends`
    #: registry ("reference" | "fast" | "aesni" | "splitmix"); it runs
    #: both the CTR keystream and the MAC's nonce mask
    keystream_mode: str = "fast"
    #: extra read-path cycles for delta decode (paper: 2 at up to 4 GHz)
    decode_cycles: int = 2
    #: pipelined AES-CTR latency hiding the keystream behind the fetch
    crypto_cycles: int = 24
    #: one-cycle-class GF-multiply MAC check plus compare
    mac_check_cycles: int = 2
    #: model re-encryption DRAM traffic (the paper's simulations do not:
    #: "our simulation models do not include the separate re-encryption
    #: logic")
    model_reencryption_traffic: bool = False
    #: speculative integrity verification (standard for Bonsai-tree
    #: engines, incl. SGX): decryption proceeds as soon as the counter
    #: arrives, while the tree walk completes in the background -- tree
    #: node fetches cost DRAM bandwidth but stay off the read critical
    #: path.  Disable to model a strict verify-before-use engine.
    speculative_verification: bool = True

    def __post_init__(self) -> None:
        if self.protected_bytes <= 0 or self.protected_bytes % BLOCK_BYTES:
            raise ValueError("protected_bytes must be a multiple of 64")
        from repro.fast.backends import keystream_backends, resolve_backend

        try:
            backend = resolve_backend(self.keystream_mode)
        except ValueError:
            raise ValueError(
                f"keystream_mode must be one of "
                f"{'/'.join(keystream_backends())} "
                f"(got {self.keystream_mode!r})"
            ) from None
        error = backend.availability_error()
        if error is not None:
            raise ConfigError(
                f"keystream backend {backend.name!r} is unavailable: {error}"
            )

    # -- derived helpers ---------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self.protected_bytes // BLOCK_BYTES

    @property
    def counters_per_metadata_block(self) -> int:
        """How many counters share one 64-byte metadata block."""
        if self.counter_scheme == "monolithic":
            return 8  # SGX-style: 8 x 56-bit slots per block
        # split / delta / dual_length pack a whole group per block.
        return self.blocks_per_group

    @property
    def effective_decode_cycles(self) -> int:
        """Decode latency applies only to encoded counter schemes."""
        if self.counter_scheme in ("delta", "dual_length"):
            return self.decode_cycles
        return 0

    def build_scheme(self) -> CounterScheme:
        """Instantiate the configured counter scheme."""
        kwargs = dict(self.scheme_kwargs)
        if self.counter_scheme != "monolithic":
            kwargs.setdefault("blocks_per_group", self.blocks_per_group)
        return make_scheme(self.counter_scheme, self.total_blocks, **kwargs)

    def build_layout(self) -> MetadataLayout:
        """The metadata address map for this configuration."""
        return MetadataLayout(
            protected_bytes=self.protected_bytes,
            counters_per_block=self.counters_per_metadata_block,
            mac_separate=not self.mac_in_ecc,
            arity=self.tree_arity,
            onchip_tree_bytes=self.onchip_tree_bytes,
        )

    def with_overrides(self, **kwargs: Any) -> EngineConfig:
        """Copy with fields replaced (sweep/ablation helper)."""
        return replace(self, **kwargs)


def _preset(
    counter_scheme: str, mac_in_ecc: bool, **kwargs: Any
) -> EngineConfig:
    return EngineConfig(
        counter_scheme=counter_scheme, mac_in_ecc=mac_in_ecc, **kwargs
    )


PRESETS = {
    # The four systems Figure 8 compares (plus the dual-length variant).
    "bmt_baseline": _preset("monolithic", mac_in_ecc=False),
    "mac_in_ecc": _preset("monolithic", mac_in_ecc=True),
    "delta_only": _preset("delta", mac_in_ecc=False),
    "combined": _preset("delta", mac_in_ecc=True),
    "combined_dual": _preset("dual_length", mac_in_ecc=True),
    # Endurance stress: dual-length counters squeezed to 2+2 bits so the
    # overflow machinery (widen, re-encode, group re-encrypt) fires under
    # modest write volumes instead of lying dormant until ~2^7 writes.
    "endurance": _preset(
        "dual_length",
        mac_in_ecc=True,
        scheme_kwargs={"base_delta_bits": 2, "extension_bits": 2},
    ),
}


def preset(name: str, **overrides: Any) -> EngineConfig:
    """Fetch a named preset, optionally overriding fields."""
    try:
        config = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return config.with_overrides(**overrides) if overrides else config


__all__ = ["ConfigError", "EngineConfig", "PRESETS", "preset"]
