"""Synthetic workload generation (the PARSEC 2.1 stand-in).

The paper drives its evaluation with PARSEC 2.1 (sim-med inputs, 4
threads).  Running PARSEC binaries is impossible here, but the results the
paper reports depend on a handful of measurable per-application traits:
memory intensity (how often the LLC misses), write intensity, and -- most
importantly for the counter schemes -- the *shape* of the write stream:

* full sequential sweeps make neighbouring counters converge (delta
  resets fire; dedup),
* strided/partial sweeps leave zero deltas behind (no reset, no
  re-encode; vips),
* scattered writes over a hot set grow counters unevenly (canneal),
* concurrated multi-tile bursts overflow several delta-groups at once
  (the facesim pathology that hurts dual-length encoding).

:mod:`repro.workloads.patterns` provides those primitive generators;
:mod:`repro.workloads.parsec` composes them into one profile per
benchmark application, with the trait values documented per app.
"""

from repro.workloads.parsec import (
    PARSEC_PROFILES,
    ParsecProfile,
    profile,
    table2_apps,
    figure8_apps,
)
from repro.workloads.micro import MICRO_PROFILES, micro_profile
from repro.workloads.patterns import (
    PatternMix,
    sequential_stream,
    strided_sweep,
    tile_burst,
    uniform_scatter,
    zipf_hot_set,
)


def resolve_profile(name: str) -> ParsecProfile:
    """A PARSEC application or a microbenchmark, by name."""
    if name in MICRO_PROFILES:
        return micro_profile(name)
    return profile(name)


__all__ = [
    "PARSEC_PROFILES",
    "ParsecProfile",
    "profile",
    "resolve_profile",
    "table2_apps",
    "figure8_apps",
    "MICRO_PROFILES",
    "micro_profile",
    "PatternMix",
    "sequential_stream",
    "strided_sweep",
    "tile_burst",
    "uniform_scatter",
    "zipf_hot_set",
]
