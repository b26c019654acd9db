"""Ablation: flip-and-check correction cost (Section 3.4).

Paper: correcting a single-bit error needs at most 512 MAC checks; a
double-bit error at most C(512,2) = 130,816 pair checks -- feasible only
because a GF-multiply MAC evaluates in ~1 hardware cycle and DRAM faults
are rare.  This bench measures the check counts of the literal brute-force
algorithm and of the linearity-accelerated variant the library adds.
"""

import random

import pytest

from repro.core.ecc_mac.correction import (
    CorrectionMethod,
    FlipAndCheckCorrector,
)
from repro.crypto.mac import CarterWegmanMac
from repro.harness.reporting import format_table


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(77)
    mac = CarterWegmanMac(bytes(range(24)), mode="splitmix")
    corrector = FlipAndCheckCorrector(mac)
    data = bytes(rng.randrange(256) for _ in range(64))
    tag = mac.tag(data, 0x40, 9)
    return rng, mac, corrector, data, tag


def _flip(data, positions):
    out = bytearray(data)
    for p in positions:
        out[p >> 3] ^= 1 << (p & 7)
    return bytes(out)


def test_correction_cost_model(benchmark, setup, record_exhibit):
    rng, mac, corrector, data, tag = setup

    # Brute-force single-bit: average over sampled positions.
    brute_single = []
    fast_single = []
    for position in rng.sample(range(512), 16):
        corrupted = _flip(data, [position])
        brute_single.append(
            corrector.correct_brute_force(corrupted, 0x40, 9, tag).checks
        )
        fast_single.append(
            corrector.correct_accelerated(corrupted, 0x40, 9, tag).checks
        )

    # Double-bit: brute force is O(pairs); sample early pairs to keep the
    # run bounded, and report the worst-case model alongside.
    pair = (5, 23)
    brute_double = corrector.correct_brute_force(
        _flip(data, pair), 0x40, 9, tag
    ).checks
    fast_double = []
    for _ in range(8):
        random_pair = rng.sample(range(512), 2)
        fast_double.append(
            corrector.correct_accelerated(
                _flip(data, random_pair), 0x40, 9, tag
            ).checks
        )

    rows = [
        ["single, brute force (paper bound 512)",
         max(brute_single), sum(brute_single) // len(brute_single)],
        ["single, accelerated", max(fast_single),
         sum(fast_single) // len(fast_single)],
        ["double, brute force (paper bound 131,328)", brute_double, "-"],
        ["double, accelerated", max(fast_double),
         sum(fast_double) // len(fast_double)],
    ]
    table = format_table(
        "Section 3.4 ablation -- MAC evaluations per correction",
        ["configuration", "max checks", "mean checks"],
        rows,
    )
    table += (
        f"\n\nworst-case model: single="
        f"{FlipAndCheckCorrector.worst_case_checks(1)}, double="
        f"{FlipAndCheckCorrector.worst_case_checks(2)}"
    )
    record_exhibit("ablation_correction_cost", table)

    assert max(brute_single) <= 512
    assert max(fast_single) <= 4
    assert brute_double <= FlipAndCheckCorrector.worst_case_checks(2)
    # Acceleration: syndrome decoding cuts double correction from up to
    # ~131k MAC evaluations to a handful of confirmations.
    assert max(fast_double) <= 16

    corrupted = _flip(data, [300])
    benchmark(
        corrector.correct, corrupted, 0x40, 9, tag,
        method=CorrectionMethod.ACCELERATED,
    )
