"""Perf-study sweep: keystream x kernel-mode x workers x preset flavors.

``repro study`` answers "which configuration is fastest, and what does
each safety knob cost?" with one artifact.  It times the parallel bench
(:mod:`repro.harness.parallel`) once per *flavor* -- a point in the
``keystream backend x kernel mode x worker count x preset`` grid --
summarizes each run as it finishes, then compares the summaries per
group (speedups against the scalar ``reference`` backend, the
``aesni``-vs-``fast`` ratio the perf gate ratchets on, cross-backend
state-digest agreement) and emits everything as ``BENCH_study.json``.

Methodology (after the flavor-sweep study harnesses of perf-tools):

* **Timing runs are sequential.**  Flavors never race each other for
  cores, so the wall-clock numbers are comparable within one payload.
* **Summaries are inline.**  Summarizing a flavor is a few dict
  lookups (tens of microseconds), far less than starting a process
  pool would cost.
* **Correctness rides along.**  Every flavor's per-app state digests
  travel into the payload; AES-family backends (``reference`` /
  ``fast`` / ``aesni``) must agree bit-for-bit within a group, so a
  backend cannot "win" the sweep by computing the wrong ciphertext.

The mode axis takes kernel-mode tokens (``fast``, ``paranoid``,
``sampled:N``; see :func:`repro.fast.kernels.parse_mode`).

Wall-clock numbers vary across hosts; like ``BENCH_perf.json``, the
committed ``BENCH_study.json`` is a recorded baseline, not a
byte-reproducible artifact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.fast.backends import keystream_backends, resolve_backend
from repro.fast.kernels import parse_mode
from repro.harness.parallel import BenchSpec, run_bench

STUDY_SCHEMA = "repro.study/1"

#: default flavor grid: every backend, plain-fast plus sampled
#: verification, serial and sharded -- 16 flavors on one preset
DEFAULT_KEYSTREAMS = ("reference", "fast", "aesni", "splitmix")
DEFAULT_MODES = ("fast", "sampled:32")
DEFAULT_WORKERS = (1, 2)
DEFAULT_PRESETS = ("combined",)


@dataclass(frozen=True)
class Flavor:
    """One point in the sweep grid."""

    preset: str
    keystream: str
    mode_token: str
    workers: int

    @property
    def label(self) -> str:
        return (
            f"{self.preset}/{self.keystream}/{self.mode_token}"
            f"/w{self.workers}"
        )

    @property
    def group(self) -> str:
        """Comparison group: flavors differing only by keystream."""
        return f"{self.preset}/{self.mode_token}/w{self.workers}"

    def bench_spec(self, spec: "StudySpec") -> BenchSpec:
        return BenchSpec(
            apps=spec.apps,
            mode=self.mode_token,
            accesses=spec.accesses,
            region_mb=spec.region_mb,
            cores=spec.cores,
            seed=spec.seed,
            preset=self.preset,
            keystream=self.keystream,
        )


@dataclass(frozen=True)
class StudySpec:
    """The full sweep request."""

    apps: tuple = ("stream", "gups")
    accesses: int = 5_000
    region_mb: int = 4
    cores: int = 2
    seed: int = 1
    keystreams: tuple = DEFAULT_KEYSTREAMS
    modes: tuple = DEFAULT_MODES
    workers: tuple = DEFAULT_WORKERS
    presets: tuple = DEFAULT_PRESETS

    def config_dict(self) -> dict:
        return {
            "apps": sorted(self.apps),
            "accesses": self.accesses,
            "region_mb": self.region_mb,
            "cores": self.cores,
            "seed": self.seed,
            "keystreams": list(self.keystreams),
            "modes": list(self.modes),
            "workers": list(self.workers),
            "presets": list(self.presets),
        }

    def flavors(self) -> tuple[list[Flavor], dict[str, str]]:
        """Expand the grid; unavailable backends are skipped, with the
        reason recorded so the payload is honest about coverage."""
        skipped: dict[str, str] = {}
        out: list[Flavor] = []
        for name in self.keystreams:
            backend = resolve_backend(name)  # raises on unknown names
            error = backend.availability_error()
            if error is not None:
                skipped[name] = error
                continue
            for preset_name in self.presets:
                for token in self.modes:
                    parse_mode(token)  # validate before sweeping
                    for workers in self.workers:
                        out.append(
                            Flavor(
                                preset=preset_name,
                                keystream=name,
                                mode_token=token,
                                workers=workers,
                            )
                        )
        return out, skipped


def run_flavor(flavor: Flavor, spec: StudySpec) -> dict:
    """Time one flavor's bench run and summarize it."""
    started = time.perf_counter()
    payload = run_bench(flavor.bench_spec(spec), workers=flavor.workers)
    elapsed = time.perf_counter() - started
    results = payload["results"]
    metrics = payload["metrics"]
    writebacks = sum(app["writebacks"] for app in results.values())
    return {
        "preset": flavor.preset,
        "keystream": flavor.keystream,
        "mode": flavor.mode_token,
        "workers": flavor.workers,
        "family": resolve_backend(flavor.keystream).family,
        "group": flavor.group,
        "elapsed_seconds": round(elapsed, 4),
        "writebacks": writebacks,
        "blocks_per_second": round(writebacks / elapsed, 1) if elapsed else 0.0,
        "readback_mismatches": sum(
            app["readback_mismatches"] for app in results.values()
        ),
        "state_digests": {
            app: results[app]["state_digest"] for app in sorted(results)
        },
        "paranoid": {
            name.rsplit(".", 1)[1]: metrics[name]
            for name in sorted(metrics)
            if name.startswith("fast.paranoid.")
        },
    }


def _compare_groups(flavors: dict[str, dict]) -> dict:
    """Per-group cross-backend comparison (speedups + digest agreement)."""
    groups: dict[str, dict[str, dict]] = {}
    for summary in flavors.values():
        groups.setdefault(summary["group"], {})[summary["keystream"]] = summary
    comparisons: dict[str, dict] = {}
    for group, by_keystream in sorted(groups.items()):
        entry: dict = {"keystreams": sorted(by_keystream)}
        reference = by_keystream.get("reference")
        if reference is not None:
            entry["speedup_vs_reference"] = {
                name: round(
                    reference["elapsed_seconds"]
                    / summary["elapsed_seconds"],
                    2,
                )
                for name, summary in sorted(by_keystream.items())
                if summary["elapsed_seconds"]
            }
        fast = by_keystream.get("fast")
        aesni = by_keystream.get("aesni")
        if fast is not None and aesni is not None and aesni["elapsed_seconds"]:
            entry["aesni_vs_fast"] = round(
                fast["elapsed_seconds"] / aesni["elapsed_seconds"], 2
            )
        # AES-family backends run the same construction: their engine
        # end states must be bit-identical per app.
        aes_family = [
            summary
            for summary in by_keystream.values()
            if summary["family"] == "aes"
        ]
        if aes_family:
            digests = {
                json.dumps(summary["state_digests"], sort_keys=True)
                for summary in aes_family
            }
            entry["aes_family_digest_agreement"] = len(digests) == 1
        comparisons[group] = entry
    return comparisons


def run_study(spec: StudySpec) -> dict:
    """Run the sweep: one timed bench run per flavor, in sequence."""
    flavor_list, skipped = spec.flavors()
    flavors = {
        flavor.label: run_flavor(flavor, spec) for flavor in flavor_list
    }
    comparisons = _compare_groups(flavors)
    agreement = all(
        entry.get("aes_family_digest_agreement", True)
        for entry in comparisons.values()
    )
    mismatches = sum(
        summary["readback_mismatches"] for summary in flavors.values()
    )
    return {
        "schema": STUDY_SCHEMA,
        "bench": "study",
        "config": spec.config_dict(),
        "flavors": flavors,
        "comparisons": comparisons,
        "skipped_backends": skipped,
        "summary": {
            "flavors": len(flavors),
            "keystreams_available": [
                name
                for name in keystream_backends()
                if name in spec.keystreams and name not in skipped
            ],
            "readback_mismatches": mismatches,
            "aes_family_digest_agreement": agreement,
        },
    }


__all__ = [
    "STUDY_SCHEMA",
    "Flavor",
    "StudySpec",
    "run_flavor",
    "run_study",
]
