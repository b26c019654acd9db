"""The host under the program: its current speed, and a process's memory.

On a shared virtual machine the host's speed changes under the
program: on the 2-vCPU VM this benchmark was sized on, a fixed
pure-Python loop flips between ~1.2 ms and ~2.2 ms from one moment to
the next, and a whole run's raw throughput drifts by 40% from one
minute to the next.  That swamps any bound a benchmark could set.  So measured
time is split into stretches of at least ``INTERVAL_S``, and a fixed
slice of reference work that depends on nothing in ``src/`` runs at
both ends of every stretch, between calls into the program and never
inside a timed region.  Each stretch is scaled to what it would have
taken at the reference speed::

    calibrated = measured * REFERENCE_S / mean(sample before, sample after)

Both sides of a comparison run the same reference work, so a change to
the program moves the calibrated time, while a change in the host's
speed largely does not.  Pairing each stretch with the samples at its
own ends matters: the host's state changes within a pass, and one
factor for a whole pass (the median sample) tracked it worse than no
calibration at all.

The engine workloads are calibrated; the service is not (see
``bench/service.py``).
"""

from __future__ import annotations

import json
import pathlib
import time

#: rounds of the reference loop in one sample (~1.2 ms)
REFERENCE_ROUNDS = 200
#: what one sample takes at reference speed: the fast state of the
#: 2-vCPU VM the steadiness tables in README.md come from
REFERENCE_S = 0.0012
#: close a stretch once it holds this much measured time
INTERVAL_S = 0.05


def reference_work() -> int:
    """A fixed slice of interpreter work: encoding and decoding a
    request-sized dict, and a hex payload.  Of four candidates (this,
    SHA-256 chaining, a pure arithmetic/dict loop, a mix) it tracked
    the engine workloads best."""
    request = {"op": "write", "tenant": "bench-0", "address": 0, "data": "ab" * 64}
    total = 0
    for index in range(REFERENCE_ROUNDS):
        request["address"] = index * 64
        echoed = json.loads(json.dumps(request))
        total += len(bytes.fromhex(echoed["data"]))
    return total


def sample() -> float:
    """Seconds one slice of reference work takes here, now."""
    began = time.perf_counter()
    reference_work()
    return time.perf_counter() - began


class Calibrated:
    """Measured time, calibrated stretch by stretch.

    :meth:`add` accumulates the time of measured calls into the open
    stretch; :meth:`mark` records a sample taken just now, which closes
    the open stretch, if any, and opens the next.  Callers mark once
    :meth:`due` says the stretch is long enough, at a phase's end, and
    right before something to be calibrated on its own.
    """

    def __init__(self, first_sample: float) -> None:
        #: (measured seconds, factor) per closed stretch; the factor is
        #: how much slower than the reference the host ran over it
        self.stretches: list[tuple[float, float]] = []
        self._open_s = 0.0
        self._before = first_sample

    def add(self, seconds: float) -> None:
        self._open_s += seconds

    def due(self) -> bool:
        return self._open_s >= INTERVAL_S

    def mark(self, sample_s: float) -> None:
        if self._open_s:
            factor = (self._before + sample_s) / 2 / REFERENCE_S
            self.stretches.append((self._open_s, factor))
            self._open_s = 0.0
        self._before = sample_s

    def calibrated(self) -> list[float]:
        """Every closed stretch at reference speed."""
        return [seconds / factor for seconds, factor in self.stretches]

    def factor(self) -> float:
        """Measured over calibrated time: the mean slowness."""
        return sum(s for s, _ in self.stretches) / sum(self.calibrated())


def _status_kib(pid: int | str, field: str) -> int:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


class PeakMemory:
    """Peak resident memory a process gains from a starting point.

    Construction resets the kernel's high-water mark (``VmHWM``) and
    notes the resident set; ``peak_mb`` is the high-water mark since,
    minus that.  Memory the process already held -- the interpreter,
    the benchmark's inputs, or, for a forked shard, every page it
    inherited from the load generator -- is left out.
    """

    def __init__(self, pid: int | str = "self") -> None:
        self.pid = pid
        pathlib.Path(f"/proc/{pid}/clear_refs").write_text("5")
        self.base_kib = _status_kib(pid, "VmRSS")

    def peak_mb(self) -> float:
        return (_status_kib(self.pid, "VmHWM") - self.base_kib) / 1024
