"""Profiling hooks: near-zero-cost probe points for instrumented hot paths.

A :class:`ProbePoint` is created once, at component init, resolving its
registry histogram eagerly (``probe.<name>``).  On the hot path it is
used as a context manager::

    with self._probe_read:          # SecureMemory.read
        ... authenticated read ...

While probes are globally disabled (the default), ``__enter__`` and
``__exit__`` reduce to one class-attribute check each -- no clock reads,
no lookups, and **no allocations**, which
``tests/obs/test_probe.py::test_disabled_probe_is_allocation_free``
enforces.  When enabled (:func:`set_probes` / the :func:`probes`
context manager / the CLI's ``--trace-out``/``--stats`` flags), each
exit observes the span's wallclock duration into the histogram and, if
the active tracer is enabled, emits a Chrome-trace slice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import TracebackType
from typing import Iterator

from repro.obs.metrics import Histogram, MetricRegistry, get_registry
from repro.obs.trace import get_tracer


class _ProbeState:
    """Global enable flag (class attribute: cheap to read, easy to flip)."""

    enabled = False


def probes_enabled() -> bool:
    return _ProbeState.enabled


def set_probes(enabled: bool) -> bool:
    """Set the global probe flag; returns the previous value."""
    previous = _ProbeState.enabled
    _ProbeState.enabled = bool(enabled)
    return previous


@contextmanager
def probes(enabled: bool = True) -> Iterator[None]:
    """Scope the global probe flag over a block of code."""
    previous = set_probes(enabled)
    try:
        yield
    finally:
        set_probes(previous)


class ProbePoint:
    """One named profiling site, resolved against a registry at init.

    Not re-entrant: a probe point guards one non-recursive code path
    (each instrumented component owns its own points).
    """

    __slots__ = ("name", "cat", "_hist", "_start_ns")

    def __init__(
        self,
        name: str,
        cat: str = "probe",
        registry: MetricRegistry | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        registry = registry if registry is not None else get_registry()
        # Resolved once, here -- the hot path never touches the registry.
        self._hist = registry.histogram(f"probe.{name}")
        self._start_ns = 0

    def __enter__(self) -> ProbePoint:
        if _ProbeState.enabled:
            self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        start = self._start_ns
        if start and _ProbeState.enabled:
            self._start_ns = 0
            dur_us = (time.perf_counter_ns() - start) / 1000.0
            self._hist.observe(dur_us)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.complete_now(
                    self.name, dur_us, cat=self.cat, tid=self.cat
                )
        return False

    @property
    def histogram(self) -> Histogram:
        """The registry histogram this point observes into."""
        return self._hist


__all__ = [
    "ProbePoint",
    "probes",
    "probes_enabled",
    "set_probes",
]
