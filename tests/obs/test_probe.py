"""Profiling probes: measurement when enabled, true zero cost when not."""

import tracemalloc

from repro.obs.metrics import MetricRegistry
from repro.obs.probe import (
    ProbePoint,
    probes,
    probes_enabled,
    set_probes,
)
from repro.obs.trace import EventTracer, use_tracer


class TestGlobalFlag:
    def test_default_disabled(self):
        assert probes_enabled() is False

    def test_set_probes_returns_previous(self):
        previous = set_probes(True)
        try:
            assert previous is False
            assert probes_enabled() is True
        finally:
            set_probes(previous)

    def test_probes_context_restores(self):
        with probes(True):
            assert probes_enabled()
        assert not probes_enabled()


class TestProbePoint:
    def test_enabled_probe_observes_duration(self):
        r = MetricRegistry()
        point = ProbePoint("engine.read", registry=r)
        with probes(True):
            with point:
                pass
        hist = r.histogram("probe.engine.read")
        assert hist.count == 1
        assert hist.total >= 0.0
        assert point.histogram is hist

    def test_disabled_probe_observes_nothing(self):
        r = MetricRegistry()
        point = ProbePoint("engine.read", registry=r)
        with point:
            pass
        assert r.histogram("probe.engine.read").count == 0

    def test_enabled_probe_emits_trace_slice(self):
        r = MetricRegistry()
        tracer = EventTracer(enabled=True)
        point = ProbePoint("scrub.sweep", cat="scrub", registry=r)
        with use_tracer(tracer), probes(True):
            with point:
                pass
        [event] = tracer.events
        assert event["ph"] == "X"
        assert event["name"] == "scrub.sweep"
        assert event["cat"] == "scrub"

    def test_disabled_probe_is_allocation_free(self):
        """The whole point of the design: a probe left in a hot path
        costs one attribute check while disabled -- no clock reads and,
        provably, no allocations (everything was resolved at init)."""
        r = MetricRegistry()
        point = ProbePoint("hot.path", registry=r)
        # Warm up any lazy interpreter state before measuring.
        with point:
            pass
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                with point:
                    pass
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "lineno")
        probe_allocs = [
            s for s in stats
            if s.size_diff > 0
            and any("obs/probe.py" in f.filename for f in s.traceback)
        ]
        assert not probe_allocs

    def test_exception_still_records(self):
        r = MetricRegistry()
        point = ProbePoint("x", registry=r)
        with probes(True):
            try:
                with point:
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        assert r.histogram("probe.x").count == 1
