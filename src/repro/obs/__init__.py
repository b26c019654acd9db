"""Observability subsystem: the shared instrumentation plane.

The paper's claims are accounting claims -- metadata traffic eliminated,
re-encryptions avoided, IPC recovered -- so every layer of the stack
needs to count the same way, on the same timebase, into the same place.
This package provides that plane:

* :mod:`repro.obs.metrics` -- a process-wide registry of typed counters,
  gauges and histograms with labels and hierarchical dotted names
  (``engine.read.mac_check``, ``dram.ctrl.row_hit``,
  ``counters.delta.reencode``), plus snapshot/diff and JSON export.
  The existing ad-hoc stat structs (``EngineCounters``,
  ``ControllerStats``, ``TimingStats``, ``CacheStats``, ``DramStats``,
  ``CounterStats``) are now thin views over registry counters.
* :mod:`repro.obs.trace` -- a bounded-ring-buffer structured event
  tracer with wallclock *and* simulated-cycle timestamps, exporting
  Chrome ``trace_event`` JSON that opens directly in Perfetto.
* :mod:`repro.obs.probe` -- context-manager/decorator profiling hooks
  with a global enable flag; instrumented hot paths resolve their
  metric objects once at init and cost ~nothing while disabled.
* :mod:`repro.obs.report` -- the ``repro stats`` terminal report: top
  spans, per-component counters, and the traffic breakdown by metadata
  class (data / MAC / counter / tree).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    RegistryView,
    get_registry,
    use_registry,
)
from repro.obs.probe import (
    ProbePoint,
    probes,
    probes_enabled,
    set_probes,
)
from repro.obs.report import render_report, traffic_breakdown
from repro.obs.trace import EventTracer, get_tracer, use_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricsSnapshot",
    "RegistryView",
    "get_registry",
    "use_registry",
    "EventTracer",
    "get_tracer",
    "use_tracer",
    "ProbePoint",
    "probes",
    "probes_enabled",
    "set_probes",
    "render_report",
    "traffic_breakdown",
]
