"""The fronthaul flight recorder: metrics, tracing, deadline accounting.

RANBooster middleboxes "expose monitoring and management interfaces ...
to send telemetry data to applications" (Section 3.2).  This package is
that layer made first-class:

- :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry with label
  sets and atomic snapshots;
- :mod:`repro.obs.recorder` — per-packet span traces keyed by
  ``(eAxC, frame/slot/symbol, direction, seq)`` in a bounded ring,
  exportable as JSONL and Chrome ``trace_event`` JSON;
- :mod:`repro.obs.exposition` — Prometheus text / JSON / plain-text
  dashboard renderers;
- :mod:`repro.obs.deadline` — per-slot modelled latency vs the O-RAN
  symbol-timing windows (the observable Figure 15a);
- :mod:`repro.obs.sketch` — mergeable DDSketch-style quantile sketches,
  the registry's fourth metric kind (cross-shard percentiles without
  raw arrays);
- :mod:`repro.obs.stream` — the streaming telemetry plane: per-epoch
  worker flushes folded live by the coordinator;
- :mod:`repro.obs.slo` — declarative SLOs with sliding-window burn-rate
  alerting over the stream;
- :mod:`repro.obs.live` — the live terminal view over a telemetry
  stream (``python examples/obs_top.py``) and the seed-stable
  exposition ``tests/scale/test_obs_live_golden.py`` pins.

The whole datapath (middleboxes, chains, the four reference apps) is
instrumented against one :class:`Observability` handle.  **Disabled is
the default and must stay near-free**: every instrumentation site
guards on ``obs.enabled`` — a single attribute read — before touching
the registry or recorder, and the overhead is pinned by
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import time

from repro.obs.deadline import (
    DeadlineAccountant,
    SLOT_BUDGET_NS,
    SlotAccount,
    account_middleboxes,
)
from repro.obs.exposition import (
    render_dashboard,
    render_prometheus,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_NS_BUCKETS,
    Gauge,
    Histogram,
    MetricMergeError,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder, PacketSpan, SpanEvent, SpanKey
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    Sketch,
    SketchMergeError,
)
from repro.obs.slo import (
    EpochSample,
    SloAlert,
    SloEngine,
    SloSpec,
    default_slos,
)
from repro.obs.stream import GroupStreamSource, TelemetryStream
from repro.obs.live import (
    deterministic_exposition,
    render_live,
)


class Observability:
    """One handle bundling the registry, the recorder, and the switch.

    ``enabled`` is the master switch every instrumentation site checks
    first; with it False the datapath pays one attribute read per packet.
    ``sample_every`` decimates span recording (metrics always count every
    packet once enabled; spans can be sampled because they are the
    expensive part).  ``clock`` returns integer nanoseconds and is
    injectable so golden tests produce deterministic traces.
    """

    __slots__ = (
        "enabled",
        "registry",
        "recorder",
        "sample_every",
        "clock",
        "_ticket",
        "_children",
        "_children_epoch",
    )

    def __init__(
        self,
        enabled: bool = False,
        sample_every: int = 1,
        clock=time.perf_counter_ns,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder()
        self.sample_every = sample_every
        self.clock = clock
        self._ticket = 0
        self._children: dict = {}
        self._children_epoch = None

    def sample_positions(self, count: int) -> range:
        """Span sampling for a burst of ``count`` packets: the positions
        in it of every ``sample_every``-th packet this handle has seen
        (the first packet ever is sampled)."""
        first = -self._ticket % self.sample_every
        self._ticket += count
        return range(first, count, self.sample_every)

    def children(self, resolve, *labels):
        """``resolve(registry, *labels)``, memoised: the datapath's one
        cached-children lookup.

        ``resolve`` is a :func:`repro.obs.metrics.declare` result (one
        child) or a module-level function returning the children one
        site updates together.  The memo is dropped whole when
        ``registry`` is swapped, cleared or loses a family: a cached
        child would otherwise count into a family nothing exports.
        """
        registry = self.registry
        if self._children_epoch is not registry.epoch:
            self._children = {}
            self._children_epoch = registry.epoch
        key = (resolve, labels)
        found = self._children.get(key)
        if found is None:
            found = self._children[key] = resolve(registry, *labels)
        return found

    def reset(self) -> None:
        """Drop all collected series and spans (between experiment runs)."""
        self.registry.clear()
        self.recorder.clear()
        self._ticket = 0


#: The module-level default handle: instrumented components fall back to
#: this when not given their own.  Disabled by default — production-off,
#: like a real flight recorder armed only when asked.
DEFAULT_OBSERVABILITY = Observability(enabled=False)


__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "DEFAULT_OBSERVABILITY",
    "DEFAULT_RELATIVE_ACCURACY",
    "DeadlineAccountant",
    "EpochSample",
    "FlightRecorder",
    "Gauge",
    "GroupStreamSource",
    "Histogram",
    "MetricMergeError",
    "MetricsRegistry",
    "Observability",
    "PacketSpan",
    "QuantileSketch",
    "SLOT_BUDGET_NS",
    "Sketch",
    "SketchMergeError",
    "SloAlert",
    "SloEngine",
    "SloSpec",
    "SlotAccount",
    "SpanEvent",
    "SpanKey",
    "TelemetryStream",
    "account_middleboxes",
    "default_slos",
    "deterministic_exposition",
    "render_dashboard",
    "render_live",
    "render_prometheus",
]
