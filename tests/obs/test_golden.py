"""Golden tests: exact exposition bytes and one flight-recorder trace.

The exposition renderers promise deterministic output (families and label
sets sorted); these tests pin the exact text so any accidental format
drift — which would break real scrapers — fails loudly.
"""

import itertools

from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.obs import (
    MetricsRegistry,
    Observability,
    render_dashboard,
    render_prometheus,
)

GOLDEN_PROMETHEUS = """\
# HELP fh_latency_ns processing latency
# TYPE fh_latency_ns histogram
fh_latency_ns_bucket{le="100"} 1
fh_latency_ns_bucket{le="1000"} 2
fh_latency_ns_bucket{le="+Inf"} 3
fh_latency_ns_sum 6050
fh_latency_ns_count 3
# HELP fh_packets_total packets seen
# TYPE fh_packets_total counter
fh_packets_total{port="du"} 3
# HELP fh_queue_depth queue depth
# TYPE fh_queue_depth gauge
fh_queue_depth 2
"""

GOLDEN_JSONL = (
    '{"class": "DL C-Plane", "direction": "DL", "dropped": false,'
    ' "eaxc": 0, "emitted": 1, "events": [{"cost_ns": 50.0,'
    ' "kind": "A1.route", "location": "kernel"}], "frame": 8,'
    ' "group": "", "middlebox": "wire", "modeled_ns": 50.0, "seq": 42,'
    ' "shard": -1, "slot": 1, "stage": 0, "start_ns": 1000,'
    ' "subframe": 1, "symbol": 3, "wall_ns": 250.0}'
)


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "fh_packets_total", "packets seen", labels=("port",)
    ).labels("du").inc(3)
    registry.gauge("fh_queue_depth", "queue depth").set(2)
    latency = registry.histogram(
        "fh_latency_ns", "processing latency", buckets=(100.0, 1000.0)
    )
    for value in (50, 800, 5200):
        latency.observe(value)
    return registry


def test_prometheus_exposition_golden():
    assert render_prometheus(sample_registry()) == GOLDEN_PROMETHEUS


def test_prometheus_empty_registry_is_empty_string():
    assert render_prometheus(MetricsRegistry()) == ""


def test_dashboard_sections():
    text = render_dashboard(sample_registry(), title="golden run")
    assert "golden run".center(72) in text
    assert "counters" in text and "gauges" in text and "histograms" in text
    assert "fh_packets_total{port=du}" in text


def test_flight_recorder_jsonl_golden():
    """One passthrough traversal with an injected clock pins the trace."""
    clock = itertools.count(1000, 250).__next__
    obs = Observability(enabled=True, clock=clock)
    box = Middlebox(name="wire", obs=obs)
    packet = make_packet(
        MacAddress.from_int(1),
        MacAddress.from_int(2),
        CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(frame=8, subframe=1, slot=1, symbol=3),
            sections=[CPlaneSection(0, 0, 50)],
        ),
        seq_id=42,
    )
    box.process(packet)
    assert obs.recorder.to_jsonl() == GOLDEN_JSONL
