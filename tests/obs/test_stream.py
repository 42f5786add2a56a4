"""The streaming telemetry plane: sources, coordinator fold, drain.

Covers the stream's core contracts outside the scale-out machinery
(which :mod:`tests.scale.test_stream_scale` exercises end to end):

- :meth:`FlightRecorder.drain` never re-delivers a span and accounts
  ring evictions exactly;
- :class:`GroupStreamSource` ships the cumulative snapshot and the
  group's sample at every epoch, and span rows only when streaming;
- :class:`TelemetryStream` stamps span rows with ``(group, shard)``,
  merges the live registry from each epoch's payloads, reads every
  per-group view from the group's snapshot (so a group that stopped
  shipping is gone), publishes epoch summaries, and the samples a
  source ships add up to its snapshot (the Hypothesis property at the
  bottom).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Observability
from repro.obs.deadline import DeadlineAccountant
from repro.obs.live import render_live
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import SloSpec
from repro.obs.stream import (
    DROPPED_SPANS_METRIC,
    GroupStreamSource,
    TelemetryStream,
)


def make_span(seq, middlebox="das", stage=0):
    """One recorded row, in the field order ``Middlebox._observe`` writes."""
    return (
        1, 0, 0, 0, 0, "UL", seq,
        middlebox, "UL U-Plane", 100.0, 0.0, seq, [], 0, False, stage,
    )


class FakeGroup:
    """The duck-typed slice of BuiltGroup the stream source reads."""

    def __init__(self, name, capacity=64, budget_ns=1000.0):
        self.name = name
        self.obs = Observability(
            enabled=True, max_spans=capacity, clock=lambda: 0
        )
        self.accountant = DeadlineAccountant(
            budget_ns=budget_ns, obs=self.obs
        )


def latency_sample(accounts):
    """The sketch sample of some accounts' slot totals."""
    sketch = QuantileSketch()
    for account in accounts:
        sketch.observe(account.total_ns)
    return sketch.sample()


class TestDrain:
    def test_drain_never_redelivers(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(make_span(0))
        recorder.record(make_span(1))
        first, evicted = recorder.drain()
        assert first == [make_span(0), make_span(1)]
        assert evicted == 0
        assert recorder.drain() == ([], 0)
        recorder.record(make_span(2))
        second, _ = recorder.drain()
        assert second == [make_span(2)]

    def test_drain_reports_interval_evictions(self):
        recorder = FlightRecorder(capacity=2)
        for seq in range(5):
            recorder.record(make_span(seq))
        rows, evicted = recorder.drain()
        # Only the 2 retained spans arrive; 3 rolled off unseen.
        assert rows == [make_span(3), make_span(4)]
        assert evicted == 3
        # The next interval starts clean.
        recorder.record(make_span(5))
        rows, evicted = recorder.drain()
        assert rows == [make_span(5)]
        assert evicted == 0

    def test_clear_resets_drain_state(self):
        recorder = FlightRecorder(capacity=2)
        for seq in range(4):
            recorder.record(make_span(seq))
        recorder.drain()
        recorder.clear()
        recorder.record(make_span(9))
        rows, evicted = recorder.drain()
        assert rows == [make_span(9)]
        assert evicted == 0


class TestObservabilityMaxSpans:
    def test_max_spans_caps_the_ring(self):
        obs = Observability(enabled=True, max_spans=2)
        assert obs.recorder.capacity == 2

    def test_conflicting_recorder_capacity_rejected(self):
        recorder = FlightRecorder(capacity=8)
        with pytest.raises(ValueError, match="max_spans"):
            Observability(recorder=recorder, max_spans=16)


class TestGroupStreamSource:
    def test_every_payload_carries_the_cumulative_snapshot(self):
        group = FakeGroup("g1")
        source = GroupStreamSource(group, shard=2)
        pkts = group.obs.registry.counter("pkts", "")
        opens = group.obs.registry.counter(
            "chain_breaker_transitions_total", "", ["chain", "stage", "to"]
        )
        violations = group.obs.registry.counter(
            "conformance_violations_total", "", ["validator", "class"]
        )
        pkts.inc(3)
        opens.labels("c", "0", "open").inc()
        opens.labels("c", "0", "closed").inc()
        violations.labels("g1", "seq_dup").inc(2)
        first = source.epoch_payload()
        assert first["metrics"]["pkts"]["series"][""] == 3
        assert first["sample"]["breaker_opens"] == 1
        assert first["sample"]["violations"] == {"seq_dup": 2}
        pkts.inc(4)
        violations.labels("g1", "late").inc()
        second = source.epoch_payload()
        assert second["metrics"] == group.obs.registry.snapshot()
        assert second["metrics"]["pkts"]["series"][""] == 7
        # Increments: what the last payload counted is not recounted.
        assert second["sample"]["breaker_opens"] == 0
        assert second["sample"]["violations"] == {"late": 1}

    def test_spans_are_stamped_with_group_and_shard(self):
        group = FakeGroup("g1")
        source = GroupStreamSource(group, shard=3)
        group.obs.recorder.record(make_span(0))
        stream = TelemetryStream()
        stream.fold_epoch([source.epoch_payload()])
        (span,) = stream.recorder.spans()
        assert span.key.group == "g1"
        assert span.key.shard == 3
        # The worker-side span is untouched (the fold stamps its copy).
        assert group.obs.recorder.spans()[0].key.group == ""

    def test_ring_overflow_bumps_the_dropped_counter(self):
        group = FakeGroup("g1", capacity=2)
        source = GroupStreamSource(group, shard=0)
        for seq in range(6):
            group.obs.recorder.record(make_span(seq))
        payload = source.epoch_payload()
        dropped = payload["metrics"][DROPPED_SPANS_METRIC]["series"]["g1"]
        assert dropped == 4

    def test_deadline_accounts_ship_once(self):
        group = FakeGroup("g1")
        source = GroupStreamSource(group, shard=0)
        group.accountant.observe_slot(0, {"0:das": 500.0})
        first = source.epoch_payload()["sample"]
        assert (first["deadline_checks"], first["deadline_misses"]) == (1, 0)
        assert first["slot_sketch"] == latency_sample(
            group.accountant.accounts
        )
        group.accountant.observe_slot(1, {"0:das": 2000.0})
        second = source.epoch_payload()["sample"]
        assert (second["deadline_checks"], second["deadline_misses"]) == (
            1, 1
        )
        assert second["slot_sketch"] == latency_sample(
            group.accountant.accounts[1:]
        )
        assert source.epoch_payload()["sample"]["slot_sketch"] is None

    @pytest.mark.parametrize("stream", [True, False])
    def test_payload_carries_spans_only_when_streaming(self, stream):
        group = FakeGroup("g1")
        source = GroupStreamSource(group, shard=0, stream=stream)
        group.obs.recorder.record(make_span(0))
        group.accountant.observe_slot(0, {"0:das": 10.0})
        payload = source.epoch_payload()
        assert set(payload) == {"group", "shard", "metrics", "sample"} | (
            {"spans"} if stream else set()
        )
        # The sample does not depend on streaming.
        assert payload["sample"]["deadline_checks"] == 1


class TestTelemetryStreamFold:
    def _sources(self):
        groups = [FakeGroup("a"), FakeGroup("b")]
        return groups, [
            GroupStreamSource(g, shard=i) for i, g in enumerate(groups)
        ]

    def test_final_fold_equals_sorted_cumulative_merge(self):
        """...and so does every fold before it."""
        groups, sources = self._sources()
        stream = TelemetryStream()
        for epoch in range(3):
            for i, group in enumerate(groups):
                group.obs.registry.counter("pkts", "", ["g"]).labels(
                    group.name
                ).inc(epoch + i + 1)
                group.obs.registry.histogram("lat", "").observe(0.1 * (i + 1))
            stream.fold_epoch(
                [s.epoch_payload() for s in reversed(sources)],
                final=epoch == 2,
            )
            assert stream.finalized == (epoch == 2)
            expected = MetricsRegistry()
            for group in sorted(groups, key=lambda g: g.name):
                expected.merge_snapshot(group.obs.registry.snapshot())
            assert stream.live_snapshot() == expected.snapshot()

    def test_a_group_absent_from_the_fold_is_forgotten(self):
        groups, sources = self._sources()
        stream = TelemetryStream()
        for group in groups:
            group.obs.registry.counter("pkts", "", ["g"]).labels(
                group.name
            ).inc()
            group.accountant.observe_slot(0, {"0:x": 500.0})
            for seq in range(70):  # overflows the 64-span ring
                group.obs.recorder.record(make_span(seq))
        for shipping in (sources, sources[:1]):
            stream.fold_epoch([s.epoch_payload() for s in shipping])
            names = [s.group.name for s in shipping]
            views = stream.groups()
            assert list(views) == names
            for name in names:
                assert views[name]["spans_dropped"] == 6
                assert views[name]["deadline_checks"] == 1
            screen = render_live(stream)
            for group in groups:
                assert (f"  {group.name} " in screen) == (
                    group.name in names
                )
        assert stream.live_snapshot() == groups[0].obs.registry.snapshot()

    def test_deadline_views_match_worker_accountants(self):
        groups, sources = self._sources()
        stream = TelemetryStream()
        for epoch in range(2):
            for group in groups:
                group.accountant.observe_slot(
                    epoch, {"0:x": 500.0 + 1000.0 * epoch}
                )
            stream.fold_epoch([s.epoch_payload() for s in sources])
        views = stream.groups()
        merged = QuantileSketch()
        for group in groups:
            accountant = group.accountant
            view = views[group.name]
            assert view["deadline_misses"] == accountant.violations == 1
            assert view["deadline_checks"] == len(accountant.accounts)
            assert view["slot_sketch"] == latency_sample(accountant.accounts)
            merged.merge_sample(view["slot_sketch"])
        assert stream.p99_slot_latency_ns() == merged.quantile(0.99)

    def test_epoch_summaries_carry_the_alert_edges(self):
        groups, sources = self._sources()
        stream = TelemetryStream(
            slo_specs=(
                SloSpec(
                    name="miss",
                    objective="deadline_miss_rate",
                    threshold=0.01,
                    window_epochs=1,
                ),
            ),
        )
        for group in groups:
            group.accountant.observe_slot(0, {"0:x": 5000.0})  # misses
        stream.fold_epoch([s.epoch_payload() for s in sources])
        (summary,) = stream.summaries
        assert summary["epoch"] == 0 and summary["deadline_misses"] == 2
        assert summary["firing"] == ["miss"]
        assert summary["alerts"] == [stream.slo.alerts[0].to_dict()]
        assert stream.slo.alerts[0].state == "firing"

    def test_cross_shard_journey_reassembles_from_streamed_spans(self):
        groups, sources = self._sources()
        stream = TelemetryStream()
        # The same wire frame recorded on two different shards.
        groups[0].obs.recorder.record(make_span(7, middlebox="das", stage=0))
        groups[1].obs.recorder.record(
            make_span(7, middlebox="sharing", stage=1)
        )
        stream.fold_epoch([s.epoch_payload() for s in sources])
        journey = sorted(stream.recorder.spans(), key=lambda s: s.stage)
        assert len({dataclasses.replace(s.key, group="", shard=-1)
                    for s in journey}) == 1  # one frame on the wire
        assert [(s.middlebox, s.key.group, s.key.shard) for s in journey] == [
            ("das", "a", 0),
            ("sharing", "b", 1),
        ]


slot_latencies = st.lists(
    st.floats(min_value=0.0, max_value=50_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(latencies=slot_latencies, epoch=st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_samples_add_up_to_the_snapshot_view(latencies, epoch):
    """Whatever the epoch cadence, the samples a source ships add up to
    the view its last snapshot gives: counts sum, sketches merge."""
    group = FakeGroup("g", budget_ns=30_000.0)
    source = GroupStreamSource(group, shard=0)
    stream = TelemetryStream()
    samples = []
    for slot, total_ns in enumerate(latencies):
        group.accountant.observe_slot(slot, {"0:chain": total_ns})
        if (slot + 1) % epoch == 0 or slot + 1 == len(latencies):
            samples.append(stream.fold_epoch([source.epoch_payload()]))
    (view,) = stream.groups().values()
    assert sum(s.deadline_checks for s in samples) == view["deadline_checks"]
    assert sum(s.deadline_misses for s in samples) == view["deadline_misses"]
    assert view["deadline_misses"] == group.accountant.violations
    merged = QuantileSketch()
    for sample in samples:
        merged.merge_sample(sample.slot_sketch)
    whole = QuantileSketch.from_sample(view["slot_sketch"])
    assert merged.buckets == whole.buckets
    assert (merged.count, merged.zeros, merged.min, merged.max) == (
        whole.count, whole.zeros, whole.min, whole.max
    )
    assert merged.quantile(0.99) == whole.quantile(0.99)
