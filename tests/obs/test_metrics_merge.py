"""Cross-shard metric merging: N snapshots fold into one registry."""

import pytest

from repro.obs.metrics import MetricMergeError, MetricsRegistry


def _worker_registry(shard, packets, latencies):
    registry = MetricsRegistry()
    registry.counter("pkts_total", "packets", ["shard"]).labels(shard).inc(
        packets
    )
    registry.gauge("queue_depth", "depth").set(packets)
    hist = registry.histogram("lat_ns", "latency", buckets=(10.0, 100.0))
    for value in latencies:
        hist.observe(value)
    return registry


def test_counters_and_histograms_add_gauges_sum():
    merged = MetricsRegistry()
    merged.merge_snapshot(_worker_registry("a", 3, [5, 50, 500]).snapshot())
    merged.merge_snapshot(_worker_registry("b", 4, [7]).snapshot())
    assert merged.get("pkts_total").labels("a").value == 3
    assert merged.get("pkts_total").labels("b").value == 4
    assert merged.get("queue_depth").value == 7  # 3 + 4
    hist = merged.get("lat_ns")._children[()]
    assert hist.count == 4
    assert hist.sum == 562
    assert hist.bucket_counts == [2, 1]  # <=10: {5,7}; <=100: {50}


def test_merge_equals_single_registry():
    """Sharded counting merges to exactly what one registry would hold."""
    single = MetricsRegistry()
    family = single.histogram("h", "", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 9.0, 0.2):
        family.observe(value)

    merged = MetricsRegistry()
    for chunk in ((0.5, 1.5), (3.0,), (9.0, 0.2)):
        part = MetricsRegistry()
        ph = part.histogram("h", "", buckets=(1.0, 2.0, 4.0))
        for value in chunk:
            ph.observe(value)
        merged.merge_snapshot(part.snapshot())
    assert merged.snapshot() == single.snapshot()


def test_merge_into_populated_registry_accumulates():
    registry = MetricsRegistry()
    registry.counter("c", "").inc(2)
    other = MetricsRegistry()
    other.counter("c", "").inc(5)
    registry.merge_snapshot(other.snapshot())
    assert registry.get("c").value == 7


def test_bucket_bound_mismatch_raises():
    registry = MetricsRegistry()
    registry.histogram("h", "", buckets=(1.0, 2.0))
    other = MetricsRegistry()
    other.histogram("h", "", buckets=(3.0, 4.0)).observe(3.5)
    with pytest.raises(ValueError, match="histogram merge"):
        registry.merge_snapshot(other.snapshot())


def test_bound_mismatch_raises_typed_error_before_any_count_moves():
    registry = MetricsRegistry()
    live = registry.histogram("h", "", buckets=(1.0, 2.0))
    live.observe(0.5)
    other = MetricsRegistry()
    other.histogram("h", "", buckets=(3.0, 4.0)).observe(3.5)
    with pytest.raises(MetricMergeError):
        registry.merge_snapshot(other.snapshot())
    # Validation happened before folding: the live child is untouched.
    child = registry.get("h")._children[()]
    assert child.count == 1
    assert child.bucket_counts == [1, 0]


def test_all_zero_sample_over_wrong_bounds_still_raises():
    # Zero counts would fold "harmlessly", but accepting them would let a
    # structurally wrong series slip into the family: reject anyway.
    registry = MetricsRegistry()
    registry.histogram("h", "", buckets=(1.0, 2.0))
    other = MetricsRegistry()
    other.histogram("h", "", buckets=(5.0,))
    with pytest.raises(MetricMergeError):
        registry.merge_snapshot(other.snapshot())


def test_kind_conflict_raises_typed_error():
    registry = MetricsRegistry()
    registry.counter("x", "").inc()
    other = MetricsRegistry()
    other.gauge("x", "").set(3)
    with pytest.raises(MetricMergeError, match="already registered"):
        registry.merge_snapshot(other.snapshot())


def test_sketch_kind_merges_like_histograms():
    single = MetricsRegistry()
    family = single.sketch("s", "")
    for value in (10.0, 20.0, 30.0, 40.0):
        family.observe(value)
    merged = MetricsRegistry()
    for chunk in ((10.0, 20.0), (30.0, 40.0)):
        part = MetricsRegistry()
        child = part.sketch("s", "")
        for value in chunk:
            child.observe(value)
        merged.merge_snapshot(part.snapshot())
    assert merged.snapshot() == single.snapshot()


def test_sketch_accuracy_mismatch_raises_typed_error():
    """A worker snapshot whose sketch has another accuracy is refused."""
    registry = MetricsRegistry()
    registry.sketch("s", "").observe(1.0)
    other = MetricsRegistry()
    other.sketch("s", "").observe(2.0)
    snapshot = other.snapshot()
    snapshot["s"]["series"][""]["accuracy"] = 0.05
    with pytest.raises(MetricMergeError, match="sketch merge"):
        registry.merge_snapshot(snapshot)
    with pytest.raises(MetricMergeError, match="sketch merge"):
        MetricsRegistry().merge_snapshot(snapshot)


def test_empty_snapshot_is_noop():
    registry = MetricsRegistry()
    registry.merge_snapshot({})
    assert len(registry) == 0
