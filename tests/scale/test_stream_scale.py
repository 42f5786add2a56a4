"""Streaming telemetry across the sharding boundary.

The ISSUE acceptance criteria for the telemetry plane, end to end:

- the sharded digest oracle is unchanged at 1/2/4/8 workers with
  streaming enabled (telemetry is invisible to simulation results);
- the live-folded snapshot equals the ``collect()`` snapshot bit for
  bit at every worker count — after the final epoch and at every
  barrier before it;
- the stream itself (epochs, spans, the per-group deadline,
  conformance and dropped-span views) and the deterministic exposition
  are worker-count invariant.
"""

import json
import os

import pytest

from repro.obs import deterministic_exposition
from repro.scale import Scenario, ScenarioSpec, WorkerPool

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "bench_8cell.json"
)

WORKER_COUNTS = (1, 2, 4, 8)


def _stream_spec(slots=12):
    data = json.load(open(FIXTURE))
    data["name"] = "stream-scale"
    data["slots"] = slots
    data["epoch_slots"] = 4
    data["obs"] = {
        "enabled": True,
        "deadline_accounting": True,
        "conformance": True,
        "stream": True,
    }
    return ScenarioSpec.from_dict(data)


def _reference_spec(slots=12):
    data = json.load(open(FIXTURE))
    data["name"] = "stream-scale"
    data["slots"] = slots
    data["epoch_slots"] = 4
    return ScenarioSpec.from_dict(data)


@pytest.fixture(scope="module")
def streamed_runs():
    return {
        workers: Scenario(_stream_spec()).run(workers=workers)
        for workers in WORKER_COUNTS
    }


@pytest.fixture(scope="module")
def reference_digest():
    return Scenario(_reference_spec()).run(workers=1).digest


def test_streaming_is_invisible_to_the_digest_oracle(
    streamed_runs, reference_digest
):
    for workers, result in streamed_runs.items():
        assert result.digest == reference_digest, (
            f"streaming perturbed results at workers={workers}"
        )


def test_live_fold_equals_collect_bit_for_bit(streamed_runs):
    for workers, result in streamed_runs.items():
        stream = result.telemetry
        assert stream is not None and stream.finalized
        assert stream.live_snapshot() == result.metrics().snapshot(), (
            f"live fold diverged from collect() at workers={workers}"
        )


def test_live_fold_equals_collect_at_every_barrier():
    with WorkerPool(_stream_spec(), workers=2) as pool:
        pool.begin()
        finished = False
        while not finished:
            finished = pool.advance_epoch()
            stream = pool.telemetry
            assert stream.finalized == finished
            assert (
                stream.live_snapshot() == pool.collect().metrics().snapshot()
            ), f"live fold diverged from collect() at slot {pool.done}"


def test_registry_reads_do_not_move_the_live_fold():
    """The live registry is merged on its first read after a fold: read
    twice, or skipped for a barrier, it still shows ``collect()``."""
    with WorkerPool(_stream_spec(), workers=2) as pool:
        pool.begin()
        finished, barrier = False, 0
        while not finished:
            finished = pool.advance_epoch()
            barrier += 1
            stream = pool.telemetry
            if barrier % 2 and not finished:
                continue  # nobody reads the registry at this barrier
            collected = pool.collect().metrics()
            first = stream.registry
            exposition = deterministic_exposition(first)
            assert stream.registry is first
            assert deterministic_exposition(stream.registry) == exposition
            assert exposition == deterministic_exposition(collected)
            assert stream.live_snapshot() == collected.snapshot()


def test_stream_contents_are_worker_count_invariant(streamed_runs):
    baseline = streamed_runs[1].telemetry
    views = baseline.groups()
    assert all(view["slot_sketch"] for view in views.values())
    assert any(view["frames_checked"] for view in views.values())
    for workers in WORKER_COUNTS[1:]:
        stream = streamed_runs[workers].telemetry
        assert stream.epochs == baseline.epochs
        assert stream.spans_seen == baseline.spans_seen
        assert stream.groups() == views
        assert stream.p99_slot_latency_ns() == baseline.p99_slot_latency_ns()


def test_deterministic_exposition_is_byte_identical_across_workers(
    streamed_runs,
):
    baseline = deterministic_exposition(streamed_runs[1].telemetry.registry)
    assert baseline  # non-empty: the run produced metrics
    for workers in WORKER_COUNTS[1:]:
        sharded = deterministic_exposition(
            streamed_runs[workers].telemetry.registry
        )
        assert sharded == baseline


def test_cross_shard_spans_cover_every_group(streamed_runs):
    result = streamed_runs[8]
    groups_seen = {
        span.key.group for span in result.telemetry.recorder.spans()
    }
    assert groups_seen == set(result.groups)
    shards_seen = {
        span.key.shard for span in result.telemetry.recorder.spans()
    }
    # Every shard the planner actually used shows up in the stream.
    assert shards_seen == set(range(len(result.plan.shards)))
    assert len(shards_seen) > 1
