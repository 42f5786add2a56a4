"""obs-live: the streamed 8-cell run pinned to golden bytes.

One sharded run (16 slots, 4 workers) of the canonical 8-cell topology
with the full telemetry plane streaming — metrics, sampled spans,
deadline accounting, wire conformance, the default SLOs — whose
deterministic exposition must match the checked-in golden fixture byte
for byte and whose SLO engine must emit the exact seeded alert edges.
It also holds the streaming plane's contract: the run is the same run as
one with observability off (streaming never perturbs results), and its
live fold equals the end-of-run ``collect()``.

Regenerate the fixture (after an intentional metrics change) with::

    PYTHONPATH=src python - <<'PY'
    from repro.obs import deterministic_exposition
    from repro.scale import run_scenario
    from tests.scale.test_obs_live_golden import SLOTS, WORKERS, obs_top_spec
    stream = run_scenario(obs_top_spec(SLOTS), workers=WORKERS).telemetry
    open("tests/scale/fixtures/obs_top_exposition.golden", "w").write(
        deterministic_exposition(stream.registry))
    PY
"""

import dataclasses
from pathlib import Path

import pytest

from repro.eval.scale import bench_spec
from repro.obs import deterministic_exposition
from repro.obs.slo import default_slos
from repro.scale import ObsSpec, run_divergence, run_scenario

GOLDEN = Path(__file__).parent / "fixtures" / "obs_top_exposition.golden"
SLOTS = 16
WORKERS = 4


def obs_top_spec(slots=40):
    """The 8-cell bench topology with the full telemetry plane armed."""
    return dataclasses.replace(
        bench_spec(slots),
        name="obs-top-8cell",
        epoch_slots=5,
        obs=ObsSpec(
            enabled=True,
            deadline_accounting=True,
            conformance=True,
            stream=True,
            slo=tuple(spec.to_dict() for spec in default_slos()),
        ),
    )


@pytest.fixture(scope="module")
def streamed():
    """The streamed run and the observability-off reference."""
    spec = obs_top_spec(SLOTS)
    outcome = run_scenario(spec, workers=WORKERS)
    reference = run_scenario(dataclasses.replace(spec, obs=ObsSpec()))
    return outcome, reference


def test_streamed_exposition_matches_golden(streamed):
    outcome, _ = streamed
    exposition = deterministic_exposition(outcome.telemetry.registry)
    assert exposition == GOLDEN.read_text(), (
        "streamed deterministic exposition drifted from the golden "
        "fixture; if the change is intentional, regenerate it (see "
        "module docstring)"
    )


def test_streamed_run_contract(streamed):
    outcome, reference = streamed
    stream = outcome.telemetry
    assert outcome.digest == reference.digest
    assert stream.epochs == SLOTS // 4
    assert stream.spans_seen > 0
    assert stream.summary["epoch"] == stream.epochs - 1


def test_streaming_is_invisible_and_live_equals_collect(streamed):
    outcome, reference = streamed
    assert outcome.telemetry.finalized
    assert run_divergence(outcome, reference) == []


def test_seeded_slo_alerts_fire_deterministically(streamed):
    """The canonical run trips both default SLOs at fixed epochs."""
    outcome, _ = streamed
    edges = [
        (a.slo, a.state, a.epoch) for a in outcome.telemetry.slo.alerts
    ]
    assert edges == [
        ("deadline-miss-rate", "firing", 0),
        ("p99-slot-latency", "firing", 1),
    ]
