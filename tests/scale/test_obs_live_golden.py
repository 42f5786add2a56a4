"""obs-live smoke: the streamed 8-cell run pinned to golden bytes.

This is the CI obs-live gate in test form: one sharded run of the
canonical 8-cell topology with the full telemetry plane streaming, whose
deterministic exposition must match the checked-in golden fixture byte
for byte, and whose SLO engine must emit the exact seeded alert edges.
``run_obs_top`` additionally asserts, internally, that the digest equals
an observability-off reference and that the live-folded snapshot equals
the end-of-run ``collect()``.

Regenerate the fixture (after an intentional metrics change) with::

    PYTHONPATH=src python - <<'PY'
    from repro.eval.obs_top import run_obs_top
    text = run_obs_top(slots=16, workers=4).exposition
    open("tests/scale/fixtures/obs_top_exposition.golden", "w").write(text)
    PY
"""

from pathlib import Path

import pytest

from repro.eval.obs_top import run_obs_top

GOLDEN = Path(__file__).parent / "fixtures" / "obs_top_exposition.golden"
SLOTS = 16
WORKERS = 4


@pytest.fixture(scope="module")
def obs_top_result():
    return run_obs_top(slots=SLOTS, workers=WORKERS)


def test_streamed_exposition_matches_golden(obs_top_result):
    golden = GOLDEN.read_text()
    exposition = obs_top_result.exposition
    assert exposition == golden, (
        "streamed deterministic exposition drifted from the golden "
        "fixture; if the change is intentional, regenerate it (see "
        "module docstring)"
    )


def test_streamed_run_contract(obs_top_result):
    assert obs_top_result.digest == obs_top_result.reference_digest
    assert obs_top_result.epochs == SLOTS // 4
    assert obs_top_result.spans_seen > 0
    assert obs_top_result.bus_epoch_records > 0


def test_seeded_slo_alerts_fire_deterministically(obs_top_result):
    """The canonical run trips both default SLOs at fixed epochs."""
    edges = [
        (a["slo"], a["state"], a["epoch"]) for a in obs_top_result.alerts
    ]
    assert edges == [
        ("deadline-miss-rate", "firing", 0),
        ("p99-slot-latency", "firing", 1),
    ]
