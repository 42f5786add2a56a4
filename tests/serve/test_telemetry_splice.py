"""The telemetry plane across a live rechain, and without span streaming.

Three regressions of the one-state-lane rule (:mod:`repro.obs.stream`),
on a deadline-accounted spec whose 1 us budget makes misses common:

- after a mid-run ``rechain`` the stream's per-group deadline view is a
  from-scratch run's of the mutated spec (the view reads the rebuilt
  group's snapshot, replayed prefix included);
- every ``epochs`` event after the rechain is a from-scratch live run's:
  the rebuilt group's replay advanced its source's sample baseline on
  the worker, so no sample recounts the prefix;
- ``obs.stream`` gates span rows only: the SLOs fire the same edges
  with it off.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.scale.runner import run_scenario
from repro.serve.delta import DeltaOp, SpecDelta
from repro.serve.engine import LiveRun
from tests.serve.builders import make_spec

RECHAIN = SpecDelta(
    ops=(
        DeltaOp(
            op="rechain",
            target="anchor-a",
            chain=tuple({"stage": "passthrough"} for _ in range(6)),
        ),
    )
)
#: Epochs folded before the rechain (3 slots each).
RECHAIN_EPOCH = 2
MISS_SLO = {
    "name": "miss",
    "objective": "deadline_miss_rate",
    "threshold": 0.01,
    "window_epochs": 1,
}
SAMPLED = (
    "deadline_checks", "deadline_misses", "frames_checked",
    "conformance_violations", "breaker_opens",
)


def accounted_spec(stream=True, slo=()):
    """Two anchor cells, full obs plane, a 1 us deadline budget."""
    base = make_spec(obs=True, slo=slo)
    return dataclasses.replace(
        base,
        obs=dataclasses.replace(
            base.obs,
            deadline_accounting=True,
            deadline_budget_ns=1000.0,
            stream=stream,
        ),
    )


def epoch_events(live):
    """The epoch summaries a live run queued since the last drain."""
    return [e["data"] for e in live.drain_events() if e["topic"] == "epochs"]


@pytest.fixture(scope="module")
def scratch():
    """A from-scratch live run of the rechained spec: its views and the
    ``epochs`` events it queued."""
    live = LiveRun(RECHAIN.apply(accounted_spec()), workers=0)
    try:
        while not live.advance_epoch():
            pass
        return live.pool.telemetry.groups(), epoch_events(live)
    finally:
        live.close()


@pytest.fixture(scope="module", params=[0, 2], ids=["inproc", "2proc"])
def rechained(request):
    """The live run, rechained at slot 6: its views and the ``epochs``
    events it queued."""
    live = LiveRun(accounted_spec(), workers=request.param)
    try:
        live.begin()
        for _ in range(RECHAIN_EPOCH):
            live.advance_epoch()
        live.apply(RECHAIN)
        while not live.advance_epoch():
            pass
        return live.pool.telemetry.groups(), epoch_events(live)
    finally:
        live.close()


def test_rechain_splice_deadline_view_is_the_from_scratch_run(
    rechained, scratch
):
    live, reference = rechained[0]["anchor-a"], scratch[0]["anchor-a"]
    assert live["deadline_misses"] > 0
    for key in ("deadline_checks", "deadline_misses", "slot_sketch"):
        assert live[key] == reference[key], key
    assert rechained[0] == scratch[0]


def test_epoch_records_after_a_rebuild_are_the_from_scratch_run(
    rechained, scratch
):
    live, reference = rechained[1], scratch[1]
    assert len(live) == len(reference) == 4
    for epoch in range(RECHAIN_EPOCH, len(reference)):
        assert {key: live[epoch][key] for key in SAMPLED} == {
            key: reference[epoch][key] for key in SAMPLED
        }, f"epoch {epoch}"


def test_slos_fire_the_same_edges_without_span_streaming():
    edges = {
        stream: [
            alert.to_dict()
            for alert in run_scenario(
                accounted_spec(stream, slo=[MISS_SLO]), workers=2
            ).telemetry.slo.alerts
        ]
        for stream in (True, False)
    }
    assert edges[True]
    assert edges[False] == edges[True]
