"""obs-top: the live streaming-telemetry dashboard over a sharded run.

Runs the canonical 8-cell scenario (:func:`repro.eval.scale.bench_spec`)
with the full telemetry plane armed — metrics, sampled spans, deadline
accounting, wire conformance, SLO burn-rate evaluation — streamed from
the workers at every barrier epoch and folded live by the coordinator,
then renders the ``obs-top`` operator screen from the stream.

Two invariants are asserted on every invocation (they are the streaming
plane's contract, so this eval doubles as the CI smoke):

- **streaming never perturbs results** — the run's digest equals a
  reference run with observability fully disabled;
- **live equals collect, bit for bit** — the stream's folded registry
  snapshot equals the ``collect()`` merge exactly (at every barrier;
  checked here after the last).

:attr:`ObsTopResult.exposition` is the deterministic subset of the
Prometheus exposition (wall-clock families filtered); CI pins its
bytes.  Run via ``PYTHONPATH=src python -m repro.eval obs-top``; shrink
with ``--slots`` / force a worker count with ``--workers``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.telemetry import TelemetryBus
from repro.eval import kit
from repro.eval.scale import bench_spec
from repro.obs.live import deterministic_exposition, render_live
from repro.obs.slo import default_slos
from repro.obs.stream import EPOCH_TOPIC, TelemetryStream
from repro.scale import ObsSpec, ScenarioSpec, run_divergence, run_scenario

DEFAULT_SLOTS = 40
DEFAULT_WORKERS = 4
EPOCH_SLOTS = 5


def obs_top_spec(slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """The 8-cell bench topology with the full telemetry plane armed."""
    return dataclasses.replace(
        bench_spec(slots),
        name="obs-top-8cell",
        epoch_slots=EPOCH_SLOTS,
        obs=ObsSpec(
            enabled=True,
            deadline_accounting=True,
            conformance=True,
            stream=True,
            slo=tuple(spec.to_dict() for spec in default_slos()),
        ),
    )


@dataclass
class ObsTopResult(kit.Gate):
    workers: int
    epochs: int
    digest: str
    reference_digest: str
    spans_seen: int
    bus_epoch_records: int
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    screen: str = ""
    #: The seed-stable exposition bytes CI pins.
    exposition: str = ""

    @property
    def digests_match(self) -> bool:
        return self.digest == self.reference_digest

    def format(self) -> str:
        lines = [self.screen, ""]
        # A result only leaves run_obs_top with the digests equal.
        lines.append(
            f"digest {self.digest[:12]}... "
            "== reference (streaming is invisible to results)"
        )
        lines.append(
            f"{self.epochs} epochs folded across {self.workers} workers; "
            f"{self.bus_epoch_records} epoch records on the bus; "
            f"{len(self.alerts)} SLO alert edges"
        )
        return "\n".join(lines)


def run_obs_top(
    slots: int = DEFAULT_SLOTS, workers: int = DEFAULT_WORKERS
) -> ObsTopResult:
    """Run the streamed 8-cell scenario and fold it into one screen."""
    spec = obs_top_spec(slots)
    # Reference: observability fully off — streaming must not perturb it.
    reference = run_scenario(dataclasses.replace(spec, obs=ObsSpec()))
    bus = TelemetryBus()
    outcome = run_scenario(spec, workers=workers, bus=bus)
    stream: TelemetryStream = outcome.telemetry
    result = ObsTopResult(
        workers=workers,
        epochs=stream.epochs,
        digest=outcome.digest,
        reference_digest=reference.digest,
        spans_seen=stream.spans_seen,
        bus_epoch_records=len(bus.history(EPOCH_TOPIC)),
        alerts=[alert.to_dict() for alert in stream.slo.alerts],
        screen=render_live(
            stream, title=f"obs-top: {spec.name} @ {workers} workers"
        ),
        exposition=deterministic_exposition(stream.registry),
    )
    result.check("stream_finalized", stream.finalized)
    diverged = run_divergence(outcome, reference)
    result.check(
        "streaming_is_invisible_and_live_equals_collect",
        not diverged,
        f"streamed run diverged from the obs-off reference in {diverged}",
    )
    result.assert_healthy()
    return result
