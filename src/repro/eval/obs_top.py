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
- **live equals collect, bit for bit** — after the final epoch the
  stream's folded registry snapshot equals the end-of-run ``collect()``
  merge exactly.

:func:`ObsTopResult.golden_exposition` is the deterministic subset of
the Prometheus exposition (wall-clock families filtered); CI pins its
bytes.  Run via ``PYTHONPATH=src python -m repro.eval obs-top``; shrink
with ``--slots`` / force a worker count with ``--workers``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.telemetry import TelemetryBus
from repro.eval.scale import bench_spec
from repro.obs.live import deterministic_exposition, render_live
from repro.obs.slo import default_slos
from repro.obs.stream import EPOCH_TOPIC, TelemetryStream
from repro.scale import Scenario
from repro.scale.spec import ObsSpec, ScenarioSpec

DEFAULT_SLOTS = 40
DEFAULT_WORKERS = 4
DEFAULT_EPOCH_SLOTS = 5


def obs_top_spec(
    slots: int = DEFAULT_SLOTS,
    epoch_slots: int = DEFAULT_EPOCH_SLOTS,
    slos: tuple = (),
) -> ScenarioSpec:
    """The 8-cell bench topology with the full telemetry plane armed."""
    slo_dicts = tuple(
        spec.to_dict() for spec in (slos or default_slos())
    )
    return dataclasses.replace(
        bench_spec(slots),
        name="obs-top-8cell",
        epoch_slots=epoch_slots,
        obs=ObsSpec(
            enabled=True,
            deadline_accounting=True,
            conformance=True,
            stream=True,
            slo=slo_dicts,
        ),
    )


@dataclass
class ObsTopResult:
    slots: int
    workers: int
    epochs: int
    digest: str
    reference_digest: str
    spans_seen: int
    spans_dropped: int
    frames_checked: int
    bus_epoch_records: int
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    screen: str = ""
    exposition: str = ""

    @property
    def digests_match(self) -> bool:
        return self.digest == self.reference_digest

    def golden_exposition(self) -> str:
        """The seed-stable exposition bytes CI pins."""
        return self.exposition

    def format(self) -> str:
        lines = [self.screen, ""]
        lines.append(
            f"digest {self.digest[:12]}... "
            + (
                "== reference (streaming is invisible to results)"
                if self.digests_match
                else f"!= reference {self.reference_digest[:12]}..."
            )
        )
        lines.append(
            f"{self.epochs} epochs folded across {self.workers} workers; "
            f"{self.bus_epoch_records} epoch records on the bus; "
            f"{len(self.alerts)} SLO alert edges"
        )
        return "\n".join(lines)


def run_obs_top(slots: int = 0, workers: int = 0) -> ObsTopResult:
    """Run the streamed 8-cell scenario and fold it into one screen."""
    slots = slots or DEFAULT_SLOTS
    workers = workers or DEFAULT_WORKERS
    spec = obs_top_spec(slots)
    # Reference: observability fully off — streaming must not perturb it.
    reference = Scenario(
        dataclasses.replace(spec, obs=ObsSpec())
    ).run(workers=1)
    bus = TelemetryBus()
    result = Scenario(spec).run(workers=workers, bus=bus)
    stream: TelemetryStream = result.telemetry
    assert stream is not None and stream.finalized, (
        "streaming run returned no finalized telemetry stream"
    )
    assert result.digest == reference.digest, (
        f"streaming perturbed the digest: {result.digest} != "
        f"{reference.digest}"
    )
    live = stream.live_snapshot()
    collected = result.metrics().snapshot()
    assert live == collected, (
        "live-folded snapshot diverged from end-of-run collect()"
    )
    return ObsTopResult(
        slots=slots,
        workers=workers,
        epochs=stream.epochs,
        digest=result.digest,
        reference_digest=reference.digest,
        spans_seen=stream.spans_seen,
        spans_dropped=sum(stream.spans_dropped.values()),
        frames_checked=stream.frames_checked,
        bus_epoch_records=len(bus.history(EPOCH_TOPIC)),
        alerts=[alert.to_dict() for alert in stream.slo.alerts],
        screen=render_live(
            stream, title=f"obs-top: {spec.name} @ {workers} workers"
        ),
        exposition=deterministic_exposition(stream.registry),
    )


def main() -> str:
    return run_obs_top().format()


if __name__ == "__main__":
    print(main())
