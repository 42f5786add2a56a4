"""SLO engine: declarative objectives, sliding windows, burn-rate alerts.

A middlebox operator serving tenants it does not control must *prove* it
stays inside the fronthaul timing budget (Section 6.4.1) — which means
objectives evaluated continuously against the live telemetry stream,
not a post-hoc log scrape.  This module is that evaluator:

- :class:`SloSpec` declares one objective over a named *measurable*
  (deadline-miss rate, P99 slot latency, conformance-violation rate,
  circuit-breaker opens) with a threshold and a sliding window measured
  in stream epochs.
- :class:`SloEngine` consumes one :class:`EpochSample` per stream epoch
  (the coordinator's fold builds it from the workers' payloads),
  maintains the per-objective windows, and computes the **burn rate** —
  observed value divided by threshold, the Google-SRE multiple of
  budget consumption.  Alerts are edge-triggered: one ``firing``
  :class:`SloAlert` when the burn rate crosses ``max_burn_rate`` upward,
  one ``resolved`` alert when it falls back — the newest retained in
  :attr:`SloEngine.alerts`, each carried by the stream's epoch summary.

P99 latency is evaluated over the *window's* merged
:class:`~repro.obs.sketch.QuantileSketch` — per-epoch sketch samples
merge exactly, so the windowed percentile is as accurate as a
single-process one regardless of sharding.

Everything is plain data and deterministic: the same epoch samples in
the same order produce byte-identical alert sequences, which is what
lets CI assert "this seeded chaos run fires exactly this alert".
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.deadline import SLOT_BUDGET_NS
from repro.obs.recorder import event_ring
from repro.obs.sketch import QuantileSketch

#: The measurables an :class:`SloSpec` may target.
OBJECTIVES = (
    "deadline_miss_rate",
    "p99_slot_latency_ns",
    "conformance_violation_rate",
    "breaker_opens",
    "worker_restarts",
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the telemetry stream.

    ``threshold`` is the objective's budget (a rate in [0, 1] for the
    rate objectives, nanoseconds for latency, a count for breaker
    opens); the alert fires when the windowed measurement reaches
    ``threshold * max_burn_rate``.  ``window_epochs`` sizes the sliding
    window; ``min_samples`` suppresses alerts until the window has seen
    that many underlying events (slots or frames), so a one-slot blip
    at run start cannot page anyone.
    """

    name: str
    objective: str
    threshold: float
    window_epochs: int = 4
    max_burn_rate: float = 1.0
    min_samples: int = 1

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, "
                f"got {self.objective!r}"
            )
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise KeyError(f"slo spec has unknown keys: {sorted(unknown)}")
        return cls(**data)


def default_slos() -> Tuple[SloSpec, ...]:
    """The paper-aligned objective set every streaming run gets for free."""
    return (
        SloSpec(
            name="deadline-miss-rate",
            objective="deadline_miss_rate",
            threshold=0.01,
        ),
        SloSpec(
            name="p99-slot-latency",
            objective="p99_slot_latency_ns",
            threshold=SLOT_BUDGET_NS,
        ),
        SloSpec(
            name="conformance-violation-rate",
            objective="conformance_violation_rate",
            threshold=0.01,
        ),
        SloSpec(
            name="breaker-opens",
            objective="breaker_opens",
            threshold=1.0,
        ),
    )


@dataclass(frozen=True)
class EpochSample:
    """What one stream epoch contributed, aggregated across shards."""

    epoch: int
    deadline_checks: int = 0
    deadline_misses: int = 0
    #: Sketch *sample* dict of per-slot total latencies this epoch
    #: (``None`` when the epoch carried no deadline accounts).
    slot_sketch: Optional[Dict[str, Any]] = None
    frames_checked: int = 0
    conformance_violations: int = 0
    breaker_opens: int = 0
    #: Pool workers the supervisor respawned while this epoch's barrier
    #: was being re-driven (self-healing scale-out; 0 on healthy runs).
    worker_restarts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SloAlert:
    """One edge-triggered burn-rate transition."""

    slo: str
    objective: str
    state: str  # "firing" | "resolved"
    epoch: int
    value: float
    threshold: float
    burn_rate: float
    window_epochs: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        flame = "!!" if self.state == "firing" else "ok"
        return (
            f"[{flame}] {self.slo} {self.state} @epoch {self.epoch}: "
            f"{self.objective}={self.value:.6g} "
            f"(threshold {self.threshold:.6g}, "
            f"burn {self.burn_rate:.2f}x over {self.window_epochs} epochs)"
        )


class _Window:
    """Sliding window of the last N epoch samples for one spec."""

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self.samples: Deque[EpochSample] = deque(maxlen=spec.window_epochs)
        self.firing = False

    def measure(self) -> Tuple[Optional[float], int]:
        """(windowed value, underlying event count) — value None if the
        objective is not measurable yet (no events in window)."""
        objective = self.spec.objective
        if objective == "deadline_miss_rate":
            checks = sum(s.deadline_checks for s in self.samples)
            if not checks:
                return None, 0
            misses = sum(s.deadline_misses for s in self.samples)
            return misses / checks, checks
        if objective == "p99_slot_latency_ns":
            merged = QuantileSketch()
            for sample in self.samples:
                if sample.slot_sketch is not None:
                    merged.merge_sample(sample.slot_sketch)
            if not merged.count:
                return None, 0
            return merged.quantile(0.99), merged.count
        if objective == "conformance_violation_rate":
            frames = sum(s.frames_checked for s in self.samples)
            if not frames:
                return None, 0
            violations = sum(s.conformance_violations for s in self.samples)
            return violations / frames, frames
        if objective == "worker_restarts":
            restarts = sum(s.worker_restarts for s in self.samples)
            return float(restarts), len(self.samples)
        # breaker_opens
        opens = sum(s.breaker_opens for s in self.samples)
        slots = sum(s.deadline_checks for s in self.samples)
        return float(opens), max(slots, len(self.samples))


class SloEngine:
    """Evaluate every spec against each epoch sample; emit alert edges."""

    def __init__(self, specs: Sequence[SloSpec] = ()):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.specs: Tuple[SloSpec, ...] = tuple(specs)
        self._windows: List[_Window] = [_Window(spec) for spec in specs]
        #: The newest alert edges, in emission order (firing and resolved).
        self.alerts: Deque[SloAlert] = event_ring()

    def observe_epoch(self, sample: EpochSample) -> List[SloAlert]:
        """Fold one epoch in; returns the alert edges it triggered."""
        edges: List[SloAlert] = []
        for window in self._windows:
            window.samples.append(sample)
            value, events = window.measure()
            if value is None:
                continue
            spec = window.spec
            burn = value / spec.threshold
            should_fire = (
                burn >= spec.max_burn_rate and events >= spec.min_samples
            )
            if should_fire == window.firing:
                continue
            window.firing = should_fire
            alert = SloAlert(
                slo=spec.name,
                objective=spec.objective,
                state="firing" if should_fire else "resolved",
                epoch=sample.epoch,
                value=value,
                threshold=spec.threshold,
                burn_rate=burn,
                window_epochs=spec.window_epochs,
            )
            edges.append(alert)
            self.alerts.append(alert)
        return edges

    def firing(self) -> List[str]:
        """Names of the SLOs currently in the firing state."""
        return [w.spec.name for w in self._windows if w.firing]

    def status(self) -> List[Dict[str, Any]]:
        """Per-SLO live state (the dashboard's objective table)."""
        rows = []
        for window in self._windows:
            value, events = window.measure()
            spec = window.spec
            rows.append(
                {
                    "slo": spec.name,
                    "objective": spec.objective,
                    "threshold": spec.threshold,
                    "value": value,
                    "burn_rate": (
                        value / spec.threshold if value is not None else None
                    ),
                    "events": events,
                    "window_epochs": spec.window_epochs,
                    "firing": window.firing,
                }
            )
        return rows


__all__ = [
    "OBJECTIVES",
    "EpochSample",
    "SloAlert",
    "SloEngine",
    "SloSpec",
    "default_slos",
]
