"""Streaming telemetry transport: per-epoch flushes, live coordinator fold.

The telemetry plane has two ends, one object each:

- :class:`GroupStreamSource` (worker side) wraps one built coupling
  group and produces a plain-data **epoch payload** at every barrier:
  the group registry's cumulative metric snapshot, the group's
  **sample** — what it did since its last payload — and, when
  ``obs.stream`` is on, the span rows its flight recorder took since
  the last drain (the payload's own ``group``/``shard`` is their stamp,
  sent once).  Payloads are pure picklable data, so they ride the
  worker's epoch reply over the control pipe like every other pool
  payload.
- :class:`TelemetryStream` (coordinator side) folds payloads as they
  arrive: the epoch's snapshots are kept by group, span rows land in a
  bounded coordinator recorder with the ``(group, shard)`` they were
  recorded on after their wire coordinates, and the group samples sum
  into one :class:`~repro.obs.slo.EpochSample` for the
  :class:`~repro.obs.slo.SloEngine` plus one summary record, its alert
  edges included, appended to :attr:`TelemetryStream.summaries`.

**One state lane.**  Each payload carries the group's whole snapshot.
The live registry is the merge of this epoch's snapshots in sorted group
order, built on its first read after the fold — the exact computation
:meth:`~repro.scale.runner.ScenarioResult.metrics` performs at collect
time — and every per-group view (:meth:`TelemetryStream.groups`) reads
the group's own snapshot.  So a rebuilt group shows its replayed prefix,
an evicted group vanishes because it no longer ships, and ``collect()``
is a second reading of the same state rather than a second source of
truth.

**One worker-side sample.**  SLO windows need increments, which a
cumulative snapshot does not hold.  The source diffs its snapshot
against the one it shipped last; the epoch's slot-latency sketch is
built from the deadline accounts since then.  The diff is taken on the
worker because only the worker sees a rebuilt group's replayed prefix:
the replay ships nothing but advances the baseline, so the next sample
counts the rebuilt group's epoch exactly as a from-scratch run would.

**One span lane.**  Span rows are the only events: drained once
worker-side, kept here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, declare
from repro.obs.recorder import FlightRecorder
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import EpochSample, SloEngine, SloSpec

#: Counter the source bumps for spans that rolled off a worker ring
#: before the epoch flush could ship them.
DROPPED_SPANS_METRIC = "fronthaul_recorder_dropped_spans_total"
_DROPPED_SPANS = declare(
    "counter", DROPPED_SPANS_METRIC,
    "spans evicted from a worker flight-recorder ring before the epoch "
    "flush shipped them",
    ("group",),
)

#: The sample's counts, by the counter family each one totals.
_COUNTED = {
    "deadline_checks": "fronthaul_deadline_checks_total",
    "deadline_misses": "fronthaul_deadline_violations_total",
    "frames_checked": "conformance_frames_total",
}
#: The sample's scalar counts (an EpochSample field each).
_SCALARS = (*_COUNTED, "breaker_opens")
_VIOLATIONS = "conformance_violations_total"
_BREAKER = "chain_breaker_transitions_total"
_SLOT_LATENCY = "fronthaul_slot_total_ns"


def _series(snapshot: Dict[str, Dict[str, Any]], name: str) -> Dict[str, Any]:
    family = snapshot.get(name)
    return family["series"] if family else {}


def _total(snapshot: Dict[str, Dict[str, Any]], name: str) -> int:
    """One counter family's value summed over its series."""
    return int(sum(_series(snapshot, name).values()))


def _counts(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The event totals one group snapshot holds: deadline checks and
    misses, conformance frames and violations by class, breaker opens."""
    counts: Dict[str, Any] = {
        key: _total(snapshot, name) for key, name in _COUNTED.items()
    }
    violations: Dict[str, int] = {}
    for key, value in _series(snapshot, _VIOLATIONS).items():
        kind = key.split(",")[-1]
        violations[kind] = violations.get(kind, 0) + int(value)
    counts["violations"] = violations
    counts["breaker_opens"] = int(sum(
        value for key, value in _series(snapshot, _BREAKER).items()
        if key.split(",")[-1] == "open"
    ))
    return counts


class GroupStreamSource:
    """Worker-side producer of one coupling group's epoch payloads.

    ``shard`` is the worker index the group runs on (the single-process
    runner passes ``0``).  ``stream`` gates the span rows: with it False
    the payload carries the metric snapshot and the sample only.
    """

    def __init__(self, group, shard: int, stream: bool = True):
        self.group = group
        self.shard = shard
        self.stream = stream
        #: The counts of the snapshot shipped last: every sample's baseline.
        self._shipped = _counts({})

    def _slot_sketch(self, since: int) -> Optional[Dict[str, Any]]:
        """Sketch sample of the slot latencies accounted after the
        ``since``-th check (``None`` when there are none)."""
        accountant = self.group.accountant
        if accountant is None or len(accountant.accounts) <= since:
            return None
        sketch = QuantileSketch(relative_accuracy=accountant.sketch_accuracy)
        for account in accountant.accounts[since:]:
            sketch.observe(account.total_ns)
        return sketch.sample()

    def epoch_payload(self) -> Dict[str, Any]:
        """Flush everything this group accumulated since the last epoch.

        Side-effect order matters: spans drain (and the dropped-span
        counter bumps) *before* the metrics snapshot, so the shipped
        snapshot already carries the drop accounting for this epoch.
        """
        payload: Dict[str, Any] = {
            "group": self.group.name,
            "shard": self.shard,
        }
        obs = self.group.obs
        if self.stream:
            rows, evicted = obs.recorder.drain()
            if evicted:
                obs.children(_DROPPED_SPANS, self.group.name).inc(evicted)
            payload["spans"] = rows
        snapshot = obs.registry.snapshot()
        counts, shipped = _counts(snapshot), self._shipped
        sample = {key: counts[key] - shipped[key] for key in _SCALARS}
        sample["violations"] = {
            kind: count - shipped["violations"].get(kind, 0)
            for kind, count in counts["violations"].items()
            if count != shipped["violations"].get(kind, 0)
        }
        sample["slot_sketch"] = self._slot_sketch(shipped["deadline_checks"])
        self._shipped = counts
        payload["metrics"] = snapshot
        payload["sample"] = sample
        return payload


class TelemetryStream:
    """Coordinator-side fold of every group's epoch payloads.

    One instance lives for one run.  :meth:`fold_epoch` is called at
    every barrier with the payloads of *all* groups (any worker order —
    the fold sorts by group name, so results are placement-independent),
    and maintains:

    - :attr:`registry` — the merge of this barrier's group snapshots
      (equal to ``collect()``'s merge at every barrier), built when read;
    - :meth:`groups` — per group, the totals its own snapshot holds;
    - :attr:`recorder` — a bounded ring of streamed span rows, each
      stamped with its ``(group, shard)``;
    - :attr:`slo` — the burn-rate engine, fed one
      :class:`~repro.obs.slo.EpochSample` per epoch: the sum of the
      group samples;
    - :attr:`summaries` — one :meth:`epoch_summary` record per fold.

    Nothing per group outlives a fold: a group that stops shipping has
    nothing left to forget.
    """

    def __init__(
        self,
        slo_specs: Sequence[SloSpec] = (),
        max_spans: int = 4096,
    ):
        #: The last fold's group snapshots, by group in sorted order.
        self._snapshots: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._registry: Optional[MetricsRegistry] = None
        self.recorder = FlightRecorder(capacity=max_spans)
        self.slo = SloEngine(slo_specs)
        #: Every fold's summary record, in fold order.
        self.summaries: List[Dict[str, Any]] = []
        self.epochs = 0
        self.spans_seen = 0
        self.worker_restarts_total = 0
        self._pending_restarts = 0
        #: True once the fold of the horizon's last epoch is in.
        self.finalized = False

    def note_worker_restart(self, worker: int) -> None:
        """Record one supervised-pool worker respawn.

        Restarts are coordinator events, not worker payloads — folding
        them into the stream registry would be wiped by the next
        barrier's rebuild — so they ride the next
        :class:`~repro.obs.slo.EpochSample` instead, which is what the
        ``worker_restarts`` SLO objective windows over.
        """
        self.worker_restarts_total += 1
        self._pending_restarts += 1

    # -- folding ---------------------------------------------------------

    def fold_epoch(
        self, payloads: Sequence[Dict[str, Any]], final: bool = False
    ) -> EpochSample:
        """Fold one barrier epoch's payloads (all groups, any order).

        ``final`` is the coordinator saying this was the horizon's last
        epoch (:attr:`finalized`); the fold itself is the same.
        """
        ordered = sorted(payloads, key=lambda p: p["group"])
        epoch = self.epochs
        self._snapshots = {p["group"]: p["metrics"] for p in ordered}
        self._registry = None
        totals = dict.fromkeys(_SCALARS, 0)
        violations = 0
        epoch_sketch: Optional[QuantileSketch] = None
        record = self.recorder.record
        for payload in ordered:
            rows = payload.get("spans", ())
            stamp = (payload["group"], payload["shard"])
            for row in rows:
                record(row + stamp)
            self.spans_seen += len(rows)
            increments = payload["sample"]
            for key in totals:
                totals[key] += increments[key]
            violations += sum(increments["violations"].values())
            latency = increments["slot_sketch"]
            if latency is not None:
                if epoch_sketch is None:
                    epoch_sketch = QuantileSketch.from_sample(latency)
                else:
                    epoch_sketch.merge_sample(latency)
        self.finalized = final
        sample = EpochSample(
            epoch=epoch,
            slot_sketch=epoch_sketch.sample() if epoch_sketch else None,
            conformance_violations=violations,
            worker_restarts=self._pending_restarts,
            **totals,
        )
        self._pending_restarts = 0
        alerts = self.slo.observe_epoch(sample)
        self.epochs += 1
        self.summaries.append(
            self.epoch_summary(sample, [a.to_dict() for a in alerts])
        )
        return sample

    # -- views -------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The merge of the last barrier's group snapshots, built on the
        first read after a fold.  Same merge, same sorted order as
        ``ScenarioResult.metrics()``: that is what makes live == collect
        at every barrier."""
        if self._registry is None:
            self._registry = MetricsRegistry()
            for snapshot in self._snapshots.values():
                self._registry.merge_snapshot(snapshot)
        return self._registry

    def groups(self) -> Dict[str, Dict[str, Any]]:
        """Per group, in sorted order, the totals its last-folded snapshot
        holds: the sample's counts, cumulative — plus ``spans_dropped``
        and ``slot_sketch`` (the slot-latency sketch sample, ``None``
        without deadline accounting)."""
        return {
            group: {
                **_counts(snapshot),
                "spans_dropped": _total(snapshot, DROPPED_SPANS_METRIC),
                "slot_sketch": _series(snapshot, _SLOT_LATENCY).get(""),
            }
            for group, snapshot in self._snapshots.items()
        }

    def epoch_summary(
        self, sample: EpochSample, alerts: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The JSON-safe record kept per epoch in :attr:`summaries`."""
        return {
            "epoch": sample.epoch,
            "deadline_checks": sample.deadline_checks,
            "deadline_misses": sample.deadline_misses,
            "frames_checked": sample.frames_checked,
            "conformance_violations": sample.conformance_violations,
            "breaker_opens": sample.breaker_opens,
            "worker_restarts": sample.worker_restarts,
            "spans_seen": self.spans_seen,
            "spans_dropped": sum(
                _total(snapshot, DROPPED_SPANS_METRIC)
                for snapshot in self._snapshots.values()
            ),
            "alerts": alerts,
            "firing": self.slo.firing(),
        }

    def live_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The live registry's snapshot: ``collect()``'s, as of the
        last barrier."""
        return self.registry.snapshot()

    def p99_slot_latency_ns(self) -> float:
        """Cross-shard P99 of per-slot chain latency over the whole run."""
        family = self.registry.get(_SLOT_LATENCY)
        return family.labels().quantile(0.99) if family else 0.0


__all__ = [
    "DROPPED_SPANS_METRIC",
    "GroupStreamSource",
    "TelemetryStream",
]
