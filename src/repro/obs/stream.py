"""Streaming telemetry transport: per-epoch flushes, live coordinator fold.

The telemetry plane has two ends, one object each:

- :class:`GroupStreamSource` (worker side) wraps one built coupling
  group and produces a plain-data **epoch payload** at every barrier:
  the group registry's cumulative metric snapshot, the span rows its
  flight recorder took since the last drain (the payload's own
  ``group``/``shard`` is their stamp, sent once), the deadline accounts
  of the epoch's slots, and the epoch's conformance counts and breaker
  opens as plain ints.  Payloads are pure picklable data, so they ride
  the worker's epoch reply over the control pipe like every other pool
  payload.
- :class:`TelemetryStream` (coordinator side) folds payloads as they
  arrive: the epoch's snapshots are kept for the live registry (merged
  when read), span rows land in a bounded coordinator recorder with the
  ``(group, shard)`` they were recorded on after their wire
  coordinates, deadline accounts feed per-group
  :class:`~repro.obs.deadline.DeadlineAccountant` twins, and every
  epoch emits one :class:`~repro.obs.slo.EpochSample` into the
  :class:`~repro.obs.slo.SloEngine` plus a summary record on the
  :class:`~repro.core.telemetry.TelemetryBus` (topic
  :data:`EPOCH_TOPIC`).

**Live equals collect, bit for bit, at every barrier.**  Metrics are a
state lane: each payload carries the group's whole snapshot and the live
registry is the merge of this epoch's snapshots in sorted group order,
built on its first read after the fold — the exact
computation :meth:`~repro.scale.runner.ScenarioResult.metrics` performs
at collect time.  So a rebuilt group shows its replayed prefix, an
evicted group vanishes because it no longer ships, and ``collect()`` is
a second reading of the same state rather than a second source of
truth.  Spans, deadline accounts and the scalar counts are event lanes:
drained once worker-side, accumulated here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple

from repro.obs.deadline import DeadlineAccountant
from repro.obs.metrics import MetricsRegistry, declare
from repro.obs.recorder import FlightRecorder
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.slo import EpochSample, SloEngine, SloSpec

#: Bus topic carrying one summary record per folded stream epoch.
EPOCH_TOPIC = "obs.stream.epoch"

#: Counter the source bumps for spans that rolled off a worker ring
#: before the epoch flush could ship them.
DROPPED_SPANS_METRIC = "fronthaul_recorder_dropped_spans_total"
_DROPPED_SPANS = declare(
    "counter", DROPPED_SPANS_METRIC,
    "spans evicted from a worker flight-recorder ring before the epoch "
    "flush shipped them",
    ("group",),
)


class GroupStreamSource:
    """Worker-side producer of one coupling group's epoch payloads.

    ``shard`` is the worker index the group runs on (the single-process
    runner passes ``0``).  ``stream`` gates the expensive lanes: with it
    False only the metric snapshot and the breaker-open count ship.
    """

    def __init__(self, group, shard: int, stream: bool = True):
        self.group = group
        self.shard = shard
        self.stream = stream
        self._shipped_accounts = 0
        self._last_conformance: Dict[str, Any] = {}
        self._last_breaker_opens = 0

    def _deadline_delta(self) -> List[Dict[str, Any]]:
        accountant = self.group.accountant
        if accountant is None:
            return []
        fresh = accountant.accounts[self._shipped_accounts:]
        self._shipped_accounts = len(accountant.accounts)
        return [account.to_wire() for account in fresh]

    def _conformance_delta(self) -> Dict[str, Any]:
        validator = self.group.validator
        if validator is None:
            return {}
        report = validator.report
        previous = self._last_conformance
        counts = {
            str(kind): count for kind, count in report.counts.items()
        }
        delta = {
            "frames_checked": (
                report.frames_checked - previous.get("frames_checked", 0)
            ),
            "counts": {
                kind: count - previous.get("counts", {}).get(kind, 0)
                for kind, count in counts.items()
            },
        }
        self._last_conformance = {
            "frames_checked": report.frames_checked,
            "counts": counts,
        }
        delta["counts"] = {k: v for k, v in delta["counts"].items() if v}
        return delta

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
            rows, evicted_delta = obs.recorder.drain()
            if evicted_delta:
                obs.children(_DROPPED_SPANS, self.group.name).inc(
                    evicted_delta
                )
            payload["spans"] = rows
            payload["spans_dropped"] = evicted_delta
            payload["deadline"] = self._deadline_delta()
            payload["conformance"] = self._conformance_delta()
        snapshot = obs.registry.snapshot()
        opens = _breaker_opens(snapshot)
        payload["breaker_opens"] = opens - self._last_breaker_opens
        self._last_breaker_opens = opens
        payload["metrics"] = snapshot
        return payload


def _breaker_opens(snapshot: Dict[str, Dict[str, Any]]) -> int:
    """Circuit-breaker open transitions counted by one metric snapshot."""
    family = snapshot.get("chain_breaker_transitions_total")
    if not family:
        return 0
    opens = 0
    for key, value in family["series"].items():
        if key.split(",")[-1] == "open":
            opens += int(value)
    return opens


class TelemetryStream:
    """Coordinator-side fold of every group's epoch payloads.

    One instance lives for one run.  :meth:`fold_epoch` is called at
    every barrier with the payloads of *all* groups (any worker order —
    the fold sorts by group name, so results are placement-independent),
    and maintains:

    - :attr:`registry` — the merge of this barrier's group snapshots
      (equal to ``collect()``'s merge at every barrier), built when read;
    - :attr:`recorder` — a bounded ring of streamed span rows, each
      stamped with its ``(group, shard)``;
    - :attr:`accountants` — per-group deadline-accountant twins built
      purely from the stream (identical to the worker-side ones, which
      the property suite pins);
    - :attr:`slo` — the burn-rate engine, fed one
      :class:`~repro.obs.slo.EpochSample` per epoch;
    - ``bus`` topic :data:`EPOCH_TOPIC` and the optional ``tail`` sink
      (one JSON line per epoch — ``tail`` is any writable text file).

    A group absent from a fold has left the plan: its accountant twin
    and its per-group conformance and dropped-span counts are forgotten
    with its metrics.
    """

    def __init__(
        self,
        bus=None,
        slo_specs: Sequence[SloSpec] = (),
        max_spans: int = 4096,
        sketch_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        tail: Optional[IO[str]] = None,
        source: str = "telemetry-stream",
    ):
        self.bus = bus
        #: The last fold's group snapshots, in sorted group order.
        self._snapshots: List[Dict[str, Dict[str, Any]]] = []
        self._registry: Optional[MetricsRegistry] = None
        self.recorder = FlightRecorder(capacity=max_spans)
        self.accountants: Dict[str, DeadlineAccountant] = {}
        self.slo = SloEngine(slo_specs, bus=bus, source=source)
        self.sketch_accuracy = sketch_accuracy
        self.tail = tail
        self.source = source
        self.epochs = 0
        self.spans_seen = 0
        self.spans_dropped: Dict[str, int] = {}
        self.frames_checked = 0
        self.conformance_counts: Dict[str, int] = {}
        #: Per-group conformance accumulation (group -> {"frames_checked",
        #: "violations", "counts"}); the scenario-wide totals above are
        #: event sums and keep what a since-evicted group contributed.
        self.group_conformance: Dict[str, Dict[str, Any]] = {}
        #: The last fold's per-group conformance deltas, same shape —
        #: what the live control plane routes to per-cell subscribers.
        self.epoch_conformance: Dict[str, Dict[str, Any]] = {}
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

    def _fold_spans(self, payload: Dict[str, Any]) -> None:
        rows = payload.get("spans", ())
        stamp = (payload["group"], payload["shard"])
        record = self.recorder.record
        for row in rows:
            record(row + stamp)
        self.spans_seen += len(rows)
        dropped = payload.get("spans_dropped", 0)
        if dropped:
            group = payload["group"]
            self.spans_dropped[group] = (
                self.spans_dropped.get(group, 0) + dropped
            )

    def _fold_deadline(
        self, payload: Dict[str, Any], epoch_sketch: QuantileSketch
    ) -> Tuple[int, int]:
        accounts = payload.get("deadline", ())
        if not accounts:
            return 0, 0
        group = payload["group"]
        accountant = self.accountants.get(group)
        if accountant is None:
            accountant = DeadlineAccountant(
                budget_ns=accounts[0]["budget_ns"],
                sketch_accuracy=self.sketch_accuracy,
            )
            self.accountants[group] = accountant
        before = accountant.violations
        folded = accountant.ingest(accounts)
        for account in accounts:
            epoch_sketch.observe(sum(account["stages"].values()))
        return folded, accountant.violations - before

    def _fold_conformance(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        shipped = payload.get("conformance") or {}
        counts = shipped.get("counts", {})
        delta = {
            "frames_checked": shipped.get("frames_checked", 0),
            "violations": sum(counts.values()),
            "counts": counts,
        }
        self.frames_checked += delta["frames_checked"]
        per_group = self.group_conformance.setdefault(
            payload["group"],
            {"frames_checked": 0, "violations": 0, "counts": {}},
        )
        per_group["frames_checked"] += delta["frames_checked"]
        per_group["violations"] += delta["violations"]
        for kind, count in counts.items():
            self.conformance_counts[kind] = (
                self.conformance_counts.get(kind, 0) + count
            )
            per_group["counts"][kind] = (
                per_group["counts"].get(kind, 0) + count
            )
        return delta

    def fold_epoch(
        self, payloads: Sequence[Dict[str, Any]], final: bool = False
    ) -> EpochSample:
        """Fold one barrier epoch's payloads (all groups, any order).

        ``final`` is the coordinator saying this was the horizon's last
        epoch (:attr:`finalized`); the fold itself is the same.
        """
        ordered = sorted(payloads, key=lambda p: p["group"])
        epoch = self.epochs
        epoch_sketch = QuantileSketch(
            relative_accuracy=self.sketch_accuracy
        )
        checks = misses = frames = violations = opens = 0
        self._snapshots = [payload["metrics"] for payload in ordered]
        self._registry = None
        self.epoch_conformance = {}
        for payload in ordered:
            self._fold_spans(payload)
            folded, violated = self._fold_deadline(payload, epoch_sketch)
            checks += folded
            misses += violated
            delta = self._fold_conformance(payload)
            self.epoch_conformance[payload["group"]] = delta
            frames += delta["frames_checked"]
            violations += delta["violations"]
            opens += payload["breaker_opens"]
        # A group that shipped nothing has left the plan.
        for table in (
            self.accountants, self.group_conformance, self.spans_dropped
        ):
            for group in table.keys() - self.epoch_conformance.keys():
                del table[group]
        self.finalized = final
        sample = EpochSample(
            epoch=epoch,
            deadline_checks=checks,
            deadline_misses=misses,
            slot_sketch=epoch_sketch.sample() if epoch_sketch.count else None,
            frames_checked=frames,
            conformance_violations=violations,
            breaker_opens=opens,
            worker_restarts=self._pending_restarts,
        )
        self._pending_restarts = 0
        alerts = self.slo.observe_epoch(sample)
        self.epochs += 1
        summary = self.epoch_summary(sample, [a.to_dict() for a in alerts])
        if self.bus is not None:
            self.bus.publish(
                EPOCH_TOPIC, summary,
                timestamp_ns=float(epoch), source=self.source,
            )
        if self.tail is not None:
            self.tail.write(json.dumps(summary, sort_keys=True) + "\n")
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
            for snapshot in self._snapshots:
                self._registry.merge_snapshot(snapshot)
        return self._registry

    def epoch_summary(
        self, sample: EpochSample, alerts: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The JSON-safe record published per epoch (bus + JSONL tail)."""
        return {
            "epoch": sample.epoch,
            "deadline_checks": sample.deadline_checks,
            "deadline_misses": sample.deadline_misses,
            "frames_checked": sample.frames_checked,
            "conformance_violations": sample.conformance_violations,
            "breaker_opens": sample.breaker_opens,
            "worker_restarts": sample.worker_restarts,
            "spans_seen": self.spans_seen,
            "spans_dropped": sum(self.spans_dropped.values()),
            "alerts": alerts,
            "firing": self.slo.firing(),
        }

    def live_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The live registry's snapshot: ``collect()``'s, as of the
        last barrier."""
        return self.registry.snapshot()

    def p99_slot_latency_ns(self) -> float:
        """Cross-shard P99 of per-slot chain latency over the whole run."""
        merged = QuantileSketch(relative_accuracy=self.sketch_accuracy)
        for name in sorted(self.accountants):
            merged.merge(self.accountants[name].latency_sketch)
        return merged.quantile(0.99)


__all__ = [
    "DROPPED_SPANS_METRIC",
    "EPOCH_TOPIC",
    "GroupStreamSource",
    "TelemetryStream",
]
