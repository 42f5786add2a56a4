"""Deadline accounting: modelled middlebox latency vs O-RAN timing windows.

Fronthaul receive windows are symbol-scale (Section 2.2): a middlebox
chain that adds more processing latency than the per-slot budget makes
the DU/RU miss their windows.  Figure 15a does this analysis analytically
for the DAS middlebox; this module makes it *observable* — every slot of
a live run is checked against the budget and violations become counters
any scraper can alarm on.

The budget defaults to the paper's 30 us per-slot allowance and is capped
by the numerology's own symbol window (a chain slower than one symbol
duration can never keep up, regardless of allowance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.fronthaul.timing import Numerology
from repro.obs.metrics import declare
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

#: Paper budget for added middlebox processing per slot (Section 6.4.1).
SLOT_BUDGET_NS = 30_000.0

_CHECKS = declare(
    "counter", "fronthaul_deadline_checks_total",
    "slots checked against the fronthaul latency budget",
)
_VIOLATIONS = declare(
    "counter", "fronthaul_deadline_violations_total",
    "slots whose modelled middlebox latency exceeded budget",
)
_HEADROOM = declare(
    "gauge", "fronthaul_deadline_headroom_ns",
    "remaining latency budget of the most recent slot",
)
_STAGE_NS = declare(
    "histogram", "fronthaul_stage_slot_ns",
    "per-slot modelled processing time by chain stage",
    ("stage",),
)


def _slot_total(registry, relative_accuracy: float):
    """The slot-latency sketch, at its accountant's own accuracy (a
    per-run setting, so not a :func:`declare` option)."""
    return registry.sketch(
        "fronthaul_slot_total_ns",
        "per-slot modelled chain latency (mergeable sketch)",
        relative_accuracy=relative_accuracy,
    ).labels()


@dataclass(frozen=True)
class SlotAccount:
    """The latency account of one slot: per-stage and total modelled ns."""

    absolute_slot: int
    per_stage_ns: Dict[str, float]
    budget_ns: float

    @property
    def total_ns(self) -> float:
        return sum(self.per_stage_ns.values())

    @property
    def violated(self) -> bool:
        return self.total_ns > self.budget_ns

    @property
    def headroom_ns(self) -> float:
        return self.budget_ns - self.total_ns

    def to_wire(self) -> Dict[str, Any]:
        """Plain-data form for the streaming telemetry lane."""
        return {
            "slot": self.absolute_slot,
            "stages": dict(self.per_stage_ns),
            "budget_ns": self.budget_ns,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "SlotAccount":
        return cls(
            absolute_slot=data["slot"],
            per_stage_ns=dict(data["stages"]),
            budget_ns=data["budget_ns"],
        )


class DeadlineAccountant:
    """Per-slot latency budget checks over a middlebox chain.

    Feed it one :meth:`observe_slot` per processed slot (the simulator
    does this automatically when an accountant is attached to a
    :class:`~repro.sim.network_sim.FronthaulNetwork`); it keeps the
    per-slot accounts and, when an :class:`~repro.obs.Observability` is
    attached, emits ``fronthaul_deadline_checks_total`` /
    ``fronthaul_deadline_violations_total`` counters and a headroom gauge.
    """

    def __init__(
        self,
        numerology: Numerology = Numerology(mu=1),
        budget_ns: Optional[float] = None,
        obs=None,
        sketch_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        self.numerology = numerology
        if budget_ns is None:
            # Paper allowance, never beyond the symbol receive window.
            budget_ns = min(SLOT_BUDGET_NS, numerology.symbol_duration_ns)
        self.budget_ns = budget_ns
        self.obs = obs
        self.accounts: List[SlotAccount] = []
        self.violations = 0
        #: Mergeable sketch of per-slot totals: percentiles survive the
        #: cross-shard fold without shipping the raw account list.
        self.latency_sketch = QuantileSketch(
            relative_accuracy=sketch_accuracy
        )

    def _book(self, account: SlotAccount) -> None:
        """The accounting common to direct and stream-fed observations."""
        self.accounts.append(account)
        if account.violated:
            self.violations += 1
        self.latency_sketch.observe(account.total_ns)

    def observe_slot(
        self, absolute_slot: int, per_stage_ns: Mapping[str, float]
    ) -> SlotAccount:
        """Check one slot's accumulated modelled latency against budget."""
        account = SlotAccount(
            absolute_slot=absolute_slot,
            per_stage_ns=dict(per_stage_ns),
            budget_ns=self.budget_ns,
        )
        self._book(account)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.children(_CHECKS).inc()
            if account.violated:
                obs.children(_VIOLATIONS).inc()
            obs.children(_HEADROOM).set(account.headroom_ns)
            obs.children(
                _slot_total, self.latency_sketch.relative_accuracy
            ).observe(account.total_ns)
            for stage, spent_ns in account.per_stage_ns.items():
                obs.children(_STAGE_NS, stage).observe(spent_ns)
        return account

    def ingest(self, wire_accounts: Iterable[Dict[str, Any]]) -> int:
        """Fold stream-shipped accounts (:meth:`SlotAccount.to_wire`).

        Books exactly what :meth:`observe_slot` books — accounts list,
        violation count, latency sketch — but never touches the metrics
        registry: on the coordinator those series arrive through the
        folded metric snapshots, and double-counting them here would break
        the live-equals-collect invariant.  Returns how many accounts
        were folded.
        """
        folded = 0
        for data in wire_accounts:
            self._book(SlotAccount.from_wire(data))
            folded += 1
        return folded

    # -- aggregate views -----------------------------------------------------

    def violation_rate(self) -> float:
        if not self.accounts:
            return 0.0
        return self.violations / len(self.accounts)

    def percentile(self, p: float) -> float:
        """Sketch-backed percentile (0-100) of per-slot total latency."""
        return self.latency_sketch.percentile(p)

    def worst_slot(self) -> Optional[SlotAccount]:
        if not self.accounts:
            return None
        return max(self.accounts, key=lambda account: account.total_ns)

    def stage_means_ns(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for account in self.accounts:
            for stage, spent_ns in account.per_stage_ns.items():
                totals[stage] = totals.get(stage, 0.0) + spent_ns
        n = len(self.accounts)
        return {stage: total / n for stage, total in totals.items()}

    def budget_report(self, title: str = "per-chain latency budget") -> str:
        """Figure 15a-style text report: per-stage means vs the budget."""
        lines = [title, "-" * max(len(title), 48)]
        means = self.stage_means_ns()
        cumulative = 0.0
        for stage in sorted(means):
            cumulative += means[stage]
            share = means[stage] / self.budget_ns
            lines.append(
                f"  {stage:<28} {means[stage] / 1000.0:>8.2f} us"
                f"  (cum {cumulative / 1000.0:>7.2f} us, {share:>5.1%} of budget)"
            )
        worst = self.worst_slot()
        lines.append(
            f"  {'budget (per slot)':<28} {self.budget_ns / 1000.0:>8.2f} us"
        )
        if worst is not None:
            lines.append(
                f"  worst slot {worst.absolute_slot}: "
                f"{worst.total_ns / 1000.0:.2f} us"
                f" ({'VIOLATED' if worst.violated else 'ok'})"
            )
        lines.append(
            f"  slots checked: {len(self.accounts)}, "
            f"violations: {self.violations} ({self.violation_rate():.1%})"
        )
        return "\n".join(lines)


def account_middleboxes(
    middleboxes: Sequence, previous_totals: Sequence[float]
) -> Dict[str, float]:
    """Per-stage modelled ns spent since ``previous_totals`` was sampled.

    Helper for slot loops: sample ``stats.processing_ns_total`` before the
    slot, call this after, feed the result to :meth:`observe_slot`.
    Stage names are made unique with their chain position so two
    same-named boxes don't merge.
    """
    per_stage: Dict[str, float] = {}
    for index, (middlebox, before_ns) in enumerate(
        zip(middleboxes, previous_totals)
    ):
        stage = f"{index}:{middlebox.name}"
        per_stage[stage] = middlebox.stats.processing_ns_total - before_ns
    return per_stage
