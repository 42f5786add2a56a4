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
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.fronthaul.timing import Numerology
from repro.obs.metrics import declare
from repro.obs.sketch import QuantileSketch

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
_SLOT_TOTAL = declare(
    "sketch", "fronthaul_slot_total_ns",
    "per-slot modelled chain latency (mergeable sketch)",
)


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


class DeadlineAccountant:
    """Per-slot latency budget checks over a middlebox chain.

    Feed it one :meth:`observe_slot` per processed slot (the simulator
    does this automatically when an accountant is attached to a
    :class:`~repro.sim.network_sim.FronthaulNetwork`).  It keeps a fold,
    not a record per slot: counts, per-stage sums, the worst slot and
    the open epoch's sketch (:meth:`take_epoch_sketch`).  When an
    :class:`~repro.obs.Observability` is attached, it also emits
    ``fronthaul_deadline_checks_total`` /
    ``fronthaul_deadline_violations_total`` counters and a headroom gauge.
    """

    def __init__(
        self,
        numerology: Numerology = Numerology(mu=1),
        budget_ns: Optional[float] = None,
        obs=None,
    ):
        if budget_ns is None:
            # Paper allowance, never beyond the symbol receive window.
            budget_ns = min(SLOT_BUDGET_NS, numerology.symbol_duration_ns)
        self.budget_ns = budget_ns
        self.obs = obs
        self.checks = 0
        self.violations = 0
        #: Per-stage ns summed in slot order, and the first largest slot.
        self._stage_ns: Dict[str, float] = {}
        self._worst: Optional[SlotAccount] = None
        self._epoch = QuantileSketch()

    def observe_slot(
        self, absolute_slot: int, per_stage_ns: Mapping[str, float]
    ) -> SlotAccount:
        """Check one slot's accumulated modelled latency against budget."""
        account = SlotAccount(
            absolute_slot=absolute_slot,
            per_stage_ns=dict(per_stage_ns),
            budget_ns=self.budget_ns,
        )
        total_ns = account.total_ns
        self.checks += 1
        if account.violated:
            self.violations += 1
        stage_ns = self._stage_ns
        for stage, spent_ns in per_stage_ns.items():
            stage_ns[stage] = stage_ns.get(stage, 0.0) + spent_ns
        if self._worst is None or total_ns > self._worst.total_ns:
            self._worst = account
        self._epoch.observe(total_ns)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.children(_CHECKS).inc()
            if account.violated:
                obs.children(_VIOLATIONS).inc()
            obs.children(_HEADROOM).set(account.headroom_ns)
            obs.children(_SLOT_TOTAL).observe(total_ns)
            for stage, spent_ns in account.per_stage_ns.items():
                obs.children(_STAGE_NS, stage).observe(spent_ns)
        return account

    def take_epoch_sketch(self) -> Optional[Dict[str, Any]]:
        """The sketch sample of the slot totals observed since the last
        take (``None`` when there are none); the next epoch opens empty."""
        sketch, self._epoch = self._epoch, QuantileSketch()
        return sketch.sample() if sketch.count else None

    # -- aggregate views -----------------------------------------------------

    def violation_rate(self) -> float:
        return self.violations / self.checks if self.checks else 0.0

    def worst_slot(self) -> Optional[SlotAccount]:
        return self._worst

    def stage_means_ns(self) -> Dict[str, float]:
        return {
            stage: total / self.checks
            for stage, total in self._stage_ns.items()
        }

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
            f"  slots checked: {self.checks}, "
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
    return {
        f"{index}:{middlebox.name}": middlebox.stats.processing_ns_total - before
        for index, (middlebox, before) in enumerate(
            zip(middleboxes, previous_totals)
        )
    }
