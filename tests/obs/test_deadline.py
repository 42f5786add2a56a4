"""Deadline accounting: per-slot budgets vs O-RAN timing windows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fronthaul.timing import Numerology
from repro.obs import (
    DeadlineAccountant,
    Observability,
    QuantileSketch,
    SLOT_BUDGET_NS,
    SlotAccount,
    account_middleboxes,
)
from tests.testbed import record_slots


class TestSlotAccount:
    def test_totals_and_headroom(self):
        account = SlotAccount(
            absolute_slot=3,
            per_stage_ns={"0:sharing": 10_000.0, "1:das": 15_000.0},
            budget_ns=SLOT_BUDGET_NS,
        )
        assert account.total_ns == 25_000.0
        assert not account.violated
        assert account.headroom_ns == 5_000.0

    def test_violation(self):
        account = SlotAccount(1, {"0:das": 31_000.0}, SLOT_BUDGET_NS)
        assert account.violated and account.headroom_ns == -1_000.0


class TestDeadlineAccountant:
    def test_budget_defaults_to_paper_allowance(self):
        accountant = DeadlineAccountant(numerology=Numerology(mu=1))
        assert accountant.budget_ns == SLOT_BUDGET_NS

    def test_budget_capped_by_symbol_window(self):
        # At mu=3 one symbol is ~8.9 us — a 30 us allowance is meaningless.
        mu3 = Numerology(mu=3)
        accountant = DeadlineAccountant(numerology=mu3)
        assert accountant.budget_ns == mu3.symbol_duration_ns
        assert accountant.budget_ns < SLOT_BUDGET_NS

    def test_counts_violations(self):
        accountant = DeadlineAccountant(budget_ns=1_000.0)
        accountant.observe_slot(0, {"0:box": 500.0})
        accountant.observe_slot(1, {"0:box": 1_500.0})
        accountant.observe_slot(2, {"0:box": 2_000.0})
        assert accountant.violations == 2
        assert accountant.violation_rate() == pytest.approx(2 / 3)
        assert accountant.worst_slot().absolute_slot == 2

    def test_stage_means(self):
        accountant = DeadlineAccountant(budget_ns=1_000.0)
        accountant.observe_slot(0, {"0:a": 100.0, "1:b": 200.0})
        accountant.observe_slot(1, {"0:a": 300.0, "1:b": 400.0})
        assert accountant.stage_means_ns() == {"0:a": 200.0, "1:b": 300.0}

    def test_empty_accountant(self):
        accountant = DeadlineAccountant()
        assert accountant.violation_rate() == 0.0
        assert accountant.worst_slot() is None
        assert accountant.stage_means_ns() == {}
        assert accountant.take_epoch_sketch() is None

    def test_worst_slot_is_the_first_maximum(self):
        accountant = DeadlineAccountant(budget_ns=1_000.0)
        for slot, total_ns in enumerate((500.0, 900.0, 900.0, 300.0)):
            accountant.observe_slot(slot, {"0:box": total_ns})
        worst = accountant.worst_slot()
        assert (worst.absolute_slot, worst.per_stage_ns) == (1, {"0:box": 900.0})

    def test_epoch_sketch_is_taken_once(self):
        accountant = DeadlineAccountant(budget_ns=1_000.0)
        accountant.observe_slot(0, {"0:box": 500.0})
        accountant.observe_slot(1, {"0:box": 700.0})
        first = QuantileSketch.from_sample(accountant.take_epoch_sketch())
        assert (first.count, first.min, first.max) == (2, 500.0, 700.0)
        assert accountant.take_epoch_sketch() is None
        accountant.observe_slot(2, {"0:box": 100.0})
        assert accountant.take_epoch_sketch()["count"] == 1
        assert accountant.checks == 3  # the fold outlives the epoch

    def test_keeps_no_container_per_slot(self):
        accountant = DeadlineAccountant(budget_ns=1_000.0)

        def held():
            return {
                name: len(value) for name, value in vars(accountant).items()
                if isinstance(value, (dict, list, tuple))
            }

        for slot in range(10):
            accountant.observe_slot(slot, {"0:a": 100.0, "1:b": float(slot)})
        at_10 = held()
        for slot in range(10, 1_000):
            accountant.observe_slot(slot, {"0:a": 100.0, "1:b": float(slot)})
        assert held() == at_10
        assert accountant.checks == 1_000

    def test_metrics_emitted_when_observed(self):
        obs = Observability(enabled=True)
        accountant = DeadlineAccountant(budget_ns=1_000.0, obs=obs)
        accountant.observe_slot(0, {"0:box": 2_000.0})
        accountant.observe_slot(1, {"0:box": 100.0})
        snap = obs.registry.snapshot()
        assert snap["fronthaul_deadline_checks_total"]["series"][""] == 2
        assert snap["fronthaul_deadline_violations_total"]["series"][""] == 1
        assert snap["fronthaul_deadline_headroom_ns"]["series"][""] == 900.0
        assert snap["fronthaul_stage_slot_ns"]["series"]["0:box"]["count"] == 2

    def test_no_metrics_when_disabled(self):
        obs = Observability(enabled=False)
        accountant = DeadlineAccountant(budget_ns=1_000.0, obs=obs)
        accountant.observe_slot(0, {"0:box": 2_000.0})
        assert obs.registry.snapshot() == {}
        assert accountant.violations == 1  # accounting still works

    def test_budget_report_format(self):
        accountant = DeadlineAccountant(budget_ns=30_000.0)
        accountant.observe_slot(0, {"0:das": 29_000.0})
        accountant.observe_slot(1, {"0:das": 31_000.0})
        report = accountant.budget_report(title="chain budget")
        assert report.splitlines()[0] == "chain budget"
        assert "budget (per slot)" in report
        assert "worst slot 1: 31.00 us (VIOLATED)" in report
        assert "slots checked: 2, violations: 1 (50.0%)" in report


class TestAccountMiddleboxes:
    def test_deltas_with_unique_stage_names(self):
        class Stats:
            def __init__(self, total):
                self.processing_ns_total = total

        class Box:
            def __init__(self, name, total):
                self.name = name
                self.stats = Stats(total)

        boxes = [Box("das", 500.0), Box("das", 800.0)]
        per_stage = account_middleboxes(boxes, [100.0, 300.0])
        assert per_stage == {"0:das": 400.0, "1:das": 500.0}


class TestFig15aMeasured:
    def test_measured_budget_reproduces_fig15a(self):
        from repro.eval.fig15 import run_fig15a_measured

        result = run_fig15a_measured(ru_counts=(2, 4), n_slots=2)
        assert set(result.accountants) == {2, 4}
        for accountant in result.accountants.values():
            assert accountant.checks == 2  # every slot was checked
        # More RUs -> more per-slot merge work (the Figure 15a trend).
        worst2 = result.accountants[2].worst_slot().total_ns
        worst4 = result.accountants[4].worst_slot().total_ns
        assert worst4 > worst2
        assert "Figure 15a (measured): DAS chain, 2 RUs" in result.format()
        assert "fronthaul_deadline_checks_total" in result.registry_text


slot_stages = st.lists(
    st.dictionaries(
        st.sampled_from(["0:das", "1:sharing", "2:monitor"]),
        st.floats(min_value=0.0, max_value=20_000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
    ),
    min_size=1,
    max_size=30,
)


@given(slots=slot_stages)
@settings(max_examples=60, deadline=None)
def test_the_fold_equals_the_recorded_slots(slots):
    """Counts, stage means, worst slot and sketch, as the old per-slot
    list gave them, rebuilt from the slots a test-side recorder kept."""
    accountant = DeadlineAccountant(budget_ns=30_000.0)
    recorded = record_slots(accountant)
    for slot, per_stage_ns in enumerate(slots):
        accountant.observe_slot(slot, per_stage_ns)
    totals = [sum(per_stage.values()) for _, per_stage in recorded]
    assert accountant.checks == len(recorded) == len(slots)
    assert accountant.violations == sum(t > 30_000.0 for t in totals)
    sums = {}
    for _, per_stage in recorded:
        for stage, spent_ns in per_stage.items():
            sums[stage] = sums.get(stage, 0.0) + spent_ns
    assert accountant.stage_means_ns() == {
        stage: total / len(recorded) for stage, total in sums.items()
    }
    worst_slot, worst_stages = max(
        recorded, key=lambda slot: sum(slot[1].values())
    )
    worst = accountant.worst_slot()
    assert (worst.absolute_slot, worst.per_stage_ns) == (
        worst_slot, worst_stages
    )
    sketch = QuantileSketch()
    for total in totals:
        sketch.observe(total)
    assert accountant.take_epoch_sketch() == sketch.sample()
