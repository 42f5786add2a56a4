"""Every offered packet reaches the endpoint it was meant for.

The ledger (:meth:`~repro.scale.runner.ScenarioResult.delivery`) sums a
group's slot reports; these tests hold the fixture's traffic to it: no
cell of the 8-cell benchmark topology runs dark, no group of any
canonical spec leaves a packet undelivered, a fronthaul guard
chained with a DAS admits the DAS's re-sourced uplink, and two DASes
sharing a coupling group each fan out only their own DU's downlink.
"""

import hashlib

from repro.eval import kit
from repro.eval.scale import bench_spec
from repro.scale import Scenario
from repro.scale.build import build_groups
from tests.eval.test_golden_tables import canonical_specs

#: ``du.uplink_sha256()`` of a DU that received no uplink.
NO_UPLINK = hashlib.sha256().hexdigest()
SLOTS = 20


def _cell(name, pci, chain, group=None):
    return kit.cell(
        name, pci,
        [kit.flow("dl", 40.0), kit.flow("ul", 40.0, "poisson", seed=pci)],
        rus=[{"name": f"{name}-ru{i}", "n_antennas": 2} for i in range(2)],
        chain=chain, group=group,
    )


def _run(*cells):
    (group,) = build_groups(kit.scenario("delivery", SLOTS, 1, list(cells)))
    group.network.run(SLOTS)
    return group


def test_no_cell_of_the_bench_topology_runs_dark():
    specs = dict(canonical_specs(), bench=bench_spec(SLOTS))
    ledgers = {
        name: Scenario(spec).run(workers=0).delivery()
        for name, spec in specs.items()
    }
    for name, ledger in ledgers.items():
        assert {
            group: counts["undeliverable"] for group, counts in ledger.items()
        } == dict.fromkeys(ledger, 0), name
    ledger = ledgers["bench"]
    assert all(counts["dl_packets"] > 0 for counts in ledger.values())
    # Cells 1-6 carry an uplink flow; the campus pair is downlink-only.
    assert all(
        ledger[f"cell{index}"]["ul_packets"] > 0 for index in range(1, 7)
    )


def test_a_guard_admits_the_das_it_is_chained_with():
    group = _run(
        _cell("guarded", 3, [{"stage": "fronthaul_guard"}, {"stage": "das"}])
    )
    guard = group.middleboxes[0]
    assert [alert.reason for alert in guard.alerts] == []
    assert sum(report.ul_packets for report in group.network.reports) > 0
    assert group.cells[0].du.uplink_sha256() != NO_UPLINK


def test_two_dases_in_one_group_each_fan_out_their_own_du():
    group = _run(
        _cell("east", 1, [{"stage": "das"}], group="pair"),
        _cell("west", 2, [{"stage": "das", "params": {"cell": "west"}}],
              group="pair"),
    )
    for built in group.cells:
        assert built.du.uplink_sha256() != NO_UPLINK, built.spec.name
        for radio, _ in built.rus.values():
            received = (
                radio.counters.uplane_received
                + radio.counters.unsolicited_uplane
            )
            # One copy of each of its own DU's U-plane packets, no more.
            assert received == built.du.counters.dl_packets, radio.ru_id
