"""Tap attachment points: chain stage, network ingress, and the sharded
scale path with per-shard report merging."""

from repro.conformance import ConformanceTap, WireValidator
from repro.conformance.violations import ViolationClass
from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.stacks import profile_by_name
from repro.ran.traffic import ConstantBitrateFlow
from repro.scale.spec import (
    CellSpec,
    FlowSpec,
    ObsSpec,
    RuSpec,
    ScenarioSpec,
    StageSpec,
    UeSpec,
)
from repro.scale.runner import run_scenario
from repro.sim.network_sim import FronthaulNetwork


def _validator(profile_name="srsRAN", **kwargs):
    profile = profile_by_name(profile_name)
    kwargs.setdefault("carrier_num_prb", 106)
    return WireValidator(name="tap-test", profile=profile, **kwargs)


def _live_network(validator=None, middleboxes=(), profile_name="srsRAN"):
    profile = profile_by_name(profile_name)
    cell = CellConfig(
        pci=1,
        bandwidth_hz=40_000_000,
        n_antennas=2,
        max_dl_layers=2,
        compression=profile.compression,
    )
    du = DistributedUnit(
        du_id=1, cell=cell, profile=profile, symbols_per_slot=1, seed=5
    )
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(80, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(10, "ul"), Direction.UPLINK)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(
            num_prb=cell.num_prb,
            n_antennas=2,
            compression=profile.compression,
        ),
        du_mac=du.mac,
        seed=5,
    )
    network = FronthaulNetwork(
        middleboxes=list(middleboxes), validator=validator
    )
    network.add_du(du)
    network.add_ru(ru)
    return network


class TestChainTap:
    def test_pass_through_preserves_traffic(self):
        validator = _validator()
        tapped = _live_network(middleboxes=[ConformanceTap(validator)])
        baseline = _live_network()
        tapped_reports = tapped.run(8)
        baseline_reports = baseline.run(8)
        assert validator.report.frames_checked > 0
        assert validator.report.ok, validator.report.format()
        # An observer tap never changes what the endpoints see.
        assert [
            (r.dl_packets, r.ul_packets, r.undeliverable)
            for r in tapped_reports
        ] == [
            (r.dl_packets, r.ul_packets, r.undeliverable)
            for r in baseline_reports
        ]

    def test_tap_counts_both_planes(self):
        validator = _validator()
        network = _live_network(middleboxes=[ConformanceTap(validator)])
        network.run(6)
        box = network.middleboxes[0]
        assert box.stats.rx_packets == validator.report.frames_checked


class TestNetworkIngressTap:
    def test_clean_run_is_clean_at_both_ingresses(self):
        validator = _validator()
        network = _live_network(validator=validator)
        network.run(10)
        assert validator.report.frames_checked > 0
        assert validator.report.ok, validator.report.format()
        taps = {record.tap for record in validator.report.records}
        assert not taps  # no violations -> no records


def _scenario(wire=None, slots=8):
    def cell(name, group):
        return CellSpec(
            name=name,
            pci=1,
            profile="srsRAN",
            group=group,
            wire=wire if name == "cell0" else None,
            rus=(RuSpec(name=f"{name}-ru0"), RuSpec(name=f"{name}-ru1")),
            ues=(
                UeSpec(
                    ue_id=f"{name}-ue0",
                    flows=(FlowSpec(rate_mbps=60.0),
                           FlowSpec(rate_mbps=10.0, direction="ul")),
                ),
            ),
            chain=(StageSpec(stage="prb_monitor"),),
        )

    return ScenarioSpec(
        name="conf-taps",
        cells=(cell("cell0", None), cell("cell1", None)),
        slots=slots,
        seed=11,
        obs=ObsSpec(enabled=True, conformance=True),
    )


class TestScaleIntegration:
    def test_per_shard_reports_merge_identically(self):
        spec = _scenario()
        solo = run_scenario(spec, workers=1)
        sharded = run_scenario(spec, workers=2)
        assert solo.digest == sharded.digest
        merged_solo = solo.conformance_report()
        merged_sharded = sharded.conformance_report()
        assert merged_solo.frames_checked == merged_sharded.frames_checked
        assert merged_solo.counts == merged_sharded.counts
        assert merged_solo.ok
        # Every group shipped its own serialized report.
        assert all(
            result.conformance["frames_checked"] > 0
            for result in solo.groups.values()
        )

    def test_conformance_off_by_default(self):
        spec = _scenario()
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "obs": {"enabled": False}}
        )
        result = run_scenario(spec, workers=1)
        assert all(not r.conformance for r in result.groups.values())
        report = result.conformance_report()
        assert report.frames_checked == 0 and report.ok

    def test_injected_loss_surfaces_as_seq_gaps(self):
        spec = _scenario(
            wire={"kind": "iid_loss", "rate": 0.25, "seed": 3}, slots=12
        )
        result = run_scenario(spec, workers=1)
        report = result.conformance_report()
        assert not report.ok
        # Loss manifests on the wire as skipped sequence numbers; nothing
        # else about the surviving frames is wrong.
        assert set(report.counts) <= {
            ViolationClass.SEQ_GAP.value,
            ViolationClass.PRB_SECTION_MISMATCH.value,
        }
        assert report.count(ViolationClass.SEQ_GAP) > 0

    def test_loss_report_identical_across_worker_counts(self):
        spec = _scenario(
            wire={"kind": "iid_loss", "rate": 0.25, "seed": 3}, slots=12
        )
        solo = run_scenario(spec, workers=1).conformance_report()
        sharded = run_scenario(spec, workers=2).conformance_report()
        assert solo.counts == sharded.counts
        assert solo.frames_checked == sharded.frames_checked
