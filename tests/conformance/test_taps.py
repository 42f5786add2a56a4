"""Tap attachment points: chain stage, network ingress, and the sharded
scale path with per-shard report merging; and the clean interop matrix
that holds the repo's own traffic to zero violations at both."""

import dataclasses

import pytest

from repro.apps.das import DasMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.conformance import ConformanceReport, WireValidator
from repro.conformance.violations import ViolationClass
from repro.eval import kit
from repro.fronthaul import compression
from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.stacks import ALL_PROFILES, profile_by_name
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
from tests.conformance.builders import ConformanceTap
from tests import testbed


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


def _passes_packed(monkeypatch, spec):
    """Encode passes packed to wire bytes while ``spec`` runs in-process
    (``BfpCompressor.pack`` hands compressed passes to
    ``_PrbCodec.pack``: one pack, however many frames deep)."""
    packed, depth = [], [0]

    def counting(inner):
        def pack(self, parse):
            depth[0] += 1
            try:
                return inner(self, parse)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    packed.append(len(parse[0]))
        return pack

    for owner in (compression._PrbCodec, compression.BfpCompressor):
        monkeypatch.setattr(owner, "pack", counting(owner.__dict__["pack"]))
    run_scenario(spec, workers=1)
    return len(packed)


def test_conformance_packs_no_encode_pass(monkeypatch):
    """The validator reads a riding section's parse, never its bytes: on
    a 4-cell DAS run, turning conformance on packs no pass more than the
    run packs anyway (the DUs hashing their merged uplink)."""
    spec = kit.scenario("packs", 10, 3, [
        kit.cell(
            f"das{index}", index, [kit.flow("dl", 40.0), kit.flow("ul", 40.0)],
            chain=[{"stage": "das"}],
        )
        for index in range(1, 5)
    ])
    counts = [
        _passes_packed(monkeypatch, dataclasses.replace(
            spec, obs=ObsSpec(enabled=True, conformance=conformance)
        ))
        for conformance in (False, True)
    ]
    assert counts[0] > 0
    assert counts[1] == counts[0]


#: (profile, codec) -> (frames checked, violations) of the clean interop
#: matrix: seed 20, 12 slots.
CLEAN_MATRIX = {
    ("srsRAN", "bfp"): (291, 0),
    ("srsRAN", "modcomp"): (291, 0),
    ("CapGemini", "bfp"): (325, 0),
    ("CapGemini", "modcomp"): (325, 0),
    ("Radisys", "bfp"): (275, 0),
    ("Radisys", "modcomp"): (275, 0),
}


class TestCleanInteropMatrix:
    """The Section 6.2 deployment (1 DU, 2 RUs, DAS + PRB monitor) under
    every vendor profile and every codec it advertises, validated at the
    network's RU/DU ingress and at a chain-stage tap at once."""

    def test_matrix_is_every_profile_under_every_codec(self):
        assert set(CLEAN_MATRIX) == {
            (profile.name, codec)
            for profile in ALL_PROFILES
            for codec in profile.supported_codecs()
        }

    @pytest.mark.parametrize(
        "profile_name, codec", list(CLEAN_MATRIX),
        ids=[f"{profile}-{codec}" for profile, codec in CLEAN_MATRIX],
    )
    def test_clean_traffic_has_no_violations(self, profile_name, codec):
        profile = profile_by_name(profile_name)
        du, rus = testbed.endpoints(
            kit.cell(
                "clean", 1, [kit.flow("dl", 100), kit.flow("ul", 15)],
                rus=kit.radios(2, 20), bandwidth_hz=40_000_000,
                profile=profile.name, codec=codec, seed=20,
            )
        )
        cell = du.cell
        ingress, chain = (
            WireValidator(
                name=f"{profile.name}-{codec}-{tap}",
                profile=profile,
                carrier_num_prb=cell.num_prb,
                numerology=cell.numerology,
                allowed_compressions={cell.compression},
            )
            for tap in ("ingress", "chain")
        )
        testbed.network(
            [du], rus,
            [
                ConformanceTap(chain),
                PrbMonitorMiddlebox(carrier_num_prb=cell.num_prb),
                DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus]),
            ],
            validator=ingress,
        ).run(12)
        merged = ConformanceReport()
        merged.merge(ingress.report)
        merged.merge(chain.report)
        assert merged.frames_checked > 0
        assert merged.total_violations == 0, merged.records[:3]
        assert (merged.frames_checked, merged.total_violations) == (
            CLEAN_MATRIX[profile_name, codec]
        )
