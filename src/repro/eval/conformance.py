"""Conformance gate: the wire validator against clean and seeded traffic.

Two halves, both required to pass:

1. **Clean interop matrix** — the Section 6.2 deployment (1 DU, 2 RUs,
   DAS + PRB monitor) for each of the three vendor stack profiles, with
   validators at *two* tap styles simultaneously: the network's RU/DU
   ingress hook and a pass-through :class:`ConformanceTap` chain stage.
   Every profile must finish with zero violations — the repo's own
   traffic is the conformance baseline.

2. **Seeded violation matrix** — one crafted scenario per violation
   class in the taxonomy (all eleven), each fed to a fresh validator.
   The gate asserts the expected class is detected *and* that no other
   class fires: detection without classification is a miss.

The clean half runs the full profile x codec matrix: every vendor
profile under every wire codec it advertises (BFP always, modcomp
where the profile carries a modcomp config), so a codec regression in
either direction of the dispatch layer fails the gate.

Run via ``PYTHONPATH=src python -m repro.eval conformance``; shrink with
``--slots`` for CI smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.apps.das import DasMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.conformance import (
    ConformanceReport,
    ConformanceTap,
    ViolationClass,
    WireValidator,
)
from repro.eval.report import format_table
from repro.fronthaul.compression import BFP_COMP_METH, CompressionConfig
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.stacks import (
    ALL_PROFILES,
    negotiate_compression,
    profile_by_name,
)
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork

DEFAULT_SLOTS = 12


@dataclass
class CleanRow:
    """One (vendor profile, wire codec) cell of the clean matrix."""

    profile: str
    codec: str
    slots: int
    frames: int
    violations: int
    detail: str = ""


@dataclass
class SeededRow:
    """One crafted-violation scenario's outcome."""

    name: str
    expected: str
    detected: int
    extra: Dict[str, int]

    @property
    def ok(self) -> bool:
        return self.detected >= 1 and not self.extra


@dataclass
class ConformanceResult:
    seed: int
    slots: int
    clean: List[CleanRow]
    seeded: List[SeededRow]

    def assert_healthy(self) -> None:
        for row in self.clean:
            label = f"{row.profile}/{row.codec}"
            if row.frames == 0:
                raise AssertionError(f"{label}: validator saw no frames")
            if row.violations:
                raise AssertionError(
                    f"{label}: {row.violations} violation(s) on clean "
                    f"traffic: {row.detail}"
                )
        for row in self.seeded:
            if row.detected == 0:
                raise AssertionError(
                    f"seeded {row.name}: expected class {row.expected} "
                    "not detected"
                )
            if row.extra:
                raise AssertionError(
                    f"seeded {row.name}: misclassified — extra classes "
                    f"{row.extra} alongside {row.expected}"
                )

    def format(self) -> str:
        clean_table = format_table(
            f"Conformance: clean interop matrix "
            f"(seed={self.seed}, {self.slots} slots, 2 tap styles)",
            ["profile", "codec", "frames checked", "violations", "verdict"],
            [
                (
                    row.profile,
                    row.codec,
                    row.frames,
                    row.violations,
                    "ok" if row.violations == 0 else "VIOLATIONS",
                )
                for row in self.clean
            ],
        )
        seeded_table = format_table(
            "Conformance: seeded violation classification",
            ["scenario", "expected class", "detected", "verdict"],
            [
                (
                    row.name,
                    row.expected,
                    row.detected,
                    "ok" if row.ok else "MISSED/MISCLASSIFIED",
                )
                for row in self.seeded
            ],
        )
        return "\n\n".join([clean_table, seeded_table])


# -- half 1: the clean interop matrix ----------------------------------------


def _run_clean(profile, codec: str, slots: int, seed: int) -> CleanRow:
    compression = negotiate_compression(profile, codec)
    cell = CellConfig(
        pci=1,
        bandwidth_hz=40_000_000,
        n_antennas=2,
        max_dl_layers=2,
        compression=compression,
    )
    du = DistributedUnit(
        du_id=1,
        cell=cell,
        profile=profile,
        symbols_per_slot=1,
        seed=seed,
        compression=compression,
    )
    rus = [
        RadioUnit(
            ru_id=i,
            config=RuConfig(
                num_prb=cell.num_prb,
                n_antennas=2,
                compression=compression,
            ),
            du_mac=du.mac,
            seed=seed,
        )
        for i in range(2)
    ]
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(15, "ul"), Direction.UPLINK)

    def validator(tap_style: str) -> WireValidator:
        return WireValidator(
            name=f"{profile.name}-{codec}-{tap_style}",
            profile=profile,
            carrier_num_prb=cell.num_prb,
            numerology=cell.numerology,
            allowed_compressions={compression},
        )

    ingress = validator("ingress")
    chain_validator = validator("chain")
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    monitor = PrbMonitorMiddlebox(carrier_num_prb=cell.num_prb)
    network = FronthaulNetwork(
        middleboxes=[ConformanceTap(chain_validator), monitor, das],
        validator=ingress,
    )
    network.add_du(du)
    for ru in rus:
        network.add_ru(ru)
    network.run(slots)
    merged = ConformanceReport()
    merged.merge(ingress.report)
    merged.merge(chain_validator.report)
    return CleanRow(
        profile=profile.name,
        codec=codec,
        slots=slots,
        frames=merged.frames_checked,
        violations=merged.total_violations,
        detail="; ".join(str(r) for r in merged.records[:3]),
    )


# -- half 2: seeded violations, one scenario per class -----------------------

_SRC = MacAddress.from_int(0x02_00_00_00_00_01)
_DST = MacAddress.from_int(0x02_00_00_00_00_02)
_EAXC = EAxCId.from_int(0x0101)


def _fresh_validator(**kwargs) -> WireValidator:
    profile = profile_by_name("srsRAN")
    return WireValidator(
        name="seeded", profile=profile, carrier_num_prb=106, **kwargs
    )


def _cplane(
    start_prb: int,
    num_prb: int,
    seq: int = 0,
    time: Optional[SymbolTime] = None,
    compression: Optional[CompressionConfig] = None,
) -> FronthaulPacket:
    if compression is None:
        compression = profile_by_name("srsRAN").compression
    message = CPlaneMessage(
        direction=Direction.DOWNLINK,
        time=time if time is not None else SymbolTime(0, 0, 0, 0),
        section_type=SectionType.DATA,
        compression=compression,
    )
    message.sections = [
        CPlaneSection(section_id=1, start_prb=start_prb, num_prb=num_prb)
    ]
    return make_packet(
        src=_SRC, dst=_DST, message=message, seq_id=seq, eaxc=_EAXC
    )


def _uplane(
    start_prb: int,
    num_prb: int,
    seq: int = 0,
    time: Optional[SymbolTime] = None,
    compression: Optional[CompressionConfig] = None,
    payload: Optional[bytes] = None,
) -> FronthaulPacket:
    if compression is None:
        compression = profile_by_name("srsRAN").compression
    if payload is None:
        section = UPlaneSection.from_samples(
            section_id=1,
            start_prb=start_prb,
            samples=np.full((num_prb, 24), 7, dtype=np.int16),
            compression=compression,
        )
    else:
        section = UPlaneSection(
            section_id=1,
            start_prb=start_prb,
            num_prb=num_prb,
            payload=payload,
            compression=compression,
        )
    message = UPlaneMessage(
        direction=Direction.DOWNLINK,
        time=time if time is not None else SymbolTime(0, 0, 0, 0),
        sections=[section],
    )
    return make_packet(
        src=_SRC, dst=_DST, message=message, seq_id=seq, eaxc=_EAXC
    )


def _seed_bad_ecpri_length(validator: WireValidator) -> None:
    # Cut a frame mid-section: the declared payloadSize no longer matches
    # the bytes on the wire.
    data = _uplane(0, 4).pack()
    validator.observe_bytes(data[:-5], tap="seeded")


def _seed_malformed_frame(validator: WireValidator) -> None:
    data = bytearray(_cplane(0, 10).pack())
    data[14] = (data[14] & 0x0F) | (0x2 << 4)  # eCPRI version 2
    validator.observe_bytes(bytes(data), tap="seeded")


def _seed_section_structure(validator: WireValidator) -> None:
    # PRBs [100, 120) overrun the 106-PRB carrier.
    validator.observe(_cplane(100, 20), tap="seeded")


def _seed_prb_section_mismatch(validator: WireValidator) -> None:
    validator.observe(_cplane(0, 20, seq=0), tap="seeded")
    validator.observe(_uplane(30, 10, seq=1), tap="seeded")


def _seed_bfp_width_mismatch(validator: WireValidator) -> None:
    wide = CompressionConfig(iq_width=14, comp_meth=BFP_COMP_METH)
    validator.observe(_cplane(0, 4, seq=0), tap="seeded")
    validator.observe(
        _uplane(0, 4, seq=1, compression=wide), tap="seeded"
    )


def _seed_illegal_bfp_exponent(validator: WireValidator) -> None:
    compression = profile_by_name("srsRAN").compression
    good = _uplane(0, 2, seq=1).message.sections[0].payload_bytes()
    payload = bytearray(good)
    payload[0] = 0x0F  # exponent 15 > legal max 7 for width-9 BFP
    validator.observe(_cplane(0, 2, seq=0), tap="seeded")
    validator.observe(
        _uplane(0, 2, seq=1, compression=compression, payload=bytes(payload)),
        tap="seeded",
    )


def _seed_codec_mismatch(validator: WireValidator) -> None:
    # A modcomp payload on a deployment that only negotiated BFP: the
    # RU has no decoder armed for udCompMeth 4 at all.
    modcomp = profile_by_name("srsRAN").modcomp
    validator.observe(_cplane(0, 4, seq=0), tap="seeded")
    validator.observe(
        _uplane(0, 4, seq=1, compression=modcomp), tap="seeded"
    )


def _seed_illegal_modcomp_param(validator: WireValidator) -> None:
    modcomp = profile_by_name("srsRAN").modcomp
    good = (
        _uplane(0, 2, seq=1, compression=modcomp)
        .message.sections[0]
        .payload_bytes()
    )
    payload = bytearray(good)
    payload[0] = 0x80  # csf set, and...
    payload[1] = 20  # ...scaler 20 > legal max 13 for width-3 modcomp
    validator.observe(
        _cplane(0, 2, seq=0, compression=modcomp), tap="seeded"
    )
    validator.observe(
        _uplane(0, 2, seq=1, compression=modcomp, payload=bytes(payload)),
        tap="seeded",
    )


def _seed_seq_gap(validator: WireValidator) -> None:
    validator.observe(_cplane(0, 10, seq=0), tap="seeded")
    validator.observe(_cplane(0, 10, seq=2), tap="seeded")


def _seed_seq_dup(validator: WireValidator) -> None:
    packet = _cplane(0, 10, seq=5)
    validator.observe(packet, tap="seeded")
    validator.observe(packet, tap="seeded")


def _seed_stale_slot(validator: WireValidator) -> None:
    validator.observe(
        _cplane(0, 10, seq=0, time=SymbolTime(2, 0, 0, 0)), tap="seeded"
    )
    validator.observe(
        _cplane(0, 10, seq=1, time=SymbolTime(0, 0, 0, 0)), tap="seeded"
    )


# (name, expected class, scenario, validator kwargs).  The modcomp
# param scenario arms the validator with the negotiated modcomp config
# so only the corrupt parameter — not the codec choice — is illegal.
_SEEDED = [
    ("truncated-uplane", ViolationClass.BAD_ECPRI_LENGTH,
     _seed_bad_ecpri_length, {}),
    ("bad-version", ViolationClass.MALFORMED_FRAME, _seed_malformed_frame,
     {}),
    ("carrier-overrun", ViolationClass.SECTION_STRUCTURE,
     _seed_section_structure, {}),
    ("unscheduled-uplane", ViolationClass.PRB_SECTION_MISMATCH,
     _seed_prb_section_mismatch, {}),
    ("wrong-width", ViolationClass.BFP_WIDTH_MISMATCH,
     _seed_bfp_width_mismatch, {}),
    ("corrupt-exponent", ViolationClass.ILLEGAL_BFP_EXPONENT,
     _seed_illegal_bfp_exponent, {}),
    ("unnegotiated-codec", ViolationClass.CODEC_MISMATCH,
     _seed_codec_mismatch, {}),
    ("corrupt-scaler", ViolationClass.ILLEGAL_MODCOMP_PARAM,
     _seed_illegal_modcomp_param,
     {"allowed_compressions": (profile_by_name("srsRAN").modcomp,)}),
    ("skipped-seq", ViolationClass.SEQ_GAP, _seed_seq_gap, {}),
    ("repeated-seq", ViolationClass.SEQ_DUP, _seed_seq_dup, {}),
    ("regressed-slot", ViolationClass.STALE_SLOT, _seed_stale_slot, {}),
]


def _run_seeded() -> List[SeededRow]:
    rows = []
    for name, expected, scenario, validator_kwargs in _SEEDED:
        validator = _fresh_validator(**validator_kwargs)
        scenario(validator)
        counts = dict(validator.report.counts)
        detected = counts.pop(expected.value, 0)
        rows.append(
            SeededRow(
                name=name,
                expected=expected.value,
                detected=detected,
                extra=counts,
            )
        )
    return rows


# -- entry point --------------------------------------------------------------


def run_conformance(
    seed: int = 20, slots: Optional[int] = None
) -> ConformanceResult:
    if slots is None:
        slots = DEFAULT_SLOTS
    slots = max(slots, 8)
    result = ConformanceResult(
        seed=seed,
        slots=slots,
        clean=[
            _run_clean(profile, codec, slots, seed)
            for profile in ALL_PROFILES
            for codec in profile.supported_codecs()
        ],
        seeded=_run_seeded(),
    )
    result.assert_healthy()
    return result


if __name__ == "__main__":
    print(run_conformance().format())
