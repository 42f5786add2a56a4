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
from repro.eval import kit
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
from repro.ran.stacks import ALL_PROFILES, SRSRAN

DEFAULT_SLOTS = 12


@dataclass
class CleanRow:
    """One (vendor profile, wire codec) cell of the clean matrix."""

    profile: str
    codec: str
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
class ConformanceResult(kit.Gate):
    seed: int
    slots: int
    clean: List[CleanRow]
    seeded: List[SeededRow]

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
    du, rus = kit.endpoints(
        kit.cell(
            "clean", 1, [kit.flow("dl", 100), kit.flow("ul", 15)],
            rus=kit.radios(2, seed), bandwidth_hz=40_000_000,
            profile=profile.name, codec=codec, seed=seed,
        )
    )
    cell = du.cell

    def validator(tap_style: str) -> WireValidator:
        return WireValidator(
            name=f"{profile.name}-{codec}-{tap_style}",
            profile=profile,
            carrier_num_prb=cell.num_prb,
            numerology=cell.numerology,
            allowed_compressions={cell.compression},
        )

    ingress = validator("ingress")
    chain_validator = validator("chain")
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    monitor = PrbMonitorMiddlebox(carrier_num_prb=cell.num_prb)
    kit.network(
        [du], rus, [ConformanceTap(chain_validator), monitor, das],
        validator=ingress,
    ).run(slots)
    merged = ConformanceReport()
    merged.merge(ingress.report)
    merged.merge(chain_validator.report)
    return CleanRow(
        profile=profile.name,
        codec=codec,
        frames=merged.frames_checked,
        violations=merged.total_violations,
        detail="; ".join(str(r) for r in merged.records[:3]),
    )


# -- half 2: seeded violations, one scenario per class -----------------------

_SRC = MacAddress.from_int(0x02_00_00_00_00_01)
_DST = MacAddress.from_int(0x02_00_00_00_00_02)
_EAXC = EAxCId.from_int(0x0101)
_SLOT0 = SymbolTime(0, 0, 0, 0)


def _cplane(
    start_prb: int,
    num_prb: int,
    seq: int = 0,
    time: SymbolTime = _SLOT0,
    compression: CompressionConfig = SRSRAN.compression,
) -> FronthaulPacket:
    message = CPlaneMessage(
        direction=Direction.DOWNLINK,
        time=time,
        section_type=SectionType.DATA,
        compression=compression,
    )
    message.sections = [
        CPlaneSection(section_id=1, start_prb=start_prb, num_prb=num_prb)
    ]
    return make_packet(
        src=_SRC, dst=_DST, message=message, seq_id=seq, eaxc=_EAXC
    )


def uplane_frame(
    start_prb: int,
    num_prb: int,
    seq: int = 0,
    time: SymbolTime = _SLOT0,
    compression: CompressionConfig = SRSRAN.compression,
    payload: Optional[bytes] = None,
    samples: Optional[np.ndarray] = None,
) -> FronthaulPacket:
    """One downlink U-plane frame: ``payload`` verbatim, else ``samples``
    (default: a constant grid) compressed under ``compression``."""
    if payload is None:
        if samples is None:
            samples = np.full((num_prb, 24), 7, dtype=np.int16)
        section = UPlaneSection.from_samples(
            section_id=1,
            start_prb=start_prb,
            samples=samples,
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
        direction=Direction.DOWNLINK, time=time, sections=[section]
    )
    return make_packet(
        src=_SRC, dst=_DST, message=message, seq_id=seq, eaxc=_EAXC
    )


def _seed_bad_ecpri_length(validator: WireValidator) -> None:
    # Cut a frame mid-section: the declared payloadSize no longer matches
    # the bytes on the wire.
    data = uplane_frame(0, 4).pack()
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
    validator.observe(uplane_frame(30, 10, seq=1), tap="seeded")


def _seed_bfp_width_mismatch(validator: WireValidator) -> None:
    wide = CompressionConfig(iq_width=14, comp_meth=BFP_COMP_METH)
    validator.observe(_cplane(0, 4, seq=0), tap="seeded")
    validator.observe(
        uplane_frame(0, 4, seq=1, compression=wide), tap="seeded"
    )


def _seed_illegal_bfp_exponent(validator: WireValidator) -> None:
    good = uplane_frame(0, 2, seq=1).message.sections[0].payload_bytes()
    payload = bytearray(good)
    payload[0] = 0x0F  # exponent 15 > legal max 7 for width-9 BFP
    validator.observe(_cplane(0, 2, seq=0), tap="seeded")
    validator.observe(
        uplane_frame(0, 2, seq=1, payload=bytes(payload)), tap="seeded"
    )


def _seed_codec_mismatch(validator: WireValidator) -> None:
    # A modcomp payload on a deployment that only negotiated BFP: the
    # RU has no decoder armed for udCompMeth 4 at all.
    modcomp = SRSRAN.modcomp
    validator.observe(_cplane(0, 4, seq=0), tap="seeded")
    validator.observe(
        uplane_frame(0, 4, seq=1, compression=modcomp), tap="seeded"
    )


def _seed_illegal_modcomp_param(validator: WireValidator) -> None:
    modcomp = SRSRAN.modcomp
    good = (
        uplane_frame(0, 2, seq=1, compression=modcomp)
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
        uplane_frame(0, 2, seq=1, compression=modcomp, payload=bytes(payload)),
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
     {"allowed_compressions": (SRSRAN.modcomp,)}),
    ("skipped-seq", ViolationClass.SEQ_GAP, _seed_seq_gap, {}),
    ("repeated-seq", ViolationClass.SEQ_DUP, _seed_seq_dup, {}),
    ("regressed-slot", ViolationClass.STALE_SLOT, _seed_stale_slot, {}),
]


def _run_seeded() -> List[SeededRow]:
    rows = []
    for name, expected, scenario, validator_kwargs in _SEEDED:
        validator = WireValidator(
            name="seeded", profile=SRSRAN, carrier_num_prb=106,
            **validator_kwargs,
        )
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
    seed: int = 20, slots: int = DEFAULT_SLOTS
) -> ConformanceResult:
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
    for row in result.clean:
        label = f"clean_{row.profile}_{row.codec}"
        result.check(f"{label}_saw_frames", row.frames > 0)
        result.check(
            f"{label}_no_violations",
            row.violations == 0,
            f"{row.violations} on clean traffic: {row.detail}",
        )
    for row in result.seeded:
        result.check(
            f"seeded_{row.name}_detected",
            row.detected >= 1,
            f"expected class {row.expected} not detected",
        )
        result.expect(f"seeded_{row.name}_other_classes", row.extra, {})
    result.assert_healthy()
    return result
