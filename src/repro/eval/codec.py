"""Codec benchmark: modcomp vs BFP wire bytes and scenario throughput.

Two measurements:

1. **Wire bytes** — for every vendor profile, real U-plane frames are
   packed under both negotiated codecs (same seeded samples, headers
   included) and the on-wire byte totals compared.  The gate asserts
   srsRAN's width-3 modcomp config shrinks wire bytes by at least
   :data:`REDUCTION_FLOOR` against its width-9 BFP baseline — the
   headline the second codec exists for.

2. **Throughput delta** — the canonical 8-cell scale benchmark (see
   :func:`repro.eval.scale.bench_spec`) run single-process twice: once
   with every cell on its profile default (BFP) and once with every
   cell pinned to ``codec: modcomp`` through per-stream negotiation.
   The reported cell-slots/s delta is the compute price (or win) of the
   denser codec across the full DU->switch->RU datapath.  It is
   informational only — run-to-run timing noise at this scenario size
   exceeds the real per-codec difference, so health gates on the
   deterministic wire bytes, never on the delta.

Run via ``PYTHONPATH=src python -m repro.eval codec``; shrink with
``--slots`` for CI smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.eval.report import format_table
from repro.eval.scale import bench_spec
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.ran.stacks import ALL_PROFILES, negotiate_compression
from repro.scale import Scenario, ScenarioSpec

DEFAULT_SLOTS = 40
#: Minimum srsRAN modcomp wire-byte reduction vs its BFP-9 baseline.
REDUCTION_FLOOR = 2.0
#: Carrier of the wire measurement (the 40 MHz clean-matrix cell).
NUM_PRB = 106
#: Packed frames per (profile, codec) cell: 14 symbols x 2 ants x 2 slots.
FRAMES = 56

_SRC = MacAddress.from_int(0x02_00_00_00_00_01)
_DST = MacAddress.from_int(0x02_00_00_00_00_02)
_EAXC = EAxCId.from_int(0x0101)


@dataclass
class WireRow:
    """One (profile, codec) cell of the wire-byte matrix."""

    profile: str
    codec: str
    iq_width: int
    frames: int
    total_bytes: int

    @property
    def bytes_per_prb(self) -> float:
        return self.total_bytes / (self.frames * NUM_PRB)


@dataclass
class CodecResult:
    slots: int
    wire: List[WireRow] = field(default_factory=list)
    #: profile -> bfp_bytes / modcomp_bytes (headers included).
    reduction: Dict[str, float] = field(default_factory=dict)
    bfp_cell_slots_per_second: float = 0.0
    modcomp_cell_slots_per_second: float = 0.0
    bfp_digest: str = ""
    modcomp_digest: str = ""

    @property
    def throughput_delta_pct(self) -> float:
        """Modcomp throughput relative to BFP, in percent (+ is faster)."""
        if not self.bfp_cell_slots_per_second:
            return 0.0
        ratio = (
            self.modcomp_cell_slots_per_second
            / self.bfp_cell_slots_per_second
        )
        return (ratio - 1.0) * 100.0

    def assert_healthy(self) -> None:
        floor = self.reduction.get("srsRAN", 0.0)
        if floor < REDUCTION_FLOOR:
            raise AssertionError(
                f"srsRAN modcomp wire reduction {floor:.2f}x below the "
                f"{REDUCTION_FLOOR:.1f}x floor"
            )
        for profile, reduction in self.reduction.items():
            if reduction <= 1.0:
                raise AssertionError(
                    f"{profile}: modcomp inflated the wire "
                    f"({reduction:.2f}x)"
                )
        if self.bfp_digest == self.modcomp_digest:
            raise AssertionError(
                "BFP and modcomp scenario digests collide — the codec "
                "switch is not reaching the wire"
            )

    def format(self) -> str:
        wire_table = format_table(
            f"Codec wire bytes: {FRAMES} packed U-plane frames x "
            f"{NUM_PRB} PRBs, headers included",
            ["profile", "codec", "iq_width", "total bytes", "B/PRB",
             "reduction"],
            [
                (
                    row.profile,
                    row.codec,
                    row.iq_width,
                    row.total_bytes,
                    f"{row.bytes_per_prb:.2f}",
                    (
                        f"{self.reduction[row.profile]:.2f}x"
                        if row.codec == "modcomp" else "-"
                    ),
                )
                for row in self.wire
            ],
        )
        lines = [
            wire_table,
            f"floor: srsRAN modcomp >= {REDUCTION_FLOOR:.1f}x smaller "
            f"than BFP-9 on the wire "
            f"({self.reduction.get('srsRAN', 0.0):.2f}x measured)",
            f"8-cell throughput ({self.slots} slots, 1 worker): "
            f"bfp {self.bfp_cell_slots_per_second:.1f} c-s/s, "
            f"modcomp {self.modcomp_cell_slots_per_second:.1f} c-s/s "
            f"({self.throughput_delta_pct:+.1f}%)",
        ]
        return "\n".join(lines)



def _measure_wire(profile, codec: str, seed: int) -> WireRow:
    """Pack FRAMES full U-plane frames and count every byte on the wire."""
    compression = negotiate_compression(profile, codec)
    rng = np.random.default_rng(seed)
    total = 0
    for seq in range(FRAMES):
        samples = rng.integers(
            -4096, 4096, size=(NUM_PRB, 24), dtype=np.int16
        )
        section = UPlaneSection.from_samples(
            section_id=1,
            start_prb=0,
            samples=samples,
            compression=compression,
        )
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, seq // 14 % 2, seq % 14),
            sections=[section],
        )
        packet = make_packet(
            src=_SRC, dst=_DST, message=message, seq_id=seq % 256,
            eaxc=_EAXC,
        )
        total += len(packet.pack())
    return WireRow(
        profile=profile.name,
        codec=codec,
        iq_width=compression.iq_width,
        frames=FRAMES,
        total_bytes=total,
    )


def _modcomp_bench_spec(slots: int) -> ScenarioSpec:
    """The 8-cell benchmark with every cell negotiated onto modcomp."""
    data = bench_spec(slots).to_dict()
    for cell in data["cells"]:
        cell["codec"] = "modcomp"
    data["name"] = "scale-bench-8cell-modcomp"
    return ScenarioSpec.from_dict(data)


def run_codec(slots: int = 0, seed: int = 10) -> CodecResult:
    slots = slots or DEFAULT_SLOTS
    result = CodecResult(slots=slots)
    for profile in ALL_PROFILES:
        per_codec: Dict[str, WireRow] = {}
        for codec in sorted(profile.supported_codecs()):
            row = _measure_wire(profile, codec, seed)
            per_codec[codec] = row
            result.wire.append(row)
        if "modcomp" in per_codec:
            result.reduction[profile.name] = (
                per_codec["bfp"].total_bytes
                / per_codec["modcomp"].total_bytes
            )
    bfp_run = Scenario(bench_spec(slots)).run(workers=1)
    modcomp_run = Scenario(_modcomp_bench_spec(slots)).run(workers=1)
    result.bfp_cell_slots_per_second = bfp_run.cell_slots_per_second
    result.modcomp_cell_slots_per_second = (
        modcomp_run.cell_slots_per_second
    )
    result.bfp_digest = bfp_run.digest
    result.modcomp_digest = modcomp_run.digest
    result.assert_healthy()
    return result
