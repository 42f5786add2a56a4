"""Codec gate: modcomp vs BFP wire bytes, and the switch reaches the wire.

Two measurements:

1. **Wire bytes** — for every vendor profile, real U-plane frames are
   packed under both negotiated codecs (same seeded samples, headers
   included) and the on-wire byte totals compared.  The gate asserts
   srsRAN's width-3 modcomp config shrinks wire bytes by at least
   :data:`REDUCTION_FLOOR` against its width-9 BFP baseline — the
   headline the second codec exists for.

2. **Distinct digests** — the canonical 8-cell scale benchmark (see
   :func:`repro.eval.scale.bench_spec`) run single-process twice: once
   with every cell on its profile default (BFP) and once with every
   cell pinned to ``codec: modcomp`` through per-stream negotiation.
   The two runs must diverge in their digests, or the codec choice never
   reached the wire.  What the denser codec costs in throughput is the
   ``cells8_bfp`` / ``cells8_modcomp`` pair of ``bench/``; a single-shot
   rate from this fixture is noise.

Run via ``PYTHONPATH=src python -m repro.eval codec``; shrink with
``--slots`` for CI smoke runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.eval import kit
from repro.eval.conformance import uplane_frame
from repro.eval.report import format_table
from repro.eval.scale import bench_spec
from repro.fronthaul.timing import SymbolTime
from repro.ran.stacks import ALL_PROFILES, negotiate_compression
from repro.scale import ScenarioSpec, run_divergence, run_scenario

DEFAULT_SLOTS = 40
#: Minimum srsRAN modcomp wire-byte reduction vs its BFP-9 baseline.
REDUCTION_FLOOR = 2.0
#: Carrier of the wire measurement (the 40 MHz clean-matrix cell).
NUM_PRB = 106
#: Packed frames per (profile, codec) cell: 14 symbols x 2 ants x 2 slots.
FRAMES = 56


@dataclass
class WireRow:
    """One (profile, codec) cell of the wire-byte matrix."""

    profile: str
    codec: str
    iq_width: int
    total_bytes: int

    @property
    def bytes_per_prb(self) -> float:
        return self.total_bytes / (FRAMES * NUM_PRB)


@dataclass
class CodecResult(kit.Gate):
    wire: List[WireRow] = field(default_factory=list)
    #: profile -> bfp_bytes / modcomp_bytes (headers included).
    reduction: Dict[str, float] = field(default_factory=dict)

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
        return (
            f"{wire_table}\n"
            f"floor: srsRAN modcomp >= {REDUCTION_FLOOR:.1f}x smaller "
            f"than BFP-9 on the wire "
            f"({self.reduction.get('srsRAN', 0.0):.2f}x measured)"
        )


def _measure_wire(profile, codec: str, seed: int) -> WireRow:
    """Pack FRAMES full U-plane frames and count every byte on the wire."""
    compression = negotiate_compression(profile, codec)
    rng = np.random.default_rng(seed)
    total = 0
    for seq in range(FRAMES):
        packet = uplane_frame(
            0, NUM_PRB, seq % 256,
            SymbolTime(0, 0, seq // 14 % 2, seq % 14),
            compression,
            samples=rng.integers(
                -4096, 4096, size=(NUM_PRB, 24), dtype=np.int16
            ),
        )
        total += len(packet.pack())
    return WireRow(
        profile=profile.name,
        codec=codec,
        iq_width=compression.iq_width,
        total_bytes=total,
    )


def modcomp_bench_spec(slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """The 8-cell benchmark with every cell negotiated onto modcomp."""
    base = bench_spec(slots)
    return dataclasses.replace(
        base,
        name="scale-bench-8cell-modcomp",
        cells=tuple(
            dataclasses.replace(cell, codec="modcomp") for cell in base.cells
        ),
    )


def run_codec(slots: int = DEFAULT_SLOTS, seed: int = 10) -> CodecResult:
    result = CodecResult()
    for profile in ALL_PROFILES:
        per_codec: Dict[str, WireRow] = {}
        for codec in sorted(profile.supported_codecs()):
            row = _measure_wire(profile, codec, seed)
            per_codec[codec] = row
            result.wire.append(row)
        if "modcomp" in per_codec:
            reduction = (
                per_codec["bfp"].total_bytes
                / per_codec["modcomp"].total_bytes
            )
            result.reduction[profile.name] = reduction
            result.check(
                f"{profile.name}_modcomp_shrinks_the_wire",
                reduction > 1.0,
                f"modcomp inflated the wire ({reduction:.2f}x)",
            )
    floor = result.reduction.get("srsRAN", 0.0)
    result.check(
        "srsRAN_reduction_floor",
        floor >= REDUCTION_FLOOR,
        f"srsRAN modcomp wire reduction {floor:.2f}x below the "
        f"{REDUCTION_FLOOR:.1f}x floor",
    )
    result.check(
        "codec_switch_reaches_the_wire",
        "digest" in run_divergence(
            run_scenario(modcomp_bench_spec(slots)),
            run_scenario(bench_spec(slots)),
        ),
        "BFP and modcomp scenario digests collide",
    )
    result.assert_healthy()
    return result
