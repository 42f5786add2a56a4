"""Scalar reference implementations for differential testing.

Deliberately naive, loop-per-PRB, pure-Python re-implementations of the
vectorized fronthaul hot paths: the BFP codec, the payload merge, and
the U-plane parser.  The differential suite runs both implementations
over generated inputs and asserts **byte-identical** output — the
property that pins the vectorized fast paths to the wire format.

Nothing here imports numpy; every value is a Python int, so the
reference cannot share a bug with the vectorized code's array handling.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence

from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MAX_WIRE_EXPONENT,
    MOD_COMP_METH,
    NO_COMP_METH,
    SAMPLES_PER_PRB,
)

_VALUES_PER_PRB = 2 * SAMPLES_PER_PRB  # 24 interleaved I/Q int16 values

_UPLANE_HDR = struct.Struct("!BBH")
_UPLANE_SECTION_HDR = struct.Struct("!3sBBB")


def scalar_bits_needed(value: int) -> int:
    """Two's-complement bits needed for one sample (including sign)."""
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1


def scalar_exponent(row: Sequence[int], iq_width: int) -> int:
    """BFP exponent of one PRB row of 24 samples."""
    needed = max(max(scalar_bits_needed(int(v)) for v in row), 1)
    return max(needed - iq_width, 0)


def scalar_modcomp_scaler(row: Sequence[int], iq_width: int) -> int:
    """Modcomp scaler of one PRB row of 24 samples (same shift rule)."""
    return scalar_exponent(row, iq_width)


def _prb_payload_bytes(iq_width: int, comp_meth: int) -> int:
    if comp_meth == NO_COMP_METH:
        return _VALUES_PER_PRB * 2
    if comp_meth == MOD_COMP_METH:
        return 2 + (_VALUES_PER_PRB * iq_width + 7) // 8
    return 1 + (_VALUES_PER_PRB * iq_width + 7) // 8


def scalar_compress(samples, iq_width: int, comp_meth: int = BFP_COMP_METH) -> bytes:
    """Compress rows of 24 int16 samples to wire bytes, one PRB at a time."""
    out = bytearray()
    for row in samples:
        row = [int(v) for v in row]
        if len(row) != _VALUES_PER_PRB:
            raise ValueError(f"expected 24 values per PRB, got {len(row)}")
        if comp_meth == NO_COMP_METH:
            for value in row:
                out += struct.pack(">h", value)
            continue
        if comp_meth == MOD_COMP_METH:
            scaler = scalar_modcomp_scaler(row, iq_width)
            if scaler > max(0, 16 - iq_width):
                raise ValueError(
                    f"modcomp scaler {scaler} exceeds the legal bound "
                    f"{max(0, 16 - iq_width)} for width {iq_width}; "
                    "saturate samples to int16 before compressing"
                )
            param = scaler | ((1 << 15) if scaler > 0 else 0)  # csf bit
            out += param.to_bytes(2, "big")
            mask = (1 << iq_width) - 1
            accumulator = 0
            for value in row:
                accumulator = (accumulator << iq_width) | (
                    (value >> scaler) & mask
                )
            out += accumulator.to_bytes(3 * iq_width, "big")
            continue
        exponent = scalar_exponent(row, iq_width)
        if exponent > MAX_WIRE_EXPONENT:
            raise ValueError(
                f"BFP exponent {exponent} exceeds the 4-bit wire field "
                f"(max {MAX_WIRE_EXPONENT}); saturate samples to int16 "
                "before compressing"
            )
        out.append(exponent)
        mask = (1 << iq_width) - 1
        accumulator = 0
        for value in row:
            accumulator = (accumulator << iq_width) | ((value >> exponent) & mask)
        out += accumulator.to_bytes(3 * iq_width, "big")
    return bytes(out)


def scalar_decompress(
    payload: bytes, n_prbs: int, iq_width: int, comp_meth: int = BFP_COMP_METH
) -> List[List[int]]:
    """Decompress wire bytes back to rows of 24 int16 samples."""
    payload = bytes(payload)
    prb_bytes = _prb_payload_bytes(iq_width, comp_meth)
    if len(payload) < n_prbs * prb_bytes:
        raise ValueError("truncated payload in scalar_decompress")
    rows: List[List[int]] = []
    for index in range(n_prbs):
        block = payload[index * prb_bytes : (index + 1) * prb_bytes]
        if comp_meth == NO_COMP_METH:
            rows.append(
                [
                    struct.unpack_from(">h", block, 2 * i)[0]
                    for i in range(_VALUES_PER_PRB)
                ]
            )
            continue
        if comp_meth == MOD_COMP_METH:
            param = int.from_bytes(block[:2], "big")
            scaler = min(param & 0x7FFF, 32)
            half = (1 << scaler) >> 1
            accumulator = int.from_bytes(block[2:], "big")
            mask = (1 << iq_width) - 1
            sign_bit = 1 << (iq_width - 1)
            row = []
            for position in range(_VALUES_PER_PRB):
                shift = (_VALUES_PER_PRB - 1 - position) * iq_width
                mantissa = (accumulator >> shift) & mask
                if mantissa & sign_bit:
                    mantissa -= 1 << iq_width
                restored = (mantissa << scaler) + half
                row.append(max(-32768, min(32767, restored)))
            rows.append(row)
            continue
        exponent = block[0] & 0x0F
        accumulator = int.from_bytes(block[1:], "big")
        mask = (1 << iq_width) - 1
        sign_bit = 1 << (iq_width - 1)
        row: List[int] = []
        for position in range(_VALUES_PER_PRB):
            shift = (_VALUES_PER_PRB - 1 - position) * iq_width
            mantissa = (accumulator >> shift) & mask
            if mantissa & sign_bit:
                mantissa -= 1 << iq_width
            restored = mantissa << exponent
            row.append(max(-32768, min(32767, restored)))
        rows.append(row)
    return rows


def scalar_merge(
    payloads: Sequence[bytes], n_prbs: int, iq_width: int,
    comp_meth: int = BFP_COMP_METH,
) -> bytes:
    """Reference of :meth:`repro.fronthaul.uplane.UPlaneSection.merged`
    (the A4 merge the DAS runs) over the operands' wire payloads:
    decompress every operand, sum with int16 saturation, recompress."""
    stacks = [
        scalar_decompress(payload, n_prbs, iq_width, comp_meth)
        for payload in payloads
    ]
    merged: List[List[int]] = []
    for prb in range(n_prbs):
        row = []
        for position in range(_VALUES_PER_PRB):
            total = sum(stack[prb][position] for stack in stacks)
            row.append(max(-32768, min(32767, total)))
        merged.append(row)
    return scalar_compress(merged, iq_width, comp_meth)


def scalar_parse_uplane(
    data: bytes, carrier_num_prb: Optional[int] = None
) -> Dict[str, Any]:
    """Reference U-plane parser: plain dict output, byte-at-a-time."""
    data = bytes(data)
    if len(data) < _UPLANE_HDR.size:
        raise ValueError("truncated U-plane header")
    first, frame, timing = _UPLANE_HDR.unpack_from(data)
    parsed: Dict[str, Any] = {
        "direction": (first >> 7) & 0x1,
        "payload_version": (first >> 4) & 0x7,
        "filter_index": first & 0xF,
        "frame": frame,
        "subframe": (timing >> 12) & 0xF,
        "slot": (timing >> 6) & 0x3F,
        "symbol": timing & 0x3F,
        "sections": [],
    }
    offset = _UPLANE_HDR.size
    while offset < len(data):
        if len(data) - offset < _UPLANE_SECTION_HDR.size:
            raise ValueError("truncated U-plane section header")
        head, num_prb, comp_byte, _ = _UPLANE_SECTION_HDR.unpack_from(
            data, offset
        )
        head = int.from_bytes(head, "big")
        offset += _UPLANE_SECTION_HDR.size
        if num_prb == 0:
            if carrier_num_prb is None:
                raise ValueError("numPrbu=0 (all PRBs) needs carrier_num_prb")
            num_prb = carrier_num_prb
        iq_width = (comp_byte >> 4) & 0xF or 16
        comp_meth = comp_byte & 0xF
        payload_size = num_prb * _prb_payload_bytes(iq_width, comp_meth)
        if len(data) - offset < payload_size:
            raise ValueError("truncated U-plane payload")
        parsed["sections"].append(
            {
                "section_id": (head >> 12) & 0xFFF,
                "rb": (head >> 11) & 0x1,
                "sym_inc": (head >> 10) & 0x1,
                "start_prb": head & 0x3FF,
                "num_prb": num_prb,
                "comp_byte": comp_byte,
                "payload": data[offset : offset + payload_size],
            }
        )
        offset += payload_size
    return parsed


def scalar_pack_uplane(parsed: Dict[str, Any]) -> bytes:
    """Re-serialize :func:`scalar_parse_uplane` output byte-exactly."""
    first = (
        ((parsed["direction"] & 0x1) << 7)
        | ((parsed["payload_version"] & 0x7) << 4)
        | (parsed["filter_index"] & 0xF)
    )
    timing = (
        ((parsed["subframe"] & 0xF) << 12)
        | ((parsed["slot"] & 0x3F) << 6)
        | (parsed["symbol"] & 0x3F)
    )
    out = bytearray(_UPLANE_HDR.pack(first, parsed["frame"] & 0xFF, timing))
    for section in parsed["sections"]:
        head = (
            ((section["section_id"] & 0xFFF) << 12)
            | ((section["rb"] & 0x1) << 11)
            | ((section["sym_inc"] & 0x1) << 10)
            | (section["start_prb"] & 0x3FF)
        )
        num_prb_byte = (
            section["num_prb"] if 0 < section["num_prb"] <= 255 else 0
        )
        out += _UPLANE_SECTION_HDR.pack(
            head.to_bytes(3, "big"), num_prb_byte, section["comp_byte"], 0
        )
        out += section["payload"]
    return bytes(out)
