"""The PRB monitor's per-estimate oracle.

What :class:`~repro.apps.prb_monitor.PrbMonitorMiddlebox` kept before it
folded: one record per estimate — the symbol's time, its direction and
its per-PRB flags, recomputed here from the packet's exponents — and
Figure 10c's grouping over them: the records grouped by slot, each
slot's mean utilization, summed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import slot_id

#: ``(time, direction, flags)``; ``flags`` one Python bool per PRB.
Record = Tuple[int, Direction, Tuple[bool, ...]]


def record_estimates(monitor: PrbMonitorMiddlebox) -> List[Record]:
    """Every estimate ``monitor`` makes from now on, in arrival order:
    ``_estimate`` is wrapped on the instance."""
    records: List[Record] = []
    estimate = monitor._estimate

    def recording(ctx, packet) -> None:
        estimate(ctx, packet)
        direction = packet.direction
        threshold = (
            monitor.thr_dl if direction is Direction.DOWNLINK
            else monitor.thr_ul
        )
        utilized = np.zeros(monitor.carrier_num_prb, dtype=bool)
        for section in packet.message.sections:
            start = section.start_prb
            end = min(start + section.num_prb, monitor.carrier_num_prb)
            if end > start:
                utilized[start:end] = (
                    section.exponents() > threshold
                )[: end - start]
        records.append((packet.time, direction, tuple(utilized.tolist())))

    monitor._estimate = recording
    return records


def utilization(flags: Tuple[bool, ...]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def per_slot(records: List[Record], direction: Direction) -> Dict:
    """``{slot_key: [utilization, ...]}`` of one direction, slots in
    first-arrival order."""
    grouped: Dict[Tuple[int, int, int], List[float]] = defaultdict(list)
    for time, seen, flags in records:
        if seen is direction:
            grouped[slot_id(time)].append(utilization(flags))
    return grouped


def slot_mean_sum(records: List[Record], direction: Direction) -> float:
    """Figure 10c's numerator: each slot's mean utilization, summed."""
    return sum(
        float(np.mean(values))
        for values in per_slot(records, direction).values()
    )
