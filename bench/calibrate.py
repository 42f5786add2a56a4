"""Host-speed calibration: a fixed kernel that shares no code with ``src/``.

The reference host is a shared VM.  Besides short bursts (which the
per-position noise floor removes) it has episodes of minutes in which
*all* user-mode compute runs up to 1.6x slower — wall and CPU time alike,
no steal, no page faults.  No statistic of wall time alone is steady
across such an episode, so every run also times this kernel between
repetitions and scales its wall-clock results by

    host factor = lower-quartile kernel time in this run / REFERENCE_S

i.e. it reports *reference-host seconds*.  In a calm run the factor is
1.00 +- 0.03 and changes nothing; in a slow episode it removes most of the
shift.  The factor is printed with every result so raw wall time can be
recovered.  The kernel mixes the two things the program spends time on —
small-array numpy passes and interpreter-bound object handling.

Why the lower quartile and not the minimum: a chunk lasts under a
millisecond, a workload position (a slot, an epoch of three processes)
3-80 ms, so in a noisy run the chunks still find their calm floor while
the positions no longer do.  Over 38 runs of three workloads taken across
a noisy hour (raw floors ranging 30-45 %), workload floors moved as the
chunk *minimum* to the power 1.7-2.6 — dividing by it left 17-31 % of
range — but as the chunk *lower quartile* to the power 1.0-1.25, leaving
11-15 % (quartile distance 1-8 % instead of 7-14 %).
It must never change: every recorded baseline is in its units.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: :func:`host_factor`'s statistic on the calm 2-vCPU reference host (its
#: absolute floor there is 18.5 ms).
REFERENCE_S = 0.0194


class _Record:
    __slots__ = ("index", "pair", "table")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pair = (index, index + 1)
        self.table = {"a": index}

    def score(self, offset: int) -> int:
        return self.index + offset + self.table["a"]


def kernel() -> List[float]:
    """Run the fixed calibration work once; returns the wall seconds of
    each of its 25 chunks (the same chunk is the same work every call, so
    chunks take a per-position floor exactly like the workload's slots)."""
    clock = time.perf_counter
    rng = np.random.default_rng(0)
    chunks: List[float] = []
    total = 0
    for _ in range(20):
        started = clock()
        for _ in range(10):
            grid = rng.normal(0, 1, 1272) + 1j * rng.normal(0, 1, 1272)
            samples = np.clip(
                np.round(grid.real * 1000), -32768, 32767
            ).astype(np.int16)
            bits = np.unpackbits(samples.view(np.uint8))
            total += len(np.packbits(bits).tobytes())
        chunks.append(clock() - started)
    for _ in range(5):
        started = clock()
        for _ in range(10):
            records = [_Record(index) for index in range(300)]
            for record in records:
                total += record.score(3)
            by_index = {record.index: record for record in records}
            total += sum(by_index[index].pair[1] for index in range(0, 300, 3))
            records.sort(key=lambda record: -record.index)
        chunks.append(clock() - started)
    return chunks


def host_factor(kernel_runs: List[List[float]]) -> float:
    """How much slower than the calm reference host this run's host was:
    each chunk's lower quartile over the run's kernel calls, summed, over
    :data:`REFERENCE_S`."""
    return float(np.quantile(kernel_runs, 0.25, axis=0).sum()) / REFERENCE_S
