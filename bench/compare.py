#!/usr/bin/env python3
"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians with their
quartiles over the runs in each file, the ratio B/A (A is the base), the
metric's bound from ``BENCHMARK.json`` and a verdict:

- ``worse``       B's median is worse than A's by more than the bound.
- ``better``      B's median is better than A's by more than the distance
                  between A's own quartiles.
- ``same``        neither.
- ``unresolved``  a side's quartile distance exceeds the bound, so the
                  runs cannot tell; unless every run of B reads better than
                  every run of A (``better``) or worse (``worse``).

Exact values (digest, delivered packets, wire bytes, modelled ns) must be
identical when both files used the same seed.  Exits 1 on any ``worse``
or differing exact value.  Produce the inputs with
``bench/run.py --runs N --out FILE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """The verdict for one workload x metric (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    gain = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        if min(sign * value for value in b) > max(sign * value for value in a):
            return "better"
        if max(sign * value for value in b) < min(sign * value for value in a):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > (a_q3 - a_q1) / a_med and gain > 0:
        return "better"
    return "same"


def _values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Rows of the comparison table and whether anything regressed."""
    rows = [
        f"{'workload':<16}{'metric':<26}{'A median [q1, q3] n':>40}"
        f"{'B median [q1, q3] n':>40}{'B/A':>8}{'bound':>7}  verdict"
    ]
    regressed = False
    same_seed = a["manifest"]["seed"] == b["manifest"]["seed"]
    for workload in DECLARED["workloads"]:
        name = workload["name"]
        runs_a = a["workloads"].get(name, {}).get("end_to_end")
        runs_b = b["workloads"].get(name, {}).get("end_to_end")
        if not runs_a or not runs_b:
            rows.append(f"{name:<16}(missing from {'A' if not runs_a else 'B'})")
            continue
        for metric in DECLARED["end_to_end"]:
            values_a = _values(runs_a, metric["name"])
            values_b = _values(runs_b, metric["name"])
            outcome = verdict(
                values_a, values_b, metric["better"], metric["bound"]
            )
            regressed |= outcome == "worse"
            cells = []
            for values in (values_a, values_b):
                q1, median, q3 = _quartiles(values)
                cells.append(
                    f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"
                )
            ratio = statistics.median(values_b) / statistics.median(values_a)
            rows.append(
                f"{name:<16}{metric['name']:<26}{cells[0]:>40}{cells[1]:>40}"
                f"{ratio:>8.3f}{metric['bound']:>7.2f}  {outcome}"
            )
        if same_seed:
            exact_a = {json.dumps(run["exact"], sort_keys=True) for run in runs_a}
            exact_b = {json.dumps(run["exact"], sort_keys=True) for run in runs_b}
            identical = exact_a == exact_b and len(exact_a) == 1
            regressed |= not identical
            rows.append(
                f"{name:<16}{'exact values':<26}"
                f"{'identical' if identical else 'DIFFER':>40}"
            )
    return rows, regressed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows, regressed = compare(a, b)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
