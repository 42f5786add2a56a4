"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table/figure of the paper and both prints
the rows (visible with ``pytest -s``) and writes them under
``benchmarks/output/`` so EXPERIMENTS.md can reference stable artifacts.
Performance numbers are not written here: ``bench/`` is the repo's one
perf record, and the timing benches in this directory only assert floors.
"""

from __future__ import annotations

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def report(name: str, text: str) -> None:
    """Print a result table and persist it to benchmarks/output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
