"""Regenerate every table and figure: ``python -m repro.eval``.

Runs the paper's experiments (the same runners the benchmarks wrap) and
prints each result table.  Pass experiment ids to run a subset, e.g.::

    python -m repro.eval fig10a table2 fig15b

The CI gates (scale-out, chaos, codec, conformance, obs-top, serve) are
pytest modules, not ids here: see ``tests/`` and ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict


def _runners() -> "Dict[str, Callable[[], str]]":
    from repro.eval.appendix import run_cost_analysis, run_sharing_math
    from repro.eval.fig10 import run_fig10a, run_fig10b, run_fig10c
    from repro.eval.fig11 import run_fig11
    from repro.eval.fig12 import run_fig12
    from repro.eval.fig13 import run_fig13
    from repro.eval.fig14 import run_fig14
    from repro.eval.fig15 import run_fig15a, run_fig15a_measured, run_fig15b
    from repro.eval.fig16 import run_fig16
    from repro.eval.mobility import run_mobility
    from repro.eval.table2 import run_table2

    return {
        "fig10a": lambda: run_fig10a().format(),
        "fig10b": lambda: run_fig10b().format(),
        "fig10c": lambda: run_fig10c().format(),
        "table2": lambda: run_table2().format(),
        "fig11": lambda: run_fig11().format(),
        "fig12": lambda: run_fig12().format(),
        "fig13": lambda: run_fig13().format(),
        "fig14": lambda: run_fig14().format(),
        "fig15a": lambda: run_fig15a().format(),
        "fig15a_measured": lambda: run_fig15a_measured().format(),
        "fig15b": lambda: run_fig15b().format(),
        "fig16": lambda: run_fig16().format(),
        "mobility": lambda: run_mobility().format(),
        "appendix_a1": lambda: run_sharing_math().format(),
        "appendix_a2": lambda: run_cost_analysis().format(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.eval")
    parser.add_argument("experiments", nargs="*", help="ids (default: all)")
    args = parser.parse_args(argv)
    runners = _runners()
    selected = args.experiments or list(runners)
    unknown = [name for name in selected if name not in runners]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}")
        print(f"available: {', '.join(runners)}")
        return 2
    for name in selected:
        start = time.time()
        print(f"== {name} " + "=" * max(60 - len(name), 0))
        print(runners[name]())
        print(f"   ({time.time() - start:.1f}s)")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
