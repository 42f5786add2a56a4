"""Regenerate every table and figure: ``python -m repro.eval``.

Runs the full experiment set (the same runners the benchmarks wrap) and
prints each result table.  Pass experiment ids to run a subset, e.g.::

    python -m repro.eval fig10a table2 fig15

``--slots`` / ``--workers`` resize the experiments that take a horizon
or a worker count (CI smoke runs), e.g.::

    python -m repro.eval chaos-scale --slots 8 --workers 2
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, Optional


def _runners(
    slots: Optional[int], workers: Optional[int]
) -> "Dict[str, Callable[[], str]]":
    from repro.eval.appendix import run_cost_analysis, run_sharing_math
    from repro.eval.chaos import run_chaos
    from repro.eval.chaos_scale import run_chaos_scale
    from repro.eval.codec import run_codec
    from repro.eval.conformance import run_conformance
    from repro.eval.fig10 import run_fig10a, run_fig10b, run_fig10c
    from repro.eval.fig11 import run_fig11
    from repro.eval.fig12 import run_fig12
    from repro.eval.fig13 import run_fig13
    from repro.eval.fig14 import run_fig14
    from repro.eval.fig15 import run_fig15a, run_fig15a_measured, run_fig15b
    from repro.eval.fig16 import run_fig16
    from repro.eval.mobility import run_mobility
    from repro.eval.obs_top import run_obs_top
    from repro.eval.scale import run_scale
    from repro.eval.serve import run_serve
    from repro.eval.table2 import run_table2

    # Only the flags given are forwarded: each runner keeps its defaults.
    sized = {"slots": slots} if slots else {}
    sharded = dict(sized, workers=workers) if workers else sized

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
        "chaos": lambda: run_chaos(**sized).format(),
        "chaos-scale": lambda: run_chaos_scale(**sharded).format(),
        "codec": lambda: run_codec(**sized).format(),
        "conformance": lambda: run_conformance(**sized).format(),
        "obs-top": lambda: run_obs_top(**sharded).format(),
        "scale": lambda: run_scale(**sized).format(),
        "serve": lambda: run_serve(**sharded).format(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.eval")
    parser.add_argument("experiments", nargs="*", help="ids (default: all)")
    parser.add_argument(
        "--slots", type=int, help="horizon for the experiments that take one"
    )
    parser.add_argument(
        "--workers", type=int, help="worker count for the sharded experiments"
    )
    args = parser.parse_args(argv)
    runners = _runners(args.slots, args.workers)
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
