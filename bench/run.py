#!/usr/bin/env python3
"""The repo's one benchmark command.

Contract mode (what the driver runs; one workload, one JSON line last)::

    python3 bench/run.py --workload cells8_bfp --seed 7 --seconds 12 --trace 0

Suite mode (all six workloads, each in an interpreter of its own like the
driver's runs, untraced then traced, merged into one result file)::

    python3 bench/run.py [--seed N] [--quick] [--runs N] [--out FILE]

``--workload`` without ``--trace`` measures that workload both ways.
See ``bench/README.md`` for the metric definitions and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Repetitions in ``--quick`` runs (which ignore the clock).
QUICK_REPS = 2
#: Fewest measured repetitions / traced rounds of a timed run.
MIN_REPS = 3
MIN_ROUNDS = 2


#: What a fresh interpreter runs to time importing the program.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "started = time.perf_counter(); import numpy, repro.api; "
    "print(time.perf_counter() - started)"
)


def _bootstrap() -> float:
    """Pin BLAS to one thread, put ``src/`` on the path, import the
    program; returns this process's import wall time (one sample of the
    import part of ``setup_s``)."""
    for variable in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
    ):
        os.environ[variable] = "1"
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench/run.py: no src/repro under {ROOT}; "
                 "the benchmark needs the program's source")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import numpy  # noqa: F401
    import repro.api  # noqa: F401
    return time.perf_counter() - started


def _import_probe() -> float:
    """Import wall time of one fresh interpreter (started and waited for
    here; ``measure_untraced`` spreads these over its measuring window)."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(probe.stdout)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload run (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"short horizons, {QUICK_REPS} repetitions, no clock",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="suite mode: measure every workload this many times "
             "(compare.py takes its quartiles over runs)",
    )
    parser.add_argument("--out", help="write the suite result JSON here "
                        "(spans go beside it as <out>.spans.jsonl)")
    parser.add_argument(
        "--legacy-probe", action="store_true",
        help="print the old repro.eval.scale fixture's rate and "
             "undelivered share, then exit",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite bench/expected.json from this run's exact values",
    )
    return parser.parse_args(argv)


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _manifest(seed: int, args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    load = os.getloadavg()[0]
    if load > 0.5:
        print(f"WARNING: 1-min load average {load:.2f} > 0.5 at start; "
              "timings will be noisy", file=sys.stderr)
    return {
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "loadavg_1min_at_start": load,
    }


def _legacy_probe() -> None:
    """Relate BENCH_4/6/10 to the new baseline: the old fixture's rate
    next to the share of its offered packets that reach no endpoint."""
    import harness
    from repro.eval.scale import bench_spec

    rep = harness.run_inline(bench_spec(40))
    offered = rep.delivered + rep.failed_packets
    print(
        f"legacy repro.eval.scale.bench_spec(40): "
        f"{rep.cell_slots / rep.wall_s:.1f} cell-slots/s, "
        f"undelivered share {rep.counts['undeliverable'] / offered:.2f} "
        f"({rep.counts['undeliverable']} of {offered} packets)"
    )
    for name, group in rep.result.groups.items():
        dead = sum(report["undeliverable"] for report in group.reports)
        if dead:
            print(f"  group {name}: {dead} undeliverable")


def _suite(args: argparse.Namespace) -> int:
    """Suite mode: every workload measurement in an interpreter of its
    own — what the driver does — so peak RSS, allocator state and the
    import sample belong to one workload.  The children's results are
    merged into ``--out`` (and their spans into ``<out>.spans.jsonl``)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in declared["workloads"]] * args.runs
    passed = []
    for flag in ("seed", "seconds", "trace"):
        if getattr(args, flag) is not None:
            passed += [f"--{flag}", str(getattr(args, flag))]
    passed += ["--quick"] * args.quick
    passed += ["--update-expected"] * args.update_expected
    merged: Dict[str, Any] = {}
    spans: List[str] = []
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for index, name in enumerate(names):
            out = Path(scratch) / f"{index}.json"
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--out", str(out), *passed]
            ).returncode
            if not out.exists():  # the child died before measuring
                continue
            child = json.loads(out.read_text())
            merged.setdefault("manifest", {**child["manifest"], "runs": args.runs})
            for kind, runs in child["workloads"][name].items():
                merged.setdefault("workloads", {}).setdefault(
                    name, {}
                ).setdefault(kind, []).extend(runs)
            if index >= len(names) - len(declared["workloads"]):
                spans.append(Path(f"{out}.spans.jsonl").read_text())
    if args.out and merged:
        Path(args.out).write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
        Path(f"{args.out}.spans.jsonl").write_text("".join(spans))
    return status


def _reap_children() -> None:
    """Stop and wait for every process this interpreter still owns.

    ``LiveRun.close()`` joins its workers, but the arena's shared memory
    starts ``multiprocessing``'s resource tracker, which otherwise exits
    only *after* this process has — so whoever looks right after our exit
    still sees it running.  Closing its pipe and waiting for it here
    (nothing is left registered once the arenas are unlinked) makes the
    exit clean.  Workers a failed run left behind are killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.workload is None and not args.legacy_probe:
        return _suite(args)
    # A polite kill unwinds like any other exit, so the reaping below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _measure(args)
    finally:
        _reap_children()


def _measure(args: argparse.Namespace) -> int:
    """Contract mode / one workload of the suite, in this interpreter."""
    import_s = _bootstrap()
    import suite
    import workloads

    if args.legacy_probe:
        _legacy_probe()
        return 0
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.seconds is None:
        args.seconds = float(suite.DECLARED["run_seconds"])
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    manifest = _manifest(seed, args)
    print(f"manifest: {json.dumps(manifest, sort_keys=True)}")

    seconds = 0.0 if args.quick else args.seconds
    workload = workloads.build(args.workload, seed, quick=args.quick)
    outcomes: List[suite.Outcome] = []
    for traced in modes:
        if traced:
            outcome = suite.measure_traced(
                workload, seed, seconds, 1 if args.quick else MIN_ROUNDS
            )
        else:
            outcome = suite.measure_untraced(
                workload, seed, seconds,
                QUICK_REPS if args.quick else MIN_REPS,
                [import_s], _import_probe,
            )
            if not args.update_expected:
                suite.check_pinned(outcome, args.quick)
        outcomes.append(outcome)
        print(suite.format_outcome(outcome), flush=True)

    if args.update_expected:
        suite.update_expected(outcomes, seed, args.quick)
    if args.out:
        suite.write_result(args.out, manifest, outcomes)
    if args.trace is not None:
        print(suite.contract_line(outcomes[0]))
    return 0 if all(outcome.correct for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
