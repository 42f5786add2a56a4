#!/usr/bin/env python3
"""obs-top: the live operator screen over a sharded, streamed run.

Runs the 8-cell scale topology for 16 slots on two worker processes
with the whole telemetry plane armed — metrics, sampled spans, deadline
accounting, wire conformance and the default SLOs.  The workers stream
it at every epoch barrier, the coordinator folds it live, and the
screen is drawn from that fold: the view an operator has while the run
executes.

It ends with the streaming plane's contract, checked against an
observability-off run of the same spec: streaming never changes the
results, and the live fold equals the end-of-run collect.

Run:  python examples/obs_top.py
"""

import dataclasses

from repro.eval.scale import bench_spec
from repro.obs import default_slos, render_live
from repro.scale import ObsSpec, WorkerPool, run_divergence, run_scenario


def main() -> None:
    spec = dataclasses.replace(
        bench_spec(16),
        name="obs-top-8cell",
        epoch_slots=5,
        obs=ObsSpec(
            enabled=True,
            deadline_accounting=True,
            conformance=True,
            stream=True,
            slo=tuple(slo.to_dict() for slo in default_slos()),
        ),
    )
    with WorkerPool(spec, workers=2) as pool:
        pool.begin()
        finished = False
        while not finished:
            finished = pool.advance_epoch()
            print(f"barrier: {pool.done}/{spec.slots} slots folded")
        print()
        print(render_live(
            pool.telemetry,
            title=f"obs-top: {spec.name} @ {pool.workers} workers",
        ))
        outcome = pool.collect()

    reference = run_scenario(dataclasses.replace(spec, obs=ObsSpec()))
    diverged = run_divergence(outcome, reference)
    print()
    if diverged:
        print(f"streamed run diverged from the obs-off run in {diverged}")
    else:
        print(f"digest {outcome.digest[:12]}... == obs-off run; "
              "live fold == collect")


if __name__ == "__main__":
    main()
