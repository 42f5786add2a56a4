"""Ablation: Algorithm 1's BFP exponent thresholds.

DESIGN.md calls out thr_dl=0 / thr_ul=2 as a design choice.  This bench
sweeps the threshold and reports estimation error against the scheduler
ground truth, showing why the paper's values sit at the sweet spot: too
low counts uplink noise as utilization, too high misses real data.
"""

from _harness import report

from repro.eval.report import format_table


def sweep_thresholds(thresholds=(0, 1, 2, 3, 6, 10), load_mbps=40.0,
                     n_slots=25, seed=3):
    rows = []
    for threshold in thresholds:
        # Reuse the fig10c harness with a custom UL threshold by patching
        # the monitor after construction via its management interface.
        import repro.eval.fig10 as fig10
        from repro.apps import prb_monitor

        original_init = prb_monitor.PrbMonitorMiddlebox.__init__

        def patched(self, *args, _thr=threshold, **kwargs):
            kwargs["thr_ul"] = _thr
            kwargs["thr_dl"] = min(_thr, 15)
            original_init(self, *args, **kwargs)

        prb_monitor.PrbMonitorMiddlebox.__init__ = patched
        try:
            result = fig10.run_fig10c(loads_mbps=(load_mbps * 10,),
                                      n_slots=n_slots, seed=seed)
        finally:
            prb_monitor.PrbMonitorMiddlebox.__init__ = original_init
        dl_error = abs(
            result.downlink[0].estimated_utilization
            - result.downlink[0].ground_truth_utilization
        )
        ul_error = abs(
            result.uplink[0].estimated_utilization
            - result.uplink[0].ground_truth_utilization
        )
        rows.append((threshold, round(dl_error * 100, 2),
                     round(ul_error * 100, 2)))
    return rows


def test_ablation_thresholds(benchmark):
    rows = benchmark.pedantic(sweep_thresholds, rounds=1, iterations=1)
    text = format_table(
        "Ablation: Algorithm 1 exponent threshold vs estimation error (%)",
        ("threshold", "DL error %", "UL error %"),
        rows,
    )
    report("ablation_thresholds", text)
    by_threshold = {row[0]: row for row in rows}
    # The paper's UL threshold (2) has near-zero error ...
    assert by_threshold[2][2] < 2.0
    # ... while an over-aggressive threshold misses real data.
    assert by_threshold[10][2] > by_threshold[2][2]
    assert by_threshold[10][1] > by_threshold[0][1]
