"""The benchmark's own tests (not tier-1): ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
END_TO_END = {entry["name"] for entry in DECLARED["end_to_end"]}
PER_LAYER = {entry["name"] for entry in DECLARED["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    """One ``--quick`` run of all six workloads, both ways."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return {
        "elapsed": elapsed,
        "stdout": done.stdout,
        "result": json.loads(out.read_text()),
        "spans": Path(f"{out}.spans.jsonl"),
    }


def test_quick_smoke_runs_all_six_workloads_in_30_s(quick_suite):
    assert quick_suite["elapsed"] < 30.0
    workloads = quick_suite["result"]["workloads"]
    assert sorted(workloads) == sorted(WORKLOADS)
    for name, entry in workloads.items():
        for kind in ("end_to_end", "per_layer"):
            (run,) = entry[kind]
            assert run["correct"], (name, kind, run["problems"])
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert run["failed_share"] == 0.0


def test_printed_names_are_exactly_the_declared_ones(quick_suite):
    printed_workloads = set(re.findall(r"^== (\S+) ·", quick_suite["stdout"], re.M))
    assert printed_workloads == set(WORKLOADS)
    table = re.findall(
        r"^(\S+) +\S+ +-?\d+\.\d{4} +-?\d+\.\d{4} +-?\d+\.\d{4} +\d+$",
        quick_suite["stdout"], re.M,
    )
    assert set(table) == END_TO_END | PER_LAYER
    for entry in quick_suite["result"]["workloads"].values():
        assert set(entry["end_to_end"][0]["metrics"]) == END_TO_END
        assert set(entry["per_layer"][0]["metrics"]) == PER_LAYER


def test_declared_names_units_and_bounds_are_well_formed():
    names = WORKLOADS + sorted(END_TO_END) + sorted(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert DECLARED["paths"] == ["bench"]


def test_layer_shares_account_for_run_slot_wall(quick_suite):
    """ran.du + ran.ru + core.chain + sim.network self time is all of the
    ``run_slot`` wall: a layer nested in another, or a boundary left
    unproxied, would break the sum."""
    for name, entry in quick_suite["result"]["workloads"].items():
        metrics = entry["per_layer"][0]["metrics"]
        total = sum(
            metrics[share]["value"]
            for share in ("ran.du.share", "ran.ru.share", "core.chain.share",
                          "sim.network.self_share")
        )
        assert total == pytest.approx(1.0, abs=0.05), name


def test_spans_nest_inside_run_slot(quick_suite):
    by_run = {}
    with quick_suite["spans"].open() as handle:
        for line in handle:
            span = json.loads(line)
            by_run.setdefault(span["run"], []).append(span)
    assert sorted(by_run) == sorted(WORKLOADS)
    for name, spans in by_run.items():
        parents = [span for span in spans if span["parent"] < 0]
        assert parents and {span["name"] for span in parents} == {
            "sim.network.run_slot"
        }
        children_s = 0.0
        for span in spans:
            if span["parent"] < 0:
                continue
            parent = spans[span["parent"]]
            assert parent["name"] == "sim.network.run_slot"
            assert parent["start_s"] <= span["start_s"]
            assert span["end_s"] <= parent["end_s"]
            children_s += span["end_s"] - span["start_s"]
        run_slot_s = sum(s["end_s"] - s["start_s"] for s in parents)
        assert 0.5 * run_slot_s < children_s <= run_slot_s, name


def test_tracing_overhead_reported_and_digests_match(quick_suite):
    for name, entry in quick_suite["result"]["workloads"].items():
        run = entry["per_layer"][0]
        # A differing traced/observed digest is recorded as a problem.
        assert not run["problems"], (name, run["problems"])
        assert run["metrics"]["trace.overhead_ratio"]["value"] > 0.5


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_contract_line(trace, declared):
    done = subprocess.run(
        RUN + ["--workload", "deep_chain", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert set(line["metrics"]) == declared
    units = {
        m["name"]: m["unit"]
        for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    }
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        if trace == 0:
            assert metric["value"] > 0


def test_live_run_leaves_no_process_behind():
    """Everything the live workload starts (2 workers + the shared-memory
    resource tracker) is gone — not even a zombie — when run.py returns."""
    run = subprocess.Popen(
        RUN + ["--workload", "live_churn", "--seed", "5", "--seconds", "1",
               "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, stderr = run.communicate(timeout=120)
    assert run.returncode == 0, stderr[-2000:]
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # ended while we were looking
            continue
        session = int(text[text.rindex(")") + 2:].split()[3])
        if session == run.pid:
            left.append(text)
    assert not left


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, "higher", 0.08) == "same"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.08) == "worse"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.08) == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.08) == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "higher", 0.08) == "unresolved"
    assert compare.verdict(noisy, [v * 2 for v in noisy], "higher", 0.08) == "better"


def test_compare_exit_code(tmp_path):
    def result(rate):
        run = {
            "metrics": {
                m["name"]: {"value": rate if m["name"] == "cell_slots_per_s" else 1.0}
                for m in DECLARED["end_to_end"]
            },
            "exact": {"digest": "d"},
        }
        return {
            "manifest": {"seed": 1},
            "workloads": {name: {"end_to_end": [run, run]} for name in WORKLOADS},
        }

    a, b, c = (tmp_path / f"{n}.json" for n in "abc")
    a.write_text(json.dumps(result(100.0)))
    b.write_text(json.dumps(result(101.0)))
    c.write_text(json.dumps(result(50.0)))
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1
