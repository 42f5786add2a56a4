"""What a refactor of ``repro.eval`` must not move, pinned as hashes.

``golden_tables.json`` was generated at the parent of the experiment-kit
change (PR 18) and holds

- ``tables``: sha256 of ``python -m repro.eval <id>`` stdout, minus the
  ``(N.Ns)`` wall-clock lines, for the ids whose output is byte-stable
  run to run (sixteen from PR 18, ``mobility`` since it was registered);
- ``specs``: sha256 of ``to_json()`` of the six canonical scenario specs
  at their default horizons.

A table hash moves only when a reproduced number moves; regenerate an
entry (after an *intentional* change, saying so in CHANGES.md) with
``table_sha256`` / ``canonical_specs`` below.
"""

import contextlib
import hashlib
import importlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.eval.__main__ import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_tables.json").read_text()
)
_WALL_LINE = re.compile(r"^   \(\d+\.\ds\)\n", re.MULTILINE)

#: The gates: every module here exports exactly one ``run_*`` callable.
GATE_MODULES = (
    "chaos", "chaos_scale", "codec", "conformance", "obs_top", "scale",
    "serve",
)


def table_sha256(experiment: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([experiment]) == 0
    text = _WALL_LINE.sub("", out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_specs():
    from repro.eval.chaos import slo_chaos_spec
    from repro.eval.chaos_scale import DEFAULT_SLOTS, chaos_scale_spec
    from repro.eval.codec import modcomp_bench_spec
    from repro.eval.obs_top import obs_top_spec
    from repro.eval.scale import bench_spec
    from repro.eval.serve import serve_spec

    return {
        "bench": bench_spec(),
        "chaos-scale": chaos_scale_spec(DEFAULT_SLOTS),
        "serve": serve_spec(),
        "slo-chaos": slo_chaos_spec(),
        "obs-top": obs_top_spec(),
        "modcomp": modcomp_bench_spec(),
    }


@pytest.mark.parametrize("experiment", sorted(GOLDEN["tables"]))
def test_table_bytes_unchanged(experiment):
    assert table_sha256(experiment) == GOLDEN["tables"][experiment]


def test_canonical_spec_bytes_unchanged():
    hashes = {
        name: hashlib.sha256(spec.to_json().encode()).hexdigest()
        for name, spec in canonical_specs().items()
    }
    assert hashes == GOLDEN["specs"]


@pytest.mark.parametrize("name", GATE_MODULES)
def test_gate_has_one_entry_point(name):
    module = importlib.import_module(f"repro.eval.{name}")
    own = [
        attr for attr, value in vars(module).items()
        if callable(value) and getattr(value, "__module__", "") == module.__name__
    ]
    assert [attr for attr in own if attr.startswith("run_")] == [
        f"run_{name}"
    ]
    assert "main" not in own and "run" not in own
