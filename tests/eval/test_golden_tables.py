"""What a refactor of ``repro.eval`` must not move, pinned as hashes.

``golden_tables.json`` was generated at the parent of the experiment-kit
change (PR 18) and holds

- ``tables``: sha256 of ``python -m repro.eval <id>`` stdout, minus the
  ``(N.Ns)`` wall-clock lines, for every id (the figures, the appendix
  and ``mobility``; all are byte-stable run to run);
- ``specs``: sha256 of ``to_json()`` of the six canonical scenario specs
  at their default horizons (the benchmark topology and the specs the
  chaos, chaos-scale, codec, obs-live and serve tests run).

A table hash moves only when a reproduced number moves; regenerate an
entry (after an *intentional* change, saying so in CHANGES.md) with
``table_sha256`` / ``canonical_specs`` below.
"""

import ast
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
_ROOT = Path(__file__).resolve().parents[2]

#: The former CI gates and the pytest modules that are now their one
#: entry point.
GATE_HOMES = {
    "chaos": ("tests/faults/test_chaos_golden.py",),
    "chaos_scale": ("benchmarks/test_chaos_scale.py",),
    "codec": ("tests/scale/test_mixed_codec.py",),
    "conformance": (
        "tests/conformance/test_taps.py",
        "tests/conformance/test_validator.py",
    ),
    "obs_top": ("tests/scale/test_obs_live_golden.py",),
    "scale": (
        "tests/scale/test_sharded_run.py",
        "benchmarks/test_scale_floor.py",
    ),
    "serve": ("tests/serve/test_service.py",),
}


def table_sha256(experiment: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([experiment]) == 0
    text = _WALL_LINE.sub("", out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_specs():
    from repro.eval.scale import bench_spec
    from tests.faults.test_chaos_golden import slo_chaos_spec
    from tests.faults.test_process_chaos import chaos_scale_spec
    from tests.scale.test_mixed_codec import modcomp_bench_spec
    from tests.scale.test_obs_live_golden import obs_top_spec
    from tests.serve.test_service import serve_spec

    return {
        "bench": bench_spec(),
        "chaos-scale": chaos_scale_spec(),
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


@pytest.mark.parametrize("name", GATE_HOMES)
def test_gate_has_one_entry_point(name, capsys):
    """A gate runs only as pytest: the CLI does not offer it and
    ``repro.eval`` exports no ``run_*`` for it."""
    assert main([name.replace("_", "-")]) == 2
    assert "unknown experiments" in capsys.readouterr().out
    try:
        module = importlib.import_module(f"repro.eval.{name}")
    except ModuleNotFoundError as exc:
        assert exc.name == f"repro.eval.{name}"
    else:
        assert [attr for attr in vars(module) if attr.startswith("run")] == []
    for home in GATE_HOMES[name]:
        tree = ast.parse((_ROOT / home).read_text())
        assert any(
            isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
            for node in tree.body + [
                item for cls in tree.body if isinstance(cls, ast.ClassDef)
                for item in cls.body
            ]
        ), home
