"""The public facade is locked: breaking it is a reviewed diff, not luck.

``api_surface.txt`` snapshots every name :mod:`repro.api` exports plus
its call signature (parameter names, kinds, and default *presence* —
default values render as ``=...`` so a tweaked constant or a
3.10-vs-3.12 repr difference never churns the file).  Any drift fails
tier-1 with a unified diff; intentional surface changes regenerate the
lockfile with::

    REPRO_UPDATE_API_SURFACE=1 PYTHONPATH=src \
        python -m pytest tests/api/test_api_surface.py

and the regenerated file goes through review like any other code.
"""

from __future__ import annotations

import difflib
import inspect
import os
from pathlib import Path

import repro.api as api

LOCKFILE = Path(__file__).with_name("api_surface.txt")


def _render_params(obj) -> str:
    """``(a, b=..., *, c=...)`` — names, kinds, default presence only."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return "(...)"
    tokens = []
    star_emitted = False
    for parameter in signature.parameters.values():
        if parameter.name == "self":
            continue
        if parameter.kind is parameter.VAR_POSITIONAL:
            star_emitted = True
            tokens.append(f"*{parameter.name}")
            continue
        if parameter.kind is parameter.VAR_KEYWORD:
            tokens.append(f"**{parameter.name}")
            continue
        if parameter.kind is parameter.KEYWORD_ONLY and not star_emitted:
            star_emitted = True
            tokens.append("*")
        token = parameter.name
        if parameter.default is not parameter.empty:
            token += "=..."
        tokens.append(token)
    return "(" + ", ".join(tokens) + ")"


def render_surface() -> str:
    """The facade as text: one sorted line per exported name."""
    lines = []
    for name in sorted(api.__all__):
        obj = getattr(api, name)
        if inspect.isclass(obj):
            lines.append(f"{name}: class{_render_params(obj)}")
        elif callable(obj):
            lines.append(f"{name}: def{_render_params(obj)}")
        else:
            lines.append(f"{name}: {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def test_every_export_resolves():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_all_is_sorted_within_groups():
    """``__all__`` has no duplicates (grouping is cosmetic, dupes are
    bugs)."""
    assert len(api.__all__) == len(set(api.__all__))


def test_api_surface_matches_lockfile():
    rendered = render_surface()
    if os.environ.get("REPRO_UPDATE_API_SURFACE") == "1":
        LOCKFILE.write_text(rendered, encoding="utf-8")
    assert LOCKFILE.exists(), (
        "tests/api/api_surface.txt is missing; regenerate with "
        "REPRO_UPDATE_API_SURFACE=1"
    )
    locked = LOCKFILE.read_text(encoding="utf-8")
    if rendered != locked:
        diff = "\n".join(
            difflib.unified_diff(
                locked.splitlines(),
                rendered.splitlines(),
                fromfile="api_surface.txt (locked)",
                tofile="repro.api (current)",
                lineterm="",
            )
        )
        raise AssertionError(
            "public API surface drifted from the lockfile — if this "
            "change is intentional, regenerate with "
            "REPRO_UPDATE_API_SURFACE=1 and commit the diff:\n" + diff
        )


def test_fault_injection_example_runs():
    """The facade docstring's fault-injection example is real code: its
    spec names parameters the fault kind takes."""
    doc = api.__doc__
    block = doc[doc.index("**Fault injection**"):]
    block = block[block.index("::\n") + 3:]
    code = "\n".join(
        line[4:] for line in block.splitlines() if line.startswith("    ")
    )
    namespace: dict = {}
    exec(code, namespace)
    injector = namespace["injector"]
    assert injector.name == "gilbert_elliott" and injector.seed == 7
    assert injector.config.burst.p_enter_burst == 0.3
