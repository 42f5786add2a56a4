"""Every module is crossed by a slot or asserted by a figure, or it is gone.

A static pass over the import graph — files are parsed with :mod:`ast`,
nothing under ``src/repro`` is executed — that keeps two promises:

(a) every module under ``src/repro`` is *reached*: starting from what
    runs the twin (every file under ``bench/``, ``benchmarks/`` and
    ``examples/``, plus the allow-listed entry points below), following
    imports through non-``__init__`` modules reaches it.  A package
    ``__init__`` re-export is not an importer: ``from repro.pkg import
    Name`` counts as an import of ``Name``'s home module only, so a
    module kept alive by nothing but its package's ``__all__`` and its
    own tests fails here.  ``tests/`` is never an importer.
(b) every ``repro.*`` name a file under ``bench/``, ``benchmarks/`` or
    ``examples/`` imports exists.  No test or CI job runs the examples,
    so without this a deletion could break one silently.

A new module therefore needs an importer outside ``tests/`` or a line in
:data:`ALLOWED` saying why it has none.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CONSUMER_DIRS = ("bench", "benchmarks", "examples")

#: Modules reached by no import on purpose, and why.  Four entries; a
#: fifth needs the same kind of reason, not just a line here.
ALLOWED = {
    "repro.api": "entry point: the locked facade users import",
    "repro.eval.__main__": "entry point: `python -m repro.eval`",
    "repro.conformance.reference":
        "the scalar oracle tests/conformance compares the datapath against",
    "repro.conformance.generators":
        "the Hypothesis strategies tests/ draws wire objects and specs from",
}


def _discover() -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _discover()


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imports(path: Path) -> Iterator[Tuple[str, Optional[str], int]]:
    """``(module, name or None, line)`` of every absolute ``repro`` import
    in a file, function-level (lazy) ones included.  The tree has no
    relative imports; one would read as no import and fail loudly."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name, node.lineno


@functools.lru_cache(maxsize=None)
def _bindings(module: str) -> Dict[str, Optional[Tuple[str, str]]]:
    """Top-level names of a module: ``None`` when defined there,
    ``(module, name)`` when bound by a ``from`` import (a re-export)."""
    bound: Dict[str, Optional[Tuple[str, str]]] = {}

    def visit(body) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound[node.name] = None
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bound[leaf.id] = None
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = None
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
                visit(node.orelse)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)

    visit(_tree(MODULES[module]).body)
    return bound


def _home(module: str, name: Optional[str]) -> Optional[str]:
    """The module an import lands in, re-exports followed to the home of
    ``name``; ``None`` when the module or the name does not exist."""
    if module not in MODULES:
        return None
    if name is None:
        return module
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    bindings = _bindings(module)
    if name not in bindings:
        return None
    origin = bindings[name]
    if origin is not None and origin[0] in MODULES:
        return _home(*origin)
    return module


def _consumer_files() -> List[Path]:
    return [
        path
        for directory in CONSUMER_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
    ]


def _reached() -> Set[str]:
    reached: Set[str] = set()
    frontier = [
        home
        for path in _consumer_files()
        for base, name, _ in _imports(path)
        if (home := _home(base, name)) is not None
    ] + list(ALLOWED)
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        if _is_package(module):
            continue  # a re-export is not an importer
        for base, name, _ in _imports(MODULES[module]):
            home = _home(base, name)
            if home is not None:
                frontier.append(home)
    return reached


def test_every_module_is_reached_or_allow_listed():
    reached = _reached()
    orphans = sorted(
        module
        for module in MODULES
        if not _is_package(module) and module not in reached
    )
    assert not orphans, (
        "no slot, figure, benchmark or example reaches these modules "
        "(tests/ and package __init__ re-exports are not importers): "
        f"{orphans}; wire each into the path it affects, delete it with "
        "its tests, or add it to ALLOWED with the reason"
    )


def test_allow_list_is_four_entries_that_exist():
    missing = sorted(set(ALLOWED) - set(MODULES))
    assert not missing, f"ALLOWED names modules that are gone: {missing}"
    assert len(ALLOWED) == 4, (
        f"the allow-list grew to {len(ALLOWED)} entries: a module nothing "
        "outside tests/ imports is either wired in or deleted; update this "
        "count only together with the reason the new entry states"
    )


def test_every_repro_name_a_consumer_imports_exists():
    broken = [
        f"{path.relative_to(REPO)}:{line}: "
        + (f"from {base} import {name}" if name else f"import {base}")
        for path in _consumer_files()
        for base, name, line in _imports(path)
        if _home(base, name) is None
    ]
    assert not broken, "imports of names that do not exist:\n" + "\n".join(broken)
