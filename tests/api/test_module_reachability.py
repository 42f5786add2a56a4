"""Every module is crossed by a slot or asserted by a figure, or it is gone.

A static pass over the import graph — files are parsed with :mod:`ast`,
nothing under ``src/repro`` is executed — that keeps five promises:

(a) every module under ``src/repro`` is *reached*: starting from what
    runs the twin (every file under ``bench/``, ``benchmarks/`` and
    ``examples/``, plus the allow-listed entry points below), following
    imports through non-``__init__`` modules reaches it.  A package
    ``__init__`` re-export is not an importer: ``from repro.pkg import
    Name`` counts as an import of ``Name``'s home module only, so a
    module kept alive by nothing but its package's ``__all__`` and its
    own tests fails here.  ``tests/`` is never an importer.
(b) every ``repro.*`` name a file under ``bench/``, ``benchmarks/`` or
    ``examples/`` imports exists, without running the file (the
    examples also run, in ``tests/api/test_examples.py``).
(c) every public method of a class in any ``src/repro`` module is
    *called*: its name is referenced (an attribute, a name or a
    ``getattr`` string) somewhere in ``src/``, ``bench/`` or
    ``examples/`` outside its own ``def``.
(d) every public module-level class or function is referenced the same
    way, outside its own body.  A package ``__all__`` string or a
    re-export is not a reference.
(e) every defaulted parameter of a public function or method (or of a
    class's ``__init__``, called by the class name or a subclass's
    ``super().__init__``) is passed, by keyword or by position, by at
    least one call anywhere, ``tests/`` and ``benchmarks/`` included.  A
    knob nobody sets is a constant.

All five are by name, so they are coarse; what they catch is code only
``tests/`` still calls and values nobody sets.  Test oracles and wire
probes live under ``tests/``, not in ``src/``.  Two blind spots follow,
and a review has to cover them by hand:

- checks (c)-(e) skip the classes and functions :mod:`repro.api`
  re-exports (``tests/api/api_surface.txt`` locks that facade,
  signatures included), so a test-only method of one of them — as
  ``PrbMonitorMiddlebox.utilization_timeseries`` and ``.reset`` were —
  passes;
- a method passes (c) when *any* method of the same name is called: a
  test-only ``DasMiddlebox.add_ru`` passed on the calls of
  ``FronthaulNetwork.add_ru``.

A new module therefore needs an importer outside ``tests/`` or a line in
:data:`ALLOWED` saying why it has none; a method or top-level name
nothing but tests calls needs a line in :data:`METHODS_ALLOWED`.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CONSUMER_DIRS = ("bench", "benchmarks", "examples")

#: Modules reached by no import on purpose, and why.  Two entries, both
#: entry points; a third needs the same kind of reason, not just a line
#: here.
ALLOWED = {
    "repro.api": "entry point: the locked facade users import",
    "repro.eval.__main__": "entry point: `python -m repro.eval`",
}

#: ``Class.method`` (or a top-level ``module.Name``) that nothing in src/,
#: bench/ or examples/ calls, on purpose, and why.  A reason is one of
#: two kinds: one of the flight recorder's exports, or a paper number a
#: test or benchmark asserts.  A test oracle or wire probe is a helper
#: under tests/, not a line here.
METHODS_ALLOWED = {
    # The flight recorder's exports.
    "FlightRecorder.to_jsonl": "export: the recorder's JSON-lines dump",
    "FlightRecorder.to_chrome_trace": "export: the recorder's Chrome trace",
    # Paper numbers a test or benchmark asserts.
    "XdpDatapath.supports_frame":
        "Section 6.4.1's XDP frame limit, asserted by tests/core/test_datapath.py "
        "and tests/eval/test_eval_utilities.py",
    "Nic.max_chain_depth":
        "Section 5's PCIe chain-depth bound, asserted by tests/net/test_net.py "
        "and reported by benchmarks/test_chain_depth.py",
    "repro.net.nic.Nic":
        "the NIC of Section 5's chain-depth bound (Nic.max_chain_depth)",
    "ResilienceMiddlebox.failback":
        "the resilience app's operator fail-back to the primary DU, asserted "
        "by tests/apps/test_resilience.py and tests/faults/test_resilience_chaos.py",
    "Fig10cResult.max_error":
        "Figure 10c's PRB-utilization error, asserted by "
        "tests/eval/test_experiments.py and benchmarks/test_fig10c_monitor.py",
}
#: Where a method's or a top-level name's callers may live
#: (``benchmarks/`` is timing only).
METHOD_CALLER_DIRS = ("src", "bench", "examples")
#: Where a call may pass a default: anywhere.
DEFAULT_CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tests")


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


def test_allow_list_is_two_entries_that_exist():
    missing = sorted(set(ALLOWED) - set(MODULES))
    assert not missing, f"ALLOWED names modules that are gone: {missing}"
    assert len(ALLOWED) == 2, (
        f"the allow-list grew to {len(ALLOWED)} entries: a module nothing "
        "outside tests/ imports is either wired in or deleted; update this "
        "count only together with the reason the new entry states"
    )


#: Imports every module named on the command line with ``hypothesis``
#: unimportable, as on an install without the test dependencies.
_IMPORT_WITHOUT_HYPOTHESIS = """
import importlib, sys

class BlockHypothesis:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "hypothesis":
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, BlockHypothesis())
for module in sys.argv[1:]:
    importlib.import_module(module)
"""


def test_every_module_imports_without_hypothesis():
    """Hypothesis is a test-only dependency: no ``src/repro`` module may
    need it to import."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_WITHOUT_HYPOTHESIS, *sorted(MODULES)],
        cwd=REPO, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]


def test_every_repro_name_a_consumer_imports_exists():
    broken = [
        f"{path.relative_to(REPO)}:{line}: "
        + (f"from {base} import {name}" if name else f"import {base}")
        for path in _consumer_files()
        for base, name, line in _imports(path)
        if _home(base, name) is None
    ]
    assert not broken, "imports of names that do not exist:\n" + "\n".join(broken)


def _facade() -> Set[str]:
    """Names :mod:`repro.api` re-exports (its lockfile pins them)."""
    return {name for _, name, _ in _imports(MODULES["repro.api"]) if name}


def _functions(body) -> Iterator[ast.FunctionDef]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@functools.lru_cache(maxsize=None)
def _definitions():
    """``(top_level, methods)``: ``module.Name`` -> name of every public
    top-level class or function, and ``Class.method`` -> ``(class name,
    def)`` of every method of every class, facade classes excepted."""
    facade = _facade()
    top_level: Dict[str, str] = {}
    methods: Dict[str, Tuple[str, ast.FunctionDef]] = {}
    for module, path in MODULES.items():
        for node in _tree(path).body:
            if not isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) or node.name in facade:
                continue
            if not node.name.startswith("_"):
                top_level[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in _functions(node.body):
                    methods[f"{node.name}.{item.name}"] = (node.name, item)
    return top_level, methods


@functools.lru_cache(maxsize=None)
def _referenced_names() -> Set[str]:
    """Every identifier a caller file references, except inside a ``def``
    or ``class`` of the same name (its own body) and in ``__all__``."""
    names: Set[str] = set()

    def visit(node: ast.AST, enclosing: Tuple[str, ...]) -> None:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return
        if isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = node.value
        else:
            found = None
        if found is not None and found not in enclosing:
            names.add(found)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            enclosing = enclosing + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for directory in METHOD_CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            visit(_tree(path), ())
    return names


def _unreferenced() -> Tuple[List[str], List[str]]:
    """Checks (c) and (d): ``(methods, top-level names)`` nothing outside
    tests/ references, allow-listed ones included."""
    top_level, methods = _definitions()
    referenced = _referenced_names()
    return (
        sorted(
            qualified
            for qualified, (_, node) in methods.items()
            if not node.name.startswith("_") and node.name not in referenced
        ),
        sorted(
            qualified
            for qualified, name in top_level.items()
            if name not in referenced
        ),
    )


def test_every_method_is_called_outside_tests():
    methods, _ = _unreferenced()
    uncalled = [q for q in methods if q not in METHODS_ALLOWED]
    assert not uncalled, (
        "nothing in src/, bench/ or examples/ calls these methods "
        f"(tests/ does not count): {uncalled}; call them where they "
        "matter, delete them with their tests, or add them to "
        "METHODS_ALLOWED with the reason"
    )


def test_every_top_level_name_is_referenced_outside_tests():
    _, top_level = _unreferenced()
    unreferenced = [q for q in top_level if q not in METHODS_ALLOWED]
    assert not unreferenced, (
        "nothing in src/, bench/ or examples/ references these classes or "
        "functions (tests/, __all__ and re-exports do not count): "
        f"{unreferenced}; use them, delete them with their tests, or add "
        "them to METHODS_ALLOWED with the reason"
    )


def test_method_allow_list_names_uncalled_methods_that_exist():
    methods, top_level = _unreferenced()
    stale = sorted(set(METHODS_ALLOWED) - set(methods) - set(top_level))
    assert not stale, (
        f"METHODS_ALLOWED entries that are gone or now called: {stale}"
    )


@functools.lru_cache(maxsize=None)
def _passed() -> Dict[str, Tuple[float, Set[Optional[str]]]]:
    """Callee name -> (most positional arguments, keywords) over every
    call.  ``*args`` counts as every position and ``**kwargs`` as the
    keyword ``None``; ``super().__init__(...)`` is filed under the
    enclosing class's bases and ``cls(...)`` under the class."""
    passed: Dict[str, Tuple[float, Set[Optional[str]]]] = {}

    def visit(node: ast.AST, cls: Optional[ast.ClassDef]) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            callees = [name]
            if (
                name == "__init__"
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"
                and cls is not None
            ):
                callees = [
                    getattr(base, "attr", getattr(base, "id", None))
                    for base in cls.bases
                ]
            elif name == "cls" and cls is not None:
                callees = [cls.name]
            positional = (
                float("inf")
                if any(isinstance(a, ast.Starred) for a in node.args)
                else len(node.args)
            )
            keywords = {keyword.arg for keyword in node.keywords}
            for callee in filter(None, callees):
                most, seen = passed.get(callee, (0, set()))
                passed[callee] = (max(most, positional), seen | keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for directory in DEFAULT_CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            visit(_tree(path), None)
    return passed


def _never_passed(node: ast.FunctionDef, callee: str, bound: bool) -> List[str]:
    """The defaulted parameters of ``node`` no call of ``callee`` passes."""
    most, keywords = _passed().get(callee, (0, set()))
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    defaulted = [
        (param.arg, index - bound)
        for index, param in enumerate(positional)
        if index >= first_default
    ] + [
        (param.arg, None)
        for param, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return [
        name
        for name, index in defaulted
        if name not in keywords
        and None not in keywords
        and (index is None or most <= index)
    ]


def test_every_default_is_passed_somewhere():
    _, methods = _definitions()
    facade = _facade()
    constants = []
    for path in MODULES.values():
        for node in _functions(_tree(path).body):
            if not node.name.startswith("_") and node.name not in facade:
                constants += [
                    f"{node.name}({name}=)"
                    for name in _never_passed(node, node.name, False)
                ]
    for qualified, (cls, node) in methods.items():
        if node.name == "__init__":
            callee = cls
        elif node.name.startswith("_"):
            continue
        else:
            callee = node.name
        static = any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
        )
        constants += [
            f"{qualified}({name}=)"
            for name in _never_passed(node, callee, not static)
        ]
    assert not constants, (
        "no call anywhere (tests/ included) passes these defaulted "
        f"parameters: {sorted(constants)}; a value nobody sets is a "
        "constant — inline it"
    )
