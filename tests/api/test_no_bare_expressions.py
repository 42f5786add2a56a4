"""No statement in ``src/`` computes a value and throws it away.

A static pass (files are parsed with :mod:`ast`, nothing is executed):
an expression statement whose value is a bare name, an attribute, a
comparison or an arithmetic expression does nothing.  Such a line is
almost always a call that lost its parentheses — ``ctx.inspect`` where
``ctx.inspect(packet)`` was meant charges no inspection — or an
assignment that lost its ``=``.  Docstrings, ``...`` and calls are
expression statements too, and stay legal.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The value kinds an expression statement may not have.
_DISCARDED = (ast.Name, ast.Attribute, ast.Compare, ast.BinOp, ast.UnaryOp)


def bare_expressions(source: str, filename: str):
    """``(line, kind)`` of every expression statement in ``source`` whose
    value is discarded work."""
    return [
        (node.lineno, type(node.value).__name__)
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Expr) and isinstance(node.value, _DISCARDED)
    ]


def test_no_expression_statement_discards_its_value():
    found = [
        f"{path.relative_to(SRC)}:{line}: bare {kind}"
        for path in sorted(SRC.rglob("*.py"))
        for line, kind in bare_expressions(path.read_text(), str(path))
    ]
    assert found == []


def test_the_lock_sees_each_kind_and_spares_calls_and_docstrings():
    source = '''
"""module docstring"""
def f(ctx, packet, a, b):
    """function docstring"""
    ctx.inspect
    packet
    a == b
    a + b
    -a
    ctx.inspect(packet)
    ...
'''
    assert bare_expressions(source, "probe.py") == [
        (5, "Attribute"), (6, "Name"), (7, "Compare"), (8, "BinOp"),
        (9, "UnaryOp"),
    ]
