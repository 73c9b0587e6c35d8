"""Quorum-arithmetic checker: no bare ``2f+1``/``3f+1`` literals.

``ProtocolConfig`` names every quorum this codebase uses
(``fast_quorum_size`` = 3f+1, ``slow_quorum_size`` = 2f+1, also FaB's
ceil((n+f+1)/2) at n = 3f+1, ``weak_quorum_size`` = f+1).  A bare
``2 * f + 1`` at a protocol call site is a silent fork waiting for a
membership generalization: when quorum formulas change (sharded
membership is on the ROADMAP), every named helper updates at once
while inlined arithmetic keeps encoding yesterday's formula.

The rule: an ``f + 1`` / ``k * f + 1`` expression over an ``f`` name
or ``.f`` attribute is only allowed inside a function or property
whose name mentions ``quorum`` -- i.e. inside the named helpers
themselves.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.checkers.base import (
    Checker,
    FileContext,
    Finding,
    RuleSpec,
    dotted_name,
    register_checker,
)


def _is_f_ref(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "f":
        return True
    return isinstance(node, ast.Attribute) and node.attr == "f"


def _quorum_shape(node: ast.BinOp) -> str:
    """``"f + 1"`` / ``"2 * f + 1"`` when ``node`` is quorum-shaped,
    else ``""``."""
    if not isinstance(node.op, ast.Add):
        return ""
    if not (isinstance(node.right, ast.Constant) and
            node.right.value == 1):
        return ""
    left = node.left
    if _is_f_ref(left):
        return "f + 1"
    if isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult):
        for a, b in ((left.left, left.right), (left.right, left.left)):
            if isinstance(a, ast.Constant) and \
                    isinstance(a.value, int) and _is_f_ref(b):
                return f"{a.value} * f + 1"
    return ""


@register_checker
class QuorumArithmeticChecker(Checker):
    name = "quorum-arithmetic"
    RULES = (
        RuleSpec("quorum-literal",
                 "bare f+1 / k*f+1 arithmetic outside a named quorum "
                 "helper; use ProtocolConfig.*_quorum_size",
                 "quorum helpers in ProtocolConfig"),
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, in_helper=False)

    def _walk(self, ctx: FileContext, node: ast.AST,
              in_helper: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            helper = in_helper
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                helper = helper or "quorum" in child.name
            if isinstance(child, ast.BinOp) and not helper:
                shape = _quorum_shape(child)
                if shape:
                    f_node = child.left
                    if isinstance(f_node, ast.BinOp):
                        f_node = f_node.left if _is_f_ref(f_node.left) \
                            else f_node.right
                    owner = dotted_name(f_node)
                    yield ctx.finding(
                        "quorum-literal", child,
                        f"bare quorum arithmetic {shape} (over "
                        f"{owner or 'f'}); use the named "
                        f"ProtocolConfig quorum property")
            yield from self._walk(ctx, child, helper)
