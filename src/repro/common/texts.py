"""Evaluate an op table's Python text over another algebra.

The op tables (``host/ops.py``, ``guest/ops.py``) state what an op
computes as Python texts over ints.  :func:`evaluate_text` runs one over
an *algebra* instead, such as IR temps (the TCG frontend) or expression
nodes (the rule verifier): each operator becomes a call of the
algebra's method named as in :mod:`operator` (``a - b`` calls
``sub(a, b)``), or ``both``, ``either`` and ``ite`` for ``and``, ``or``
and ``x if t else y``.  Operands are evaluated left to right, so an
algebra that emits code emits it in the text's order.
"""

from __future__ import annotations

import ast
import functools
from types import CodeType
from typing import Any, Mapping

_METHODS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.BitAnd: "and_",
    ast.BitOr: "or_", ast.BitXor: "xor", ast.LShift: "lshift",
    ast.RShift: "rshift", ast.Invert: "invert", ast.USub: "neg",
    ast.Not: "not_", ast.And: "both", ast.Or: "either", ast.Lt: "lt",
    ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge", ast.Eq: "eq",
    ast.NotEq: "ne",
}


def _call(method: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Attribute(ast.Name("A", ast.Load()), method,
                                  ast.Load()), list(args), [])


class _ToCalls(ast.NodeTransformer):
    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        return _call(_METHODS[type(node.op)], self.visit(node.left),
                     self.visit(node.right))

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        return _call(_METHODS[type(node.op)], self.visit(node.operand))

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        return functools.reduce(
            lambda left, right: _call(_METHODS[type(node.op)], left, right),
            [self.visit(value) for value in node.values])

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        (op,), (right,) = node.ops, node.comparators     # not chained
        return _call(_METHODS[type(op)], self.visit(node.left),
                     self.visit(right))

    def visit_IfExp(self, node: ast.IfExp) -> ast.AST:
        return _call("ite", self.visit(node.test), self.visit(node.body),
                     self.visit(node.orelse))


@functools.lru_cache(maxsize=None)      # keyed by the tables' texts
def _code(text: str) -> CodeType:
    tree = _ToCalls().visit(ast.parse(text.strip(), mode="eval"))
    return compile(ast.fix_missing_locations(tree), f"<{text}>", "eval")


def evaluate_text(text: str, algebra: Any, names: Mapping[str, Any]) -> Any:
    """*text*'s value over *algebra*, each name it reads bound as in
    *names*; a constant stays a Python int."""
    return eval(_code(text), {"__builtins__": {}, "A": algebra}, names)
