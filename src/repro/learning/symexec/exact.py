"""The op tables' texts over expression nodes: exact, or refused.

The texts (``host/ops.py``, ``guest/ops.py``) are Python over unbounded
ints, such as ADD's carry ``t >> 32``; a node is a 32-bit word.  So a
:class:`Value` pairs a node with the range ``[lo, hi]`` of the int the
text computes, the node being that int mod 2**32.  Each operator keeps
this true or raises ``RuleVerificationError`` (the verifier's
``unmodelled``): ``>>`` is ``shr`` on [0, 2**32) and ``sar`` on
[-2**31, 2**31); a comparison needs both sides in [0, 2**32); ``and``,
``or`` and ``not`` need 0/1 operands.  :func:`word` reads a u32 back as
a node.  Flags are evaluated when first read (:class:`LazyFlags`), so an
unread ADD carry costs nothing.  :class:`SymExec` is what the two
symbolic executors share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ...common.errors import RuleVerificationError
from ...common.texts import evaluate_text
from .expr import MASK, App, Sym, const


@dataclass(frozen=True)
class Value:
    node: Any
    lo: int = 0
    hi: int = MASK


Operand = Union[Value, int]


def lift(x: Operand) -> Value:
    return x if isinstance(x, Value) else Value(const(x), x, x)


def _within(x: Value, lo: int, hi: int) -> bool:
    return lo <= x.lo and x.hi <= hi


def _checked(x: Operand, lo: int, hi: int) -> Value:
    x = lift(x)
    if not _within(x, lo, hi):
        raise RuleVerificationError(f"{x.node!r} may leave [{lo}, {hi}]")
    return x


def word(x: Operand) -> Any:
    """*x*'s node, when *x* is a u32."""
    return _checked(x, 0, MASK).node


def _bitwise(op: str, x: Operand, y: Operand) -> Value:
    x, y = lift(x), lift(y)
    node = App(op, (x.node, y.node))
    if op == "and" and (x.lo >= 0 or y.lo >= 0):
        return Value(node, 0, min(end.hi for end in (x, y) if end.lo >= 0))
    if x.lo >= 0 and y.lo >= 0:
        return Value(node, 0, (1 << max(x.hi, y.hi).bit_length()) - 1)
    width = max(abs(end).bit_length() for end in (x.lo, x.hi, y.lo, y.hi))
    return Value(node, -(1 << width), (1 << width) - 1)


def _compare(op: str, x: Operand, y: Operand, negate: bool = False) -> Value:
    """A comparison of two u32s, as 0 or 1."""
    node = App(op, (word(x), word(y)))
    return Value(App("xor", (node, const(1))) if negate else node, 0, 1)


def _count(n: Operand) -> int:
    if isinstance(n, Value) or not 0 <= n < 32:
        raise RuleVerificationError(f"shift by {n!r}")
    return n


class _Exact:
    """The algebra of :func:`evaluate_text` over Values."""

    def add(self, x: Operand, y: Operand) -> Value:
        x, y = lift(x), lift(y)
        return Value(App("add", (x.node, y.node)), x.lo + y.lo, x.hi + y.hi)

    def neg(self, x: Operand) -> Value:
        x = lift(x)
        return Value(App("mulv", (const(MASK), x.node)), -x.hi, -x.lo)

    def sub(self, x: Operand, y: Operand) -> Value:
        return self.add(x, self.neg(y))

    def mul(self, x: Operand, y: Operand) -> Value:
        x, y = lift(x), lift(y)
        ends = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
        return Value(App("mulv", (x.node, y.node)), min(ends), max(ends))

    def invert(self, x: Operand) -> Value:
        x = lift(x)
        return Value(App("not", (x.node,)), -x.hi - 1, -x.lo - 1)

    def and_(self, x: Operand, y: Operand) -> Value:
        x = lift(x)
        if y == MASK:               # mod 2**32: the node as it is
            return x if _within(x, 0, MASK) else Value(x.node)
        return _bitwise("and", x, y)

    def or_(self, x: Operand, y: Operand) -> Value:
        return _bitwise("or", x, y)

    def xor(self, x: Operand, y: Operand) -> Value:
        return _bitwise("xor", x, y)

    def lshift(self, x: Operand, n: Operand) -> Value:
        x, count = lift(x), _count(n)
        return Value(App("shl", (x.node, const(count))), x.lo << count,
                     x.hi << count)

    def rshift(self, x: Operand, n: Operand) -> Value:
        x, count = lift(x), _count(n)
        op = "shr" if _within(x, 0, MASK) else "sar"
        if op == "sar":
            _checked(x, -0x80000000, 0x7FFFFFFF)
        return Value(App(op, (x.node, const(count))), x.lo >> count,
                     x.hi >> count)

    def both(self, x: Operand, y: Operand) -> Value:
        return _bitwise("and", _checked(x, 0, 1), _checked(y, 0, 1))

    def either(self, x: Operand, y: Operand) -> Value:
        return _bitwise("or", _checked(x, 0, 1), _checked(y, 0, 1))

    def ite(self, test: Operand, x: Operand, y: Operand) -> Value:
        test, x, y = lift(test), lift(x), lift(y)
        if (x.node, y.node) == (const(1), const(0)) and \
                _within(test, 0, 1):
            return test
        return Value(App("ite", (word(test), x.node, y.node)),
                     min(x.lo, y.lo), max(x.hi, y.hi))

    # x <= y is not ult(y, x), and not x is x == 0.
    def lt(self, x: Operand, y: Operand) -> Value:
        return _compare("ult", x, y)

    def gt(self, x: Operand, y: Operand) -> Value:
        return _compare("ult", y, x)

    def le(self, x: Operand, y: Operand) -> Value:
        return _compare("ult", y, x, negate=True)

    def ge(self, x: Operand, y: Operand) -> Value:
        return _compare("ult", x, y, negate=True)

    def eq(self, x: Operand, y: Operand) -> Value:
        return _compare("eq", x, y)

    def ne(self, x: Operand, y: Operand) -> Value:
        return _compare("eq", x, y, negate=True)

    def not_(self, x: Operand) -> Value:
        return _compare("eq", x, 0)

EXACT = _Exact()


def value_of(text: str, names: Mapping[str, Any]) -> Value:
    """*text* over Values, exactly."""
    return lift(evaluate_text(text, EXACT, names))


class LazyFlags:
    """Flags, each a thunk evaluated when read; ``flags.cf`` reads flag
    ``cf``, so LazyFlags stand for the host texts' ``C``.  :meth:`define`
    returns new flags, so a text that reads the flags before its op
    keeps reading those."""

    def __init__(self, defs: Optional[Mapping[str, Any]] = None) -> None:
        self._defs: Dict[str, Any] = dict(defs or {})

    def define(self, thunks: Mapping[str, Callable[[], Value]]) \
            -> "LazyFlags":
        return LazyFlags({**self._defs, **thunks})

    def read(self, name: str) -> Value:
        if name not in self._defs:
            raise RuleVerificationError(f"flag {name} read before it is set")
        value: Value = self._defs[name]()
        return value

    def __getattr__(self, name: str) -> Value:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.read(name)


class SymExec:
    """Runs a fragment over symbolic registers, named by ``REG_NAMES``;
    a register read before it is written is the symbol ``PREFIX`` +
    its name.  :meth:`execute` returns the final state: ``regs``,
    ``stores`` (address, size, value), ``flags``, ``branch`` (1 when
    the closing conditional branch of an if/while condition line is
    taken, else 0; None without one) and ``jumps`` (the fragment ends
    with an unconditional jump, a return)."""

    REG_NAMES: Sequence[str] = ()
    PREFIX = ""
    _insn: Callable[[Any], None]        # runs one instruction

    def __init__(self, initial: Dict[str, object]):
        self.regs: Dict[str, object] = dict(initial)
        self.stores: List[Tuple[object, int, object]] = []
        self.flags = LazyFlags()
        self.branch: Optional[object] = None
        self.jumps = False

    def _reg(self, number: int) -> Any:
        name = self.REG_NAMES[number]
        if name not in self.regs:
            self.regs[name] = Sym(self.PREFIX + name)
        return self.regs[name]

    def _set_reg(self, number: int, node: Any) -> None:
        self.regs[self.REG_NAMES[number]] = node

    def execute(self, insns: Sequence[Any]) -> "SymExec":
        for insn in insns:
            self._insn(insn)
        return self
