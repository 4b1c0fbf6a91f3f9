"""Symbolic expression engine for translation-rule verification.

Expressions are 32-bit values over symbolic variables, with concrete
semantics given by :func:`evaluate`.  :func:`normalize` is the first
rung of the verifier's decision ladder
(:func:`repro.learning.verify.classify_equiv`): constant folding, a
linear normal form over + / - / << / *constant (so ``x << 2`` and
``x * 4`` canonicalize identically), and flattening/sorting of
commutative bitwise operators.  Structurally equal normal forms are
*proved* equivalent (:func:`proved_equal`).  Pairs the normalizer cannot
align go on to BDD bit-blasting (:mod:`.bitblast`), which decides the
same semantics for all inputs, and past its node budget to a seeded
sampler over :func:`evaluate`.  (The paper uses an offline
symbolic-execution/SMT tool; DESIGN.md records this substitution.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class Sym:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    value: int

    def __repr__(self):
        return f"{self.value:#x}"


@dataclass(frozen=True)
class App:
    op: str
    args: Tuple

    def __repr__(self):
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.op}({inner})"


def const(value: int) -> Const:
    return Const(value & MASK)


_COMMUTATIVE = {"and", "or", "xor", "mulv"}


def _signed(value: int) -> int:
    value &= MASK
    return value - 0x100000000 if value & 0x80000000 else value


def evaluate(expr, env: Dict[str, int]) -> int:
    """Concrete evaluation of an expression under *env*."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        return env[expr.name] & MASK
    args = [evaluate(arg, env) for arg in expr.args]
    op = expr.op
    if op == "add":
        return sum(args) & MASK
    if op == "mulv":
        result = 1
        for arg in args:
            result = (result * arg) & MASK
        return result
    if op == "and":
        result = MASK
        for arg in args:
            result &= arg
        return result
    if op == "or":
        result = 0
        for arg in args:
            result |= arg
        return result
    if op == "xor":
        result = 0
        for arg in args:
            result ^= arg
        return result
    if op == "not":
        return ~args[0] & MASK
    if op == "shl":
        return (args[0] << (args[1] & 31)) & MASK
    if op == "shr":
        return (args[0] & MASK) >> (args[1] & 31)
    if op == "sar":
        return (_signed(args[0]) >> (args[1] & 31)) & MASK
    if op == "ror":
        amount = args[1] & 31
        value = args[0] & MASK
        return ((value >> amount) | (value << (32 - amount))) & MASK
    if op == "load":
        # Uninterpreted memory read: hash the address deterministically.
        return (args[0] * 2654435761 + args[1]) & MASK
    raise ValueError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# Normalization: linear combination form.
# ---------------------------------------------------------------------------


def _linear(expr):
    """Decompose into (constant, {term: coefficient}) modulo 2**32.

    Terms are normalized non-linear expressions.
    """
    if isinstance(expr, Const):
        return expr.value, {}
    if isinstance(expr, Sym):
        return 0, {expr: 1}
    op = expr.op
    if op == "add":
        total, terms = 0, {}
        for arg in expr.args:
            arg_const, arg_terms = _linear(arg)
            total = (total + arg_const) & MASK
            for term, coefficient in arg_terms.items():
                terms[term] = (terms.get(term, 0) + coefficient) & MASK
        return total, {t: c for t, c in terms.items() if c}
    if op == "mulv":
        constant = 1
        symbolic = []
        for arg in expr.args:
            normalized = normalize(arg)
            if isinstance(normalized, Const):
                constant = (constant * normalized.value) & MASK
            else:
                symbolic.append(normalized)
        if not symbolic:
            return constant, {}
        if len(symbolic) == 1:
            inner_const, inner_terms = _linear(symbolic[0])
            return ((inner_const * constant) & MASK,
                    {t: (c * constant) & MASK
                     for t, c in inner_terms.items() if (c * constant) & MASK})
        term = App("mulv", tuple(sorted(symbolic, key=repr)))
        return 0, ({term: constant} if constant else {})
    if op == "shl":
        base, amount = expr.args
        amount_n = normalize(amount)
        if isinstance(amount_n, Const):
            coefficient = (1 << (amount_n.value & 31)) & MASK
            inner_const, inner_terms = _linear(base)
            return ((inner_const * coefficient) & MASK,
                    {t: (c * coefficient) & MASK
                     for t, c in inner_terms.items()
                     if (c * coefficient) & MASK})
    # Anything else is an opaque term.
    term = normalize(expr, as_term=True)
    if isinstance(term, Const):
        return term.value, {}
    return 0, {term: 1}


def normalize(expr, as_term: bool = False):
    """Canonical form; equal normal forms are provably equivalent."""
    if isinstance(expr, (Sym, Const)):
        return expr
    op = expr.op
    args = tuple(normalize(arg) for arg in expr.args)

    # Constant folding for fully-constant applications.
    if all(isinstance(arg, Const) for arg in args):
        return const(evaluate(App(op, args), {}))

    if op in ("add", "mulv", "shl") and not as_term:
        constant, terms = _linear(App(op, args))
        items = sorted(terms.items(), key=lambda item: repr(item[0]))
        parts = []
        if constant:
            parts.append(const(constant))
        for term, coefficient in items:
            if coefficient == 1:
                parts.append(term)
            else:
                parts.append(App("mulv", (const(coefficient), term)))
        if not parts:
            return const(0)
        if len(parts) == 1:
            return parts[0]
        return App("add", tuple(sorted(parts, key=repr)))

    if op in _COMMUTATIVE:
        flat = []
        for arg in args:
            if isinstance(arg, App) and arg.op == op:
                flat.extend(arg.args)
            else:
                flat.append(arg)
        constants = [arg for arg in flat if isinstance(arg, Const)]
        symbolic = sorted([arg for arg in flat
                           if not isinstance(arg, Const)], key=repr)
        if constants:
            folded = evaluate(App(op, tuple(constants)), {})
            identity = {"and": MASK, "or": 0, "xor": 0, "mulv": 1}[op]
            if folded != identity:
                symbolic.append(const(folded))
            if op == "and" and folded == 0:
                return const(0)
            if op == "or" and folded == MASK:
                return const(MASK)
            if op == "mulv" and folded == 0:
                return const(0)
        if not symbolic:
            return const({"and": MASK, "or": 0, "xor": 0,
                          "mulv": 1}[op])
        if len(symbolic) == 1:
            return symbolic[0]
        # xor: cancel duplicate pairs.
        if op == "xor":
            deduped = []
            for arg in symbolic:
                if deduped and deduped[-1] == arg:
                    deduped.pop()
                else:
                    deduped.append(arg)
            if not deduped:
                return const(0)
            if len(deduped) == 1:
                return deduped[0]
            symbolic = deduped
        return App(op, tuple(symbolic))

    if op == "not":
        inner = args[0]
        if isinstance(inner, App) and inner.op == "not":
            return inner.args[0]
        return App("not", args)

    return App(op, args)


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------


def symbols(*exprs) -> Set[str]:
    """Names of the symbolic variables in *exprs*."""
    names: Set[str] = set()
    for expr in exprs:
        if isinstance(expr, Sym):
            names.add(expr.name)
        elif isinstance(expr, App):
            names |= symbols(*expr.args)
    return names


def proved_equal(a, b) -> bool:
    return repr(normalize(a)) == repr(normalize(b))
