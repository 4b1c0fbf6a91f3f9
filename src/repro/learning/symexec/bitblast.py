"""Bounded symbolic equivalence via BDD bit-blasting.

The decision rung of the rule verifier's ladder
(:func:`repro.learning.verify.classify_equiv`): each compared expression
pair is compiled to 32 reduced ordered BDDs (one per result bit) over
the rules' symbolic variables, and the pair is equivalent iff the XOR of
the two vectors reduces to the constant-false BDD.  A non-false
difference yields a concrete *witness* assignment refuting the rule.

The procedure is bounded: :data:`NODE_BUDGET` caps BDD growth (symbolic
multiplication and deeply nested shifts can blow up), and exceeding it
raises :class:`BudgetExceeded` so the caller falls back to the seeded
sampler (classification ``tested-only`` unless a sample refutes).

Semantics mirror :func:`repro.learning.symexec.expr.evaluate` exactly,
including the 5-bit shift-amount mask and the deterministic hash model
of uninterpreted memory loads — the BDD layer decides equivalence *of
that model*, which is precisely what the sampler evaluates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .expr import App, Const, MASK, Sym, symbols

WIDTH = 32
MAX_LOAD_CLASSES = 64
#: BDD nodes one comparison may build before it gives up.
NODE_BUDGET = 250_000


class BudgetExceeded(Exception):
    """BDD node budget exhausted; fall back to sampled testing."""


class Unsupported(Exception):
    """Expression uses an operator the bit-blaster cannot compile."""


class BDD:
    """A reduced ordered BDD forest with hash-consing and an ITE cache.

    Node 0 is FALSE, node 1 is TRUE.  Variables are dense integers;
    smaller variables sit nearer the root.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self) -> None:
        # id -> (var, lo, hi); the two terminals have var = +inf sentinel.
        self._table: List[Tuple[int, int, int]] = [
            (1 << 30, 0, 0), (1 << 30, 1, 1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_memo: Dict[Tuple[int, int, int], int] = {}

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            if len(self._table) >= NODE_BUDGET:
                raise BudgetExceeded(
                    f"BDD budget of {NODE_BUDGET} nodes exceeded")
            node = len(self._table)
            self._table.append(key)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        return self._mk(index, self.FALSE, self.TRUE)

    def _top(self, *nodes: int) -> int:
        return min(self._table[n][0] for n in nodes)

    def _cofactor(self, node: int, var: int, branch: int) -> int:
        nvar, lo, hi = self._table[node]
        if nvar != var:
            return node
        return hi if branch else lo

    def ite(self, f: int, g: int, h: int) -> int:
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        hit = self._ite_memo.get(key)
        if hit is not None:
            return hit
        var = self._top(f, g, h)
        lo = self.ite(self._cofactor(f, var, 0), self._cofactor(g, var, 0),
                      self._cofactor(h, var, 0))
        hi = self.ite(self._cofactor(f, var, 1), self._cofactor(g, var, 1),
                      self._cofactor(h, var, 1))
        result = self._mk(var, lo, hi)
        self._ite_memo[key] = result
        return result

    def not_(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def satisfying(self, f: int) -> Dict[int, bool]:
        """One satisfying assignment of *f* (must not be FALSE)."""
        if f == self.FALSE:
            raise ValueError("unsatisfiable")
        out: Dict[int, bool] = {}
        node = f
        while node > 1:
            var, lo, hi = self._table[node]
            if lo != self.FALSE:
                out[var] = False
                node = lo
            else:
                out[var] = True
                node = hi
        return out


# A bitvector is a list of WIDTH BDD node ids, index 0 = LSB.
BitVec = List[int]


class BitBlaster:
    """Compiles symbolic expressions to BDD bitvectors."""

    def __init__(self, names: Iterable[str]):
        self.bdd = BDD()
        # Interleave the bits of all symbols (LSBs near the root): the
        # standard variable order for ripple-carry equivalence proofs.
        self.symbols = sorted(set(names))
        self._sym_index = {name: i for i, name in enumerate(self.symbols)}
        self._cache: Dict[int, BitVec] = {}
        # Equivalence classes of memory loads: (addr_vec, size_vec) ->
        # fresh output vector.  BDD vectors are canonical, so semantic
        # address equality is plain node-id equality.  Load-class
        # variables share the global bit-interleaved order with the
        # input symbols (slot = nsyms + class index): comparing any two
        # 32-bit entities then walks their bits pairwise instead of
        # remembering one side wholesale, which keeps equality/XOR BDDs
        # linear instead of exponential.
        self._loads: List[Tuple[BitVec, BitVec, BitVec]] = []
        self._stride = len(self.symbols) + MAX_LOAD_CLASSES

    # -- symbol/bit mapping --------------------------------------------------

    def _bit_var(self, name: str, bit: int) -> int:
        return bit * self._stride + self._sym_index[name]

    def symbol_vec(self, name: str) -> BitVec:
        return [self.bdd.var(self._bit_var(name, bit))
                for bit in range(WIDTH)]

    def const_vec(self, value: int) -> BitVec:
        value &= MASK
        return [self.bdd.TRUE if (value >> bit) & 1 else self.bdd.FALSE
                for bit in range(WIDTH)]

    def witness_values(self, assignment: Dict[int, bool]) -> Dict[str, int]:
        """Map a BDD satisfying assignment back to 32-bit symbol values
        (unconstrained bits default to 0)."""
        values = {name: 0 for name in self.symbols}
        for var, bit_set in assignment.items():
            if not bit_set:
                continue
            bit, slot = divmod(var, self._stride)
            if slot >= len(self.symbols):
                continue  # fresh load-class variables are not inputs
            values[self.symbols[slot]] |= 1 << bit
        return values

    # -- bitvector operators -------------------------------------------------

    def _add(self, a: BitVec, b: BitVec) -> BitVec:
        bdd = self.bdd
        carry = bdd.FALSE
        out = []
        for i in range(WIDTH):
            s = bdd.xor_(bdd.xor_(a[i], b[i]), carry)
            carry = bdd.or_(bdd.and_(a[i], b[i]),
                            bdd.and_(carry, bdd.or_(a[i], b[i])))
            out.append(s)
        return out

    def _mul_const(self, a: BitVec, value: int) -> BitVec:
        value &= MASK
        acc = self.const_vec(0)
        for bit in range(WIDTH):
            if (value >> bit) & 1:
                acc = self._add(acc, self._shift_left_const(a, bit))
        return acc

    def _mul(self, a: BitVec, b: BitVec) -> BitVec:
        const_b = self._as_const(b)
        if const_b is not None:
            return self._mul_const(a, const_b)
        const_a = self._as_const(a)
        if const_a is not None:
            return self._mul_const(b, const_a)
        # Symbolic x symbolic: 32 conditional shift-adds.  Usually blows
        # the budget, which is the intended bound (-> tested-only).
        bdd = self.bdd
        acc = self.const_vec(0)
        for bit in range(WIDTH):
            shifted = self._shift_left_const(a, bit)
            added = self._add(acc, shifted)
            acc = [bdd.ite(b[bit], added[i], acc[i]) for i in range(WIDTH)]
        return acc

    def _as_const(self, a: BitVec) -> Optional[int]:
        value = 0
        for bit in range(WIDTH):
            if a[bit] == self.bdd.TRUE:
                value |= 1 << bit
            elif a[bit] != self.bdd.FALSE:
                return None
        return value

    def _shift_left_const(self, a: BitVec, amount: int) -> BitVec:
        amount &= 31
        return [self.bdd.FALSE] * amount + a[:WIDTH - amount]

    def _shift_right_const(self, a: BitVec, amount: int,
                           arithmetic: bool) -> BitVec:
        amount &= 31
        fill = a[WIDTH - 1] if arithmetic else self.bdd.FALSE
        return a[amount:] + [fill] * amount

    def _rotate_right_const(self, a: BitVec, amount: int) -> BitVec:
        amount &= 31
        return a[amount:] + a[:amount]

    def _shift_var(self, a: BitVec, amount: BitVec, kind: str) -> BitVec:
        """Symbolic shift amount: mux over the 32 cases of amount & 31
        (mirroring evaluate()'s 5-bit mask)."""
        bdd = self.bdd
        out = self.const_vec(0)
        for k in range(32):
            if kind == "shl":
                case = self._shift_left_const(a, k)
            elif kind == "shr":
                case = self._shift_right_const(a, k, arithmetic=False)
            elif kind == "sar":
                case = self._shift_right_const(a, k, arithmetic=True)
            else:  # ror
                case = self._rotate_right_const(a, k)
            sel = bdd.TRUE
            for bit in range(5):
                lit = amount[bit]
                sel = bdd.and_(sel, lit if (k >> bit) & 1
                               else bdd.not_(lit))
            out = [bdd.ite(sel, case[i], out[i]) for i in range(WIDTH)]
        return out

    # -- expression compilation ----------------------------------------------

    def compile(self, expr) -> BitVec:
        key = id(expr)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        vec = self._compile(expr)
        self._cache[key] = vec
        return vec

    def _compile(self, expr) -> BitVec:
        bdd = self.bdd
        if isinstance(expr, Const):
            return self.const_vec(expr.value)
        if isinstance(expr, Sym):
            return self.symbol_vec(expr.name)
        if not isinstance(expr, App):
            raise Unsupported(f"cannot bit-blast {expr!r}")
        op = expr.op
        args = [self.compile(arg) for arg in expr.args]
        if op == "add":
            acc = self.const_vec(0)
            for arg in args:
                acc = self._add(acc, arg)
            return acc
        if op == "mulv":
            acc = self.const_vec(1)
            for arg in args:
                acc = self._mul(acc, arg)
            return acc
        if op == "and":
            acc = self.const_vec(MASK)
            for arg in args:
                acc = [bdd.and_(acc[i], arg[i]) for i in range(WIDTH)]
            return acc
        if op == "or":
            acc = self.const_vec(0)
            for arg in args:
                acc = [bdd.or_(acc[i], arg[i]) for i in range(WIDTH)]
            return acc
        if op == "xor":
            acc = self.const_vec(0)
            for arg in args:
                acc = [bdd.xor_(acc[i], arg[i]) for i in range(WIDTH)]
            return acc
        if op == "not":
            return [bdd.not_(bit) for bit in args[0]]
        if op in ("shl", "shr", "sar", "ror"):
            amount_const = self._as_const(args[1])
            if amount_const is not None:
                if op == "shl":
                    return self._shift_left_const(args[0], amount_const)
                if op == "shr":
                    return self._shift_right_const(args[0], amount_const,
                                                   arithmetic=False)
                if op == "sar":
                    return self._shift_right_const(args[0], amount_const,
                                                   arithmetic=True)
                return self._rotate_right_const(args[0], amount_const)
            return self._shift_var(args[0], args[1], op)
        if op == "load":
            return self._load_vec(args[0], args[1])
        raise Unsupported(f"cannot bit-blast operator {op!r}")

    def _load_vec(self, addr: BitVec, size: BitVec) -> BitVec:
        """Uninterpreted memory read.

        Two loads whose (address, size) vectors are BDD-identical get the
        *same* fresh output vector — canonical BDDs make this a semantic
        functional-consistency check, not a syntactic one.  Distinct
        loads get independent fresh variables, which can only make the
        checker report *more* differences; callers validate refutation
        witnesses concretely, so this over-approximation never produces
        a false ``refuted``.
        """
        for known_addr, known_size, vec in self._loads:
            if known_addr == addr and known_size == size:
                return vec
        if len(self._loads) >= MAX_LOAD_CLASSES:
            raise Unsupported("too many distinct memory loads")
        slot = len(self.symbols) + len(self._loads)
        vec = [self.bdd.var(bit * self._stride + slot)
               for bit in range(WIDTH)]
        self._loads.append((addr, size, vec))
        return vec


def check_equivalent(a, b) -> Tuple[bool, Optional[Dict[str, int]]]:
    """Decide ``a == b`` over all 32-bit assignments.

    Returns ``(True, None)`` when provably equal, or ``(False, witness)``
    with a concrete refuting assignment.  Raises :class:`BudgetExceeded`
    or :class:`Unsupported` when the bound is hit.
    """
    blaster = BitBlaster(symbols(a, b))
    va = blaster.compile(a)
    vb = blaster.compile(b)
    diff = blaster.bdd.FALSE
    for i in range(WIDTH):
        diff = blaster.bdd.or_(diff, blaster.bdd.xor_(va[i], vb[i]))
    if diff == blaster.bdd.FALSE:
        return True, None
    assignment = blaster.bdd.satisfying(diff)
    return False, blaster.witness_values(assignment)
