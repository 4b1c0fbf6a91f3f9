"""Guest ARM semantics: one row per data-processing op, one text per condition.

A row (:class:`DpRow`) states what an op computes, as Python text over
``a`` (operand 1) and ``b`` (the shifter operand), both u32, ``c`` (C
before the op), ``t`` (an intermediate) and ``r`` (the result).  An
arithmetic row gives its C and V texts; a logical row takes C from the
shifter and keeps V; N and Z follow ``r``.  A condition's text is over
the flags ``n z c v``.  Every text is exact in 32 bits: it compares
u32s and masks a sum with ``& 0xFFFFFFFF`` at once, so a carry is a
comparison (ADC's is ``r < a or (r == a and c)``).  The same text runs
as Python (:data:`STEPS`, :data:`COND_TESTS`, for the reference
interpreter), as TCG IR (``miniqemu/frontend.py``) and as the rule
verifier's expression nodes (``learning/symexec/arm_exec.py``); the
flags an instruction reads and writes derive from it too
(``core/analysis.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from .isa import Cond, Op

N_TEXT = "r >> 31 & 1"
Z_TEXT = "r == 0"


def names(text: str) -> FrozenSet[str]:
    """The one-letter names *text* reads."""
    return frozenset(re.findall(r"\b[a-z]\b", text))


@dataclass
class DpRow:
    """What one data-processing op computes."""

    op: Op
    result: str
    carry: Optional[str] = None      # C; None: logical, C from the shifter
    overflow: Optional[str] = None   # V
    t: Optional[str] = None          # evaluated before the result
    reads_a: bool = field(init=False)
    reads_c: bool = field(init=False)
    writes_rd: bool = field(init=False)     # compares do not

    def __post_init__(self) -> None:
        read = names(" ".join(filter(None, (self.result, self.carry,
                                            self.overflow, self.t))))
        self.reads_a, self.reads_c = "a" in read, "c" in read
        self.writes_rd = self.op.writes_rd

    @property
    def logical(self) -> bool:
        return self.carry is None


_WORD = "& 0xFFFFFFFF"
_ADD_V = "((a ^ r) & ~(a ^ b)) >> 31 & 1"
_SUB_V = "((a ^ r) & (a ^ b)) >> 31 & 1"
_RSB_V = "((b ^ r) & (b ^ a)) >> 31 & 1"

#: One row per data-processing op.  Positional fields: op, result, C, V.
TABLE: Tuple[DpRow, ...] = (
    DpRow(Op.AND, "a & b"),
    DpRow(Op.EOR, "a ^ b"),
    DpRow(Op.SUB, f"(a - b) {_WORD}", "a >= b", _SUB_V),
    DpRow(Op.RSB, f"(b - a) {_WORD}", "b >= a", _RSB_V),
    DpRow(Op.ADD, f"(a + b) {_WORD}", "r < a", _ADD_V),
    DpRow(Op.ADC, f"(a + b + c) {_WORD}", "r < a or (r == a and c)",
          _ADD_V),
    # t is the borrow.
    DpRow(Op.SBC, f"(a - b - t) {_WORD}", "a > b or (a == b and c)",
          _SUB_V, t="c ^ 1"),
    DpRow(Op.RSC, f"(b - a - t) {_WORD}", "b > a or (b == a and c)",
          _RSB_V, t="c ^ 1"),
    DpRow(Op.TST, "a & b"),
    DpRow(Op.TEQ, "a ^ b"),
    DpRow(Op.CMP, f"(a - b) {_WORD}", "a >= b", _SUB_V),
    DpRow(Op.CMN, f"(a + b) {_WORD}", "r < a", _ADD_V),
    DpRow(Op.ORR, "a | b"),
    DpRow(Op.MOV, "b"),
    DpRow(Op.BIC, "a & ~b"),
    DpRow(Op.MVN, f"~b {_WORD}"),
)
DP_ROWS: Dict[Op, DpRow] = {row.op: row for row in TABLE}

#: Condition -> when it passes, over the flags n, z, c and v (0 or 1).
COND_TEXTS: Dict[Cond, str] = {
    Cond.EQ: "z", Cond.NE: "not z", Cond.CS: "c", Cond.CC: "not c",
    Cond.MI: "n", Cond.PL: "not n", Cond.VS: "v", Cond.VC: "not v",
    Cond.HI: "c and not z", Cond.LS: "not c or z", Cond.GE: "n == v",
    Cond.LT: "n != v", Cond.GT: "not z and n == v",
    Cond.LE: "z or n != v", Cond.AL: "1",
}

Step = Callable[[int, int, int, int, int], Tuple[int, int, int, int, int]]
CondTest = Callable[[int, int, int, int], bool]


def _compile() -> Tuple[Dict[Op, Step], Dict[Cond, CondTest]]:
    """The steps and condition tests, compiled from the texts at once."""
    source = [f"def {row.op._name_}(a, b, c, s, v):\n t = {row.t}\n"
              f" r = {row.result}\n return r, {N_TEXT}, {Z_TEXT}, "
              f"{row.carry or 's'}, {row.overflow or 'v'}\n"
              for row in TABLE]
    source += [f"{cond._name_} = lambda n, z, c, v: {text}\n"
               for cond, text in COND_TEXTS.items()]
    namespace: Dict[str, Any] = {}
    exec(compile("".join(source), "<guest ops>", "exec"), namespace)
    return ({op: namespace[op._name_] for op in DP_ROWS},
            {cond: namespace[cond._name_] for cond in COND_TEXTS})


#: op -> ``step(a, b, c, s, v) -> (r, n, z, c, v)``: the result, and the
#: flags the op sets when it sets flags, from operand 1, the shifter
#: operand, C, the shifter's carry-out and V.  Condition ->
#: ``test(n, z, c, v)``, true when the condition passes.
STEPS, COND_TESTS = _compile()
