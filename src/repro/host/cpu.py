"""Host x86 CPU state: eight GPRs and EFLAGS.

The rule-based DBT keeps the *guest* condition codes live in this EFLAGS
register between instructions — that is the whole point of the paper —
so the flags model here is bit-accurate for CF/ZF/SF/OF.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..common.bitops import u32
from .isa import FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF, REG_NAMES, X86Cond


#: Condition code -> Python test of a :class:`HostCpu` named ``C`` (its
#: flags are 0 or 1).  Generated block bodies inline the expression; the
#: interpreter and the compiled JCC terminators call COND_TESTS.
COND_EXPRS: Dict[X86Cond, str] = {
    X86Cond.E: "C.zf", X86Cond.NE: "not C.zf", X86Cond.B: "C.cf",
    X86Cond.AE: "not C.cf", X86Cond.BE: "C.cf or C.zf",
    X86Cond.A: "not (C.cf or C.zf)", X86Cond.S: "C.sf",
    X86Cond.NS: "not C.sf", X86Cond.O: "C.of", X86Cond.NO: "not C.of",
    X86Cond.L: "C.sf != C.of", X86Cond.GE: "C.sf == C.of",
    X86Cond.LE: "C.zf or C.sf != C.of",
    X86Cond.G: "not C.zf and C.sf == C.of",
}
COND_TESTS: Dict[X86Cond, Callable[["HostCpu"], bool]] = {
    cond: eval(f"lambda C: {expr}") for cond, expr in COND_EXPRS.items()}


class HostCpu:
    """Architectural state of the (simulated) host processor."""

    def __init__(self, stack_top: int = 0):
        self.regs = [0] * 8
        self.xmm = [0] * 8      # scalar single-precision (bit patterns)
        self.cf = 0
        self.zf = 0
        self.sf = 0
        self.of = 0
        self.regs[4] = stack_top  # ESP

    # -- EFLAGS as a packed word (pushfd/popfd) ---------------------------------

    @property
    def eflags(self) -> int:
        return ((self.cf << FLAG_CF) | (self.zf << FLAG_ZF) |
                (self.sf << FLAG_SF) | (self.of << FLAG_OF) | 0x2)

    @eflags.setter
    def eflags(self, value: int) -> None:
        self.cf = (value >> FLAG_CF) & 1
        self.zf = (value >> FLAG_ZF) & 1
        self.sf = (value >> FLAG_SF) & 1
        self.of = (value >> FLAG_OF) & 1

    # -- flag-producing arithmetic (shared by the interpreter) ---------------------

    def set_nz(self, result: int) -> None:
        result = u32(result)
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> 31) & 1

    def flags_add(self, a: int, b: int, carry_in: int = 0) -> int:
        total = (a & 0xFFFFFFFF) + (b & 0xFFFFFFFF) + carry_in
        result = u32(total)
        self.cf = 1 if total > 0xFFFFFFFF else 0
        self.of = 1 if (~(a ^ b) & (a ^ result)) & 0x80000000 else 0
        self.set_nz(result)
        return result

    def flags_sub(self, a: int, b: int, borrow_in: int = 0) -> int:
        a &= 0xFFFFFFFF
        b &= 0xFFFFFFFF
        result = u32(a - b - borrow_in)
        self.cf = 1 if (b + borrow_in) > a else 0
        self.of = 1 if ((a ^ b) & (a ^ result)) & 0x80000000 else 0
        self.set_nz(result)
        return result

    def flags_logic(self, result: int) -> int:
        """Set N/Z for a logical result, PRESERVING CF and OF.

        Deliberate deviation from real x86 (which clears CF/OF): the
        paper's rule-based translator handles the ARM-vs-x86 mismatch on
        logical flag producers with *constrained rules*; modelling CF/OF
        preservation instead lets one host op implement ARM logical-S
        semantics exactly (ARM leaves C/V unchanged for unshifted
        operands) without affecting any coordination measurement.  See
        DESIGN.md, "Key design decisions".
        """
        result = u32(result)
        self.set_nz(result)
        return result

    def __repr__(self) -> str:
        regs = " ".join(f"{REG_NAMES[i]}={self.regs[i]:08x}"
                        for i in range(8))
        return (f"<HostCpu {regs} cf={self.cf} zf={self.zf} sf={self.sf} "
                f"of={self.of}>")
