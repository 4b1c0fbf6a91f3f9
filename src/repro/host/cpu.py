"""Host x86 CPU state: eight GPRs and EFLAGS.

The rule-based DBT keeps the *guest* condition codes live in this EFLAGS
register between instructions — that is the whole point of the paper —
so the flags model here is bit-accurate for CF/ZF/SF/OF.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..common.bitops import u32
from .isa import FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF, REG_NAMES, X86Cond


#: Condition code -> predicate over a :class:`HostCpu`'s flags, shared by
#: the interpreter and the compiled JCC/SETCC closures (which look the
#: predicate up once, at compile time).
COND_TESTS: Dict[X86Cond, Callable[["HostCpu"], bool]] = {
    X86Cond.E: lambda cpu: cpu.zf == 1,
    X86Cond.NE: lambda cpu: cpu.zf == 0,
    X86Cond.B: lambda cpu: cpu.cf == 1,
    X86Cond.AE: lambda cpu: cpu.cf == 0,
    X86Cond.BE: lambda cpu: cpu.cf == 1 or cpu.zf == 1,
    X86Cond.A: lambda cpu: cpu.cf == 0 and cpu.zf == 0,
    X86Cond.S: lambda cpu: cpu.sf == 1,
    X86Cond.NS: lambda cpu: cpu.sf == 0,
    X86Cond.O: lambda cpu: cpu.of == 1,
    X86Cond.NO: lambda cpu: cpu.of == 0,
    X86Cond.L: lambda cpu: cpu.sf != cpu.of,
    X86Cond.GE: lambda cpu: cpu.sf == cpu.of,
    X86Cond.LE: lambda cpu: cpu.zf == 1 or cpu.sf != cpu.of,
    X86Cond.G: lambda cpu: cpu.zf == 0 and cpu.sf == cpu.of,
}


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
