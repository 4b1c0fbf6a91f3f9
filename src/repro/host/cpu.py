"""Host x86 CPU state: eight GPRs, eight xmm registers and EFLAGS.

The rule-based DBT keeps the *guest* condition codes live in this EFLAGS
register between instructions — that is the whole point of the paper.
EFLAGS is modelled as its four condition bits CF, ZF, SF and OF, each an
attribute holding 0 or 1.  What every host op does to them is stated
once, in :mod:`repro.host.ops`, with the model's deviations from x86.
"""

from __future__ import annotations

from typing import Callable, Dict

from .isa import REG_NAMES, X86Cond


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
        #: ESP at the start of every execute() call (the stack is empty
        #: between TBs)
        self.stack_top = stack_top
        self.regs[4] = stack_top  # ESP

    def __repr__(self) -> str:
        regs = " ".join(f"{REG_NAMES[i]}={self.regs[i]:08x}"
                        for i in range(8))
        return (f"<HostCpu {regs} cf={self.cf} zf={self.zf} sf={self.sf} "
                f"of={self.of}>")
