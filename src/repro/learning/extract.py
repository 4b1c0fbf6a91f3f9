"""Fragment extraction: pair guest/host instruction sequences by line.

This is the paper's learning step 2: using the debug line information
emitted by both compilers, collect the guest and host instructions that
implement the same source statement.  Each pair is a *candidate rule*
that still has to survive formal verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..guest.asm import assemble
from ..guest.decoder import decode
from ..guest.isa import ArmInsn
from ..host.isa import X86Insn
from .toycc.ast_nodes import Function
from .toycc.codegen_arm import compile_arm
from .toycc.codegen_x86 import compile_x86


@dataclass
class CandidateRule:
    """A line-paired (guest, host) fragment before verification."""

    function: str
    line: int
    guest: List[ArmInsn] = field(default_factory=list)
    host: List[X86Insn] = field(default_factory=list)
    #: variable name -> guest home register name ("r4", ...)
    guest_vars: Dict[str, str] = field(default_factory=dict)
    #: variable name -> host home register number
    host_vars: Dict[str, int] = field(default_factory=dict)

    @property
    def site(self) -> str:
        """``function:line``, the key of this candidate's verdict."""
        return f"{self.function}:{self.line}"

    def __repr__(self):
        return (f"<candidate {self.site} "
                f"{len(self.guest)}g/{len(self.host)}h>")


def _assemble_arm(asm: str) -> List[ArmInsn]:
    program = assemble(asm, base=0)
    insns = []
    for offset in range(0, program.size, 4):
        word = int.from_bytes(program.data[offset:offset + 4], "little")
        insns.append(decode(word, offset))
    return insns


def extract_function(function: Function) -> List[CandidateRule]:
    """Compile *function* with both back ends and pair fragments by line."""
    arm = compile_arm(function)
    x86 = compile_x86(function)
    arm_insns = _assemble_arm(arm.asm)
    if len(arm_insns) != len(arm.line_table):
        raise AssertionError("ARM line table out of sync with assembly")

    guest_by_line: Dict[int, List[ArmInsn]] = {}
    for insn, line in zip(arm_insns, arm.line_table):
        if line:
            guest_by_line.setdefault(line, []).append(insn)
    host_by_line: Dict[int, List[X86Insn]] = {}
    for insn, line in zip(x86.code, x86.line_table):
        if line:
            host_by_line.setdefault(line, []).append(insn)

    candidates = []
    for line in sorted(set(guest_by_line) & set(host_by_line)):
        candidates.append(CandidateRule(
            function=function.name, line=line,
            guest=guest_by_line[line], host=host_by_line[line],
            guest_vars=dict(arm.var_homes), host_vars=dict(x86.var_homes)))
    return candidates


def extract_all(functions: List[Function]) -> List[CandidateRule]:
    candidates = []
    for function in functions:
        candidates.extend(extract_function(function))
    return candidates
