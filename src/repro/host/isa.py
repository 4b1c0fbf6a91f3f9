"""x86-32 host instruction model.

Generated host code is a list of :class:`X86Insn` objects executed by the
host interpreter (:mod:`repro.host.interp`).  The paper's performance
metric in this reproduction is the *dynamic count* of these instructions,
so each one corresponds to exactly one real x86 instruction; pseudo-ops
that stand in for QEMU's C runtime (helper calls, TB exits) are documented
as such and costed by :mod:`repro.common.costmodel`.

Every instruction carries a ``tag`` identifying why it was emitted
(translated guest code, CPU-state sync, softmmu fast path, interrupt
check, ...), which is how the harness attributes dynamic instruction
counts to the paper's categories (Figs 8, 15, 17).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

# Host general-purpose registers.
EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)

REG_NAMES = ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"]

#: Register conventionally holding the env pointer in generated code
#: (QEMU's TCG x86 backend reserves EBP for this too).
ENV_REG = EBP

# EFLAGS bit positions (the architectural ones).
FLAG_CF = 0
FLAG_ZF = 6
FLAG_SF = 7
FLAG_OF = 11


class X86Op(enum.Enum):
    # Hash by identity, in C, not by Enum.__hash__'s Python-level
    # hash(name): members key the per-instruction dicts and memos
    # (docs/internals.md, "Per-instruction Python costs").
    __hash__ = object.__hash__

    MOV = "mov"
    MOVZX = "movzx"
    MOVSX = "movsx"
    LEA = "lea"
    ADD = "add"
    ADC = "adc"
    SUB = "sub"
    SBB = "sbb"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"
    TEST = "test"
    NEG = "neg"
    NOT = "not"
    INC = "inc"
    DEC = "dec"
    IMUL = "imul"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    ROR = "ror"
    RCR = "rcr"
    BSR = "bsr"
    PUSH = "push"
    POP = "pop"
    PUSHFD = "pushfd"
    POPFD = "popfd"
    SETCC = "setcc"
    CMC = "cmc"
    STC = "stc"
    CLC = "clc"
    JMP = "jmp"
    JCC = "jcc"
    CALL_HELPER = "call"   # call into the QEMU runtime (a Python callable)
    EXIT_TB = "exit_tb"    # return to the cpu_exec loop with a status value
    GOTO_TB = "goto_tb"    # direct block chaining slot (patched jmp)
    NOPSLOT = "nop"

    # SSE scalar single-precision (the VFP rule templates).
    MOVSS = "movss"
    ADDSS = "addss"
    SUBSS = "subss"
    MULSS = "mulss"


class X86Cond(enum.Enum):
    """Host condition codes for jcc/setcc."""

    # Hash by identity, in C, not by Enum.__hash__'s Python-level
    # hash(name): members key the per-instruction dicts and memos
    # (docs/internals.md, "Per-instruction Python costs").
    __hash__ = object.__hash__

    E = "e"      # ZF
    NE = "ne"
    B = "b"      # CF  (unsigned <)
    AE = "ae"    # !CF
    BE = "be"    # CF or ZF
    A = "a"      # !CF and !ZF
    S = "s"      # SF
    NS = "ns"
    O = "o"      # OF
    NO = "no"
    L = "l"      # SF != OF (signed <)
    GE = "ge"
    LE = "le"
    G = "g"


# Operands are interned: constructing one returns the one object of its
# value, as CPython does for small ints, so a translation allocates no
# operand it has made before.  ``__new__`` looks the value up in a
# process-wide table whose size is the number of distinct values (eight
# registers); ``__reduce__`` sends copy, deepcopy and pickle through it.
# Identity is therefore value equality: the classes keep object's
# ``__eq__`` and ``__hash__``.  No metaclass: one doubles the cost of
# an ``isinstance`` miss (docs/internals.md, "Interned operands and
# shared instructions").

_MEMS: Dict[Tuple[Optional[int], int, Optional[int], int, int], "Mem"] = {}
_REGS: Dict[int, "Reg"] = {}
_IMMS: Dict[int, "Imm"] = {}


def _intern(cls: type, table: Dict[Any, Any], key: Any,
            **fields: Any) -> Any:
    """Build the first operand of value *key* and enter it in *table*."""
    self = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(self, name, value)
    table[key] = self
    return self


@dataclass(frozen=True, init=False, eq=False)
class Mem:
    """A memory operand: [base + index*scale + disp]."""

    base: Optional[int]
    disp: int
    index: Optional[int]
    scale: int
    size: int

    def __new__(cls, base: Optional[int] = None, disp: int = 0,
                index: Optional[int] = None, scale: int = 1,
                size: int = 4) -> "Mem":
        key = (base, disp, index, scale, size)
        try:
            return _MEMS[key]
        except KeyError:
            return _intern(cls, _MEMS, key, base=base, disp=disp,
                           index=index, scale=scale, size=size)

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return Mem, (self.base, self.disp, self.index, self.scale, self.size)

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(REG_NAMES[self.base])
        if self.index is not None:
            parts.append(f"{REG_NAMES[self.index]}*{self.scale}")
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        prefix = {1: "byte ", 2: "word ", 4: ""}[self.size]
        return f"{prefix}[{' + '.join(parts)}]"


#: An operand is a register number, an immediate (int via Imm), or Mem.
@dataclass(frozen=True, init=False, eq=False)
class Reg:
    number: int

    def __new__(cls, number: int) -> "Reg":
        try:
            return _REGS[number]
        except KeyError:
            return _intern(cls, _REGS, number, number=number)

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        return Reg, (self.number,)

    def __str__(self) -> str:
        return REG_NAMES[self.number]


@dataclass(frozen=True, init=False, eq=False)
class Imm:
    value: int

    def __new__(cls, value: int) -> "Imm":
        try:
            return _IMMS[value]
        except KeyError:
            return _intern(cls, _IMMS, value, value=value)

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        return Imm, (self.value,)

    def __str__(self) -> str:
        return f"{self.value:#x}"


@dataclass(frozen=True)
class Xmm:
    """An SSE register operand (xmm0..xmm7)."""

    number: int

    def __str__(self) -> str:
        return f"xmm{self.number}"


Operand = Union[Reg, Imm, Mem]


@dataclass
class X86Insn:
    """One host instruction (read-only once built)."""

    op: X86Op
    dst: Optional[Operand] = None
    src: Optional[Operand] = None
    cond: Optional[X86Cond] = None
    helper: Optional[Callable] = None      # CALL_HELPER target
    helper_args: Tuple = ()                # registers passed to the helper
    imm: int = 0                           # EXIT_TB status / GOTO_TB slot
    tag: str = "code"
    target_index: int = -1                 # jump target: insn index in TB

    def __str__(self) -> str:
        name = self.op.value
        if self.op is X86Op.JCC or self.op is X86Op.JMP:
            # ``L<index>``: rule learning would read a bare index as an
            # immediate.
            name = "jmp" if self.cond is None else f"j{self.cond.value}"
            return f"{name} L{self.target_index}"
        if self.op is X86Op.SETCC:
            return f"set{self.cond.value} {self.dst}"
        if self.op is X86Op.CALL_HELPER:
            helper_name = getattr(self.helper, "__name__", "helper")
            return f"call {helper_name}"
        if self.op is X86Op.EXIT_TB:
            return f"exit_tb {self.imm:#x}"
        if self.op is X86Op.GOTO_TB:
            return f"goto_tb slot{self.imm}"
        operands = ", ".join(str(operand) for operand in
                             (self.dst, self.src) if operand is not None)
        return f"{name} {operands}".rstrip()
