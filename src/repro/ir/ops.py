"""TCG-like intermediate representation.

MiniQEMU's baseline engine translates guest instructions to this IR and
the backend lowers IR to host x86 — the classic two-step
"many-to-many" translation the paper contrasts with rule-based one-step
translation.

Values are *temps* (``t0``, ``t1``, ...), created per-TB.  Guest CPU state
lives in the in-memory ``env`` structure and is accessed with
``LD_ENV``/``ST_ENV``; guest memory is accessed with ``QEMU_LD``/
``QEMU_ST`` which the backend expands into the inline softmmu fast path
plus a slow-path helper call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union


class IROp(enum.Enum):
    # Hash by identity, in C, not by Enum.__hash__'s Python-level
    # hash(name): members key the per-instruction dicts and memos
    # (docs/internals.md, "Per-instruction Python costs").
    __hash__ = object.__hash__

    MOVI = "movi"          # dst <- imm
    MOV = "mov"            # dst <- src
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    ROR = "ror"
    MUL = "mul"
    NOT = "not"
    NEG = "neg"
    SETCOND = "setcond"    # dst <- (a cond b) ? 1 : 0
    LD_ENV = "ld_env"      # dst <- env[offset]
    ST_ENV = "st_env"      # env[offset] <- src
    QEMU_LD = "qemu_ld"    # dst <- guest_mem[addr]  (softmmu)
    QEMU_ST = "qemu_st"    # guest_mem[addr] <- src  (softmmu)
    BRCOND = "brcond"      # if (a cond b) goto label
    BR = "br"
    LABEL = "label"
    CALL = "call"          # runtime helper call
    GOTO_TB = "goto_tb"    # chainable direct jump slot
    EXIT_TB = "exit_tb"


class IRCond(enum.Enum):
    """Comparison conditions (signed/unsigned split as in TCG)."""

    # Hash by identity, in C, not by Enum.__hash__'s Python-level
    # hash(name): members key the per-instruction dicts and memos
    # (docs/internals.md, "Per-instruction Python costs").
    __hash__ = object.__hash__

    EQ = "eq"
    NE = "ne"
    LTU = "ltu"
    GEU = "geu"
    LEU = "leu"
    GTU = "gtu"
    LT = "lt"
    GE = "ge"
    LE = "le"
    GT = "gt"


@dataclass(frozen=True)
class Temp:
    """An SSA-ish IR value."""

    index: int

    def __str__(self) -> str:
        return f"t{self.index}"


#: Binary-op source operands may be temps or Python int immediates.
Src = Union[Temp, int]


@dataclass
class IRInsn:
    op: IROp
    dst: Optional[Temp] = None
    args: Tuple = ()
    cond: Optional[IRCond] = None
    offset: int = 0                  # env offset for LD_ENV/ST_ENV
    size: int = 4                    # access size for QEMU_LD/ST
    signed: bool = False             # sign-extend sub-word loads
    label: Optional[str] = None
    helper: Optional[Callable] = None
    imm: int = 0                     # goto_tb slot / exit_tb status

    def sources(self) -> List[Temp]:
        return [arg for arg in self.args if isinstance(arg, Temp)]

    def __str__(self) -> str:
        if self.op is IROp.LABEL:
            return f"{self.label}:"
        parts = [self.op.value]
        if self.cond:
            parts.append(self.cond.value)
        if self.dst is not None:
            parts.append(str(self.dst))
        parts.extend(str(arg) for arg in self.args)
        if self.op in (IROp.LD_ENV, IROp.ST_ENV):
            parts.append(f"env[{self.offset:#x}]")
        if self.label and self.op is not IROp.LABEL:
            parts.append(self.label)
        if self.helper is not None:
            parts.append(getattr(self.helper, "__name__", "helper"))
        return " ".join(parts)


class IRBuilder:
    """Builds an IR instruction list for one translation block."""

    def __init__(self):
        self.insns: List[IRInsn] = []
        self._next_temp = 0
        self._next_label = 0
        #: guest pc of the instruction being translated; stamped onto
        #: QEMU_LD/QEMU_ST for precise fault reporting.
        self.current_pc = 0

    def temp(self) -> Temp:
        temp = Temp(self._next_temp)
        self._next_temp += 1
        return temp

    def new_label(self, stem: str = "l") -> str:
        label = f".{stem}{self._next_label}"
        self._next_label += 1
        return label

    def _push(self, insn: IRInsn) -> Optional[Temp]:
        self.insns.append(insn)
        return insn.dst

    # -- emitters ----------------------------------------------------------

    def movi(self, value: int) -> Temp:
        return self._push(IRInsn(IROp.MOVI, dst=self.temp(),
                                 args=(value & 0xFFFFFFFF,)))

    def mov(self, src: Temp) -> Temp:
        return self._push(IRInsn(IROp.MOV, dst=self.temp(), args=(src,)))

    def binop(self, op: IROp, a: Src, b: Src) -> Temp:
        return self._push(IRInsn(op, dst=self.temp(), args=(a, b)))

    def add(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.ADD, a, b)

    def sub(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.SUB, a, b)

    def and_(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.AND, a, b)

    def or_(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.OR, a, b)

    def xor(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.XOR, a, b)

    def shl(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.SHL, a, b)

    def shr(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.SHR, a, b)

    def sar(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.SAR, a, b)

    def ror(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.ROR, a, b)

    def mul(self, a: Src, b: Src) -> Temp:
        return self.binop(IROp.MUL, a, b)

    def not_(self, a: Temp) -> Temp:
        return self._push(IRInsn(IROp.NOT, dst=self.temp(), args=(a,)))

    def neg(self, a: Temp) -> Temp:
        return self._push(IRInsn(IROp.NEG, dst=self.temp(), args=(a,)))

    def setcond(self, cond: IRCond, a: Src, b: Src) -> Temp:
        return self._push(IRInsn(IROp.SETCOND, dst=self.temp(), args=(a, b),
                                 cond=cond))

    def ld_env(self, offset: int) -> Temp:
        return self._push(IRInsn(IROp.LD_ENV, dst=self.temp(),
                                 offset=offset))

    def st_env(self, src: Src, offset: int) -> None:
        self._push(IRInsn(IROp.ST_ENV, args=(src,), offset=offset))

    def qemu_ld(self, addr: Temp, size: int = 4,
                signed: bool = False) -> Temp:
        return self._push(IRInsn(IROp.QEMU_LD, dst=self.temp(), args=(addr,),
                                 size=size, signed=signed,
                                 imm=self.current_pc))

    def qemu_st(self, value: Src, addr: Temp, size: int = 4) -> None:
        self._push(IRInsn(IROp.QEMU_ST, args=(value, addr), size=size,
                          imm=self.current_pc))

    def brcond(self, cond: IRCond, a: Src, b: Src, label: str) -> None:
        self._push(IRInsn(IROp.BRCOND, args=(a, b), cond=cond, label=label))

    def br(self, label: str) -> None:
        self._push(IRInsn(IROp.BR, label=label))

    def label(self, name: str) -> None:
        self._push(IRInsn(IROp.LABEL, label=name))

    def call(self, helper: Callable, args: Tuple = (),
             want_result: bool = False) -> Optional[Temp]:
        dst = self.temp() if want_result else None
        self._push(IRInsn(IROp.CALL, dst=dst, args=tuple(args),
                          helper=helper))
        return dst

    def goto_tb(self, slot: int) -> None:
        self._push(IRInsn(IROp.GOTO_TB, imm=slot))

    def exit_tb(self, status: int) -> None:
        self._push(IRInsn(IROp.EXIT_TB, imm=status))
