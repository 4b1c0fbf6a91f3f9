"""Host-code builder: emit X86Insn sequences with labels, then resolve.

Both code generators (the TCG backend and the rule-based translator) build
TB bodies through this class.  ``tag`` arguments attribute instructions to
the paper's accounting categories; the default tag of the builder can be
temporarily overridden with :meth:`tagged`.

Labels are numbered per builder and never leave it: :meth:`finish`
replaces each jump placeholder with the jump to its label's
``target_index``.  Every instruction that calls no helper, jumps
included, is the one object of its fields in the builder's memo (an
engine hands its run's memo to all of its builders), so emitted
instructions are read-only (docs/internals.md, "Interned operands and
shared instructions").
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.errors import TranslationError
from .isa import (Imm, Mem, X86Cond, X86Insn, X86Op)

#: Shared helper-free instructions: ``(op, dst, src, cond, imm, tag,
#: target_index)`` -> the one instruction of those fields.
InsnMemo = Dict[Tuple[Any, ...], X86Insn]

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_X86_ADC = X86Op.ADC
_X86_ADD = X86Op.ADD
_X86_AND = X86Op.AND
_X86_BSR = X86Op.BSR
_X86_CALL_HELPER = X86Op.CALL_HELPER
_X86_CMC = X86Op.CMC
_X86_CMP = X86Op.CMP
_X86_EXIT_TB = X86Op.EXIT_TB
_X86_GOTO_TB = X86Op.GOTO_TB
_X86_IMUL = X86Op.IMUL
_X86_JCC = X86Op.JCC
_X86_JMP = X86Op.JMP
_X86_LAHF = X86Op.LAHF
_X86_LEA = X86Op.LEA
_X86_MOV = X86Op.MOV
_X86_MOVSX = X86Op.MOVSX
_X86_MOVZX = X86Op.MOVZX
_X86_NEG = X86Op.NEG
_X86_NOPSLOT = X86Op.NOPSLOT
_X86_NOT = X86Op.NOT
_X86_OR = X86Op.OR
_X86_POP = X86Op.POP
_X86_POPFD = X86Op.POPFD
_X86_PUSH = X86Op.PUSH
_X86_PUSHFD = X86Op.PUSHFD
_X86_RCR = X86Op.RCR
_X86_ROR = X86Op.ROR
_X86_SAHF = X86Op.SAHF
_X86_SAR = X86Op.SAR
_X86_SETCC = X86Op.SETCC
_X86_SHL = X86Op.SHL
_X86_SHR = X86Op.SHR
_X86_SUB = X86Op.SUB
_X86_TEST = X86Op.TEST
_X86_XOR = X86Op.XOR


class CodeBuilder:
    """Accumulates host instructions and resolves intra-block labels."""

    def __init__(self, default_tag: str = "code",
                 shared: Optional[InsnMemo] = None):
        self.insns: List[X86Insn] = []
        self._labels: Dict[str, int] = {}
        #: ``(index, label)`` of each jump placeholder, for finish().
        self._jumps: List[Tuple[int, str]] = []
        self._label_numbers = itertools.count()
        self._tag = default_tag
        self._memo: InsnMemo = {} if shared is None else shared

    # -- tagging -------------------------------------------------------------

    @contextlib.contextmanager
    def tagged(self, tag: str):
        """Attribute instructions emitted inside the block to *tag*."""
        previous, self._tag = self._tag, tag
        try:
            yield self
        finally:
            self._tag = previous

    # -- label handling --------------------------------------------------------

    def new_label(self, stem: str = "L") -> str:
        return f"{stem}_{next(self._label_numbers)}"

    def bind(self, label: str) -> None:
        if label in self._labels:
            raise TranslationError(f"label {label} bound twice")
        self._labels[label] = len(self.insns)

    def finish(self) -> List[X86Insn]:
        """Resolve jump targets; returns the finished instruction list."""
        insns = self.insns
        for index, label in self._jumps:
            target = self._labels.get(label)
            if target is None:
                raise TranslationError(f"undefined label {label}")
            jump = insns[index]
            insns[index] = self._insn(jump.op, None, None, jump.cond, None,
                                      (), jump.imm, jump.tag, target)
        return insns

    # -- raw emit ---------------------------------------------------------------

    def _insn(self, op, dst, src, cond, helper, helper_args, imm, tag,
              target_index) -> X86Insn:
        """The memo's instruction of these fields; a helper call (it
        carries its TB's own callable) is built fresh."""
        if helper is not None:
            return X86Insn(op, dst, src, cond, helper, helper_args, imm,
                           tag, target_index)
        key = (op, dst, src, cond, imm, tag, target_index)
        insn = self._memo.get(key)
        if insn is None:
            insn = self._memo[key] = X86Insn(op, dst, src, cond, None, (),
                                             imm, tag, target_index)
        return insn

    def emit(self, op: X86Op, dst=None, src=None, *, cond=None, label=None,
             helper=None, helper_args=(), imm=0, tag=None) -> None:
        """Append one instruction (a jump placeholder, with *label*)."""
        if label is not None:
            self._jumps.append((len(self.insns), label))
        self.insns.append(self._insn(op, dst, src, cond, helper,
                                     tuple(helper_args), imm,
                                     tag or self._tag, -1))

    def splice(self, insns: List[X86Insn], tag: str) -> None:
        """Append *insns*, another builder's finished code, as *tag*.

        Each instruction is re-emitted, its resolved jump target re-based
        to this builder; the spliced instructions are never written."""
        offset = len(self.insns)
        for insn in insns:
            target = insn.target_index
            self.insns.append(self._insn(
                insn.op, insn.dst, insn.src, insn.cond, insn.helper,
                insn.helper_args, insn.imm, tag,
                target + offset if target >= 0 else -1))

    # -- convenience emitters (one host instruction each) -------------------------

    def mov(self, dst, src, **kw):
        self.emit(_X86_MOV, dst, src, **kw)

    def movi(self, dst, value: int, **kw):
        self.emit(_X86_MOV, dst, Imm(value), **kw)

    def movzx(self, dst, src, **kw):
        self.emit(_X86_MOVZX, dst, src, **kw)

    def movsx(self, dst, src, **kw):
        self.emit(_X86_MOVSX, dst, src, **kw)

    def lea(self, dst, mem: Mem, **kw):
        self.emit(_X86_LEA, dst, mem, **kw)

    def add(self, dst, src, **kw):
        self.emit(_X86_ADD, dst, src, **kw)

    def adc(self, dst, src, **kw):
        self.emit(_X86_ADC, dst, src, **kw)

    def sub(self, dst, src, **kw):
        self.emit(_X86_SUB, dst, src, **kw)

    def and_(self, dst, src, **kw):
        self.emit(_X86_AND, dst, src, **kw)

    def or_(self, dst, src, **kw):
        self.emit(_X86_OR, dst, src, **kw)

    def xor(self, dst, src, **kw):
        self.emit(_X86_XOR, dst, src, **kw)

    def cmp(self, dst, src, **kw):
        self.emit(_X86_CMP, dst, src, **kw)

    def test(self, dst, src, **kw):
        self.emit(_X86_TEST, dst, src, **kw)

    def neg(self, dst, **kw):
        self.emit(_X86_NEG, dst, **kw)

    def not_(self, dst, **kw):
        self.emit(_X86_NOT, dst, **kw)

    def imul(self, dst, src, **kw):
        self.emit(_X86_IMUL, dst, src, **kw)

    def shl(self, dst, src, **kw):
        self.emit(_X86_SHL, dst, src, **kw)

    def shr(self, dst, src, **kw):
        self.emit(_X86_SHR, dst, src, **kw)

    def sar(self, dst, src, **kw):
        self.emit(_X86_SAR, dst, src, **kw)

    def ror(self, dst, src, **kw):
        self.emit(_X86_ROR, dst, src, **kw)

    def rcr1(self, dst, **kw):
        self.emit(_X86_RCR, dst, Imm(1), **kw)

    def bsr(self, dst, src, **kw):
        self.emit(_X86_BSR, dst, src, **kw)

    def push(self, src, **kw):
        self.emit(_X86_PUSH, src=src, **kw)

    def pop(self, dst, **kw):
        self.emit(_X86_POP, dst, **kw)

    def pushfd(self, **kw):
        self.emit(_X86_PUSHFD, **kw)

    def popfd(self, **kw):
        self.emit(_X86_POPFD, **kw)

    def lahf(self, **kw):
        self.emit(_X86_LAHF, **kw)

    def sahf(self, **kw):
        self.emit(_X86_SAHF, **kw)

    def setcc(self, cond: X86Cond, dst, **kw):
        self.emit(_X86_SETCC, dst, cond=cond, **kw)

    def cmc(self, **kw):
        self.emit(_X86_CMC, **kw)

    def jmp(self, label: str, **kw):
        self.emit(_X86_JMP, label=label, **kw)

    def jcc(self, cond: X86Cond, label: str, **kw):
        self.emit(_X86_JCC, cond=cond, label=label, **kw)

    def call_helper(self, helper: Callable, args=(), **kw):
        self.emit(_X86_CALL_HELPER, helper=helper, helper_args=args, **kw)

    def exit_tb(self, status: int, **kw):
        self.emit(_X86_EXIT_TB, imm=status, **kw)

    def goto_tb(self, slot: int, **kw):
        self.emit(_X86_GOTO_TB, imm=slot, **kw)

    def nop(self, **kw):
        self.emit(_X86_NOPSLOT, **kw)
