"""Symbolic executor for straight-line ARM fragments (toycc output).

A data-processing instruction runs its ``guest/ops.py`` row over
:mod:`.exact` Values; N, Z, C and V are its flag texts, evaluated when
a later instruction reads them.  A conditional branch evaluates its
condition's text over those flags.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ...common.errors import RuleVerificationError
from ...guest.isa import ArmInsn, Cond, Op, Operand2, ShiftKind
from ...guest.ops import COND_TEXTS, DP_ROWS, N_TEXT, Z_TEXT, DpRow, names
from .exact import SymExec, Value, value_of, word
from .expr import App, const

Thunk = Callable[[], Value]

_SHIFTS = {ShiftKind.LSL: "shl", ShiftKind.LSR: "shr", ShiftKind.ASR: "sar",
           ShiftKind.ROR: "ror"}


def _refuse(reason: str) -> Value:
    raise RuleVerificationError(reason)


class ArmSymExec(SymExec):
    """Executes an ARM fragment over symbolic register contents."""

    REG_NAMES = [f"r{number}" for number in range(16)]
    PREFIX = "arm_"

    def _operand2(self, op2: Operand2) -> Tuple[Value, Optional[Thunk]]:
        """``(value, carry)``: the shifter operand, and the shifter's
        carry-out as a flag definition, None when it keeps C."""
        if op2.is_imm:
            if op2.imm > 0xFF:
                return Value(const(op2.imm)), lambda: Value(
                    const(op2.imm >> 31), 0, 1)
            return Value(const(op2.imm)), None
        value = self._reg(op2.rm)
        if op2.rs is not None:
            raise RuleVerificationError("register-shifted operands are "
                                        "not rule-learnable fragments")
        if op2.shift == ShiftKind.LSL and op2.shift_imm == 0:
            return Value(value), None
        if op2.shift not in _SHIFTS or not 0 < op2.shift_imm < 32:
            raise RuleVerificationError(f"shift {op2}")
        shifted = App(_SHIFTS[op2.shift], (value, const(op2.shift_imm)))
        return Value(shifted), lambda: _refuse(f"carry out of {op2}")

    def _insn(self, insn: ArmInsn) -> None:  # noqa: C901
        op = insn.op
        if insn.cond != Cond.AL and op is not Op.B:
            raise RuleVerificationError(
                "conditional bodies are not extracted as fragments")
        row = DP_ROWS.get(op)
        if row is not None:
            self._data_processing(insn, row)
            return
        if op is Op.MUL:
            self._set_reg(insn.rd, App("mulv", (self._reg(insn.rm),
                                                self._reg(insn.rs))))
            return
        if op in (Op.LDR, Op.LDRB):
            address = self._address(insn)
            size = 4 if op is Op.LDR else 1
            self._set_reg(insn.rd, App("load", (address, const(size))))
            return
        if op in (Op.STR, Op.STRB):
            address = self._address(insn)
            value = self._reg(insn.rd)
            if op is Op.STRB:
                value = App("and", (value, const(0xFF)))
            self.stores.append((address, 4 if op is Op.STR else 1, value))
            return
        if op is Op.B:
            if insn.cond == Cond.AL:
                self.jumps = True
                return
            text = COND_TEXTS[insn.cond]
            self.branch = word(value_of(text, {
                flag: self.flags.read(flag) for flag in names(text)}))
            return
        if op is Op.BX:
            self.jumps = True
            return
        raise RuleVerificationError(f"unsupported instruction {insn}")

    def _data_processing(self, insn: ArmInsn, row: DpRow) -> None:
        operand2, shifter_carry = self._operand2(insn.op2)
        bound: Dict[str, object] = {"b": operand2}
        if row.reads_a:
            bound["a"] = Value(self._reg(insn.rn))
        if row.reads_c:
            bound["c"] = self.flags.read("c")
        if row.t is not None:
            bound["t"] = value_of(row.t, bound)
        bound["r"] = result = value_of(row.result, bound)
        if insn.set_flags or not row.writes_rd:
            texts = {"n": N_TEXT, "z": Z_TEXT}
            if not row.logical:
                texts.update(c=row.carry, v=row.overflow)
            defs = {flag: (lambda text=text: value_of(text, bound))
                    for flag, text in texts.items()}
            if row.logical and shifter_carry is not None:
                defs["c"] = shifter_carry
            self.flags = self.flags.define(defs)
        if row.writes_rd:
            self._set_reg(insn.rd, word(result))

    def _address(self, insn: ArmInsn) -> Any:
        base = self._reg(insn.rn)
        if insn.mem_offset_reg is not None:
            offset = self._reg(insn.mem_offset_reg)
            if insn.mem_shift_imm:
                offset = App("shl", (offset, const(insn.mem_shift_imm)))
            return App("add", (base, offset))
        if insn.mem_offset_imm:
            return App("add", (base, const(insn.mem_offset_imm)))
        return base
