"""Symbolic executor for straight-line x86 fragments (toycc output).

An instruction runs its ``host/ops.py`` row: the row's ``x``, ``t`` and
result texts, over :mod:`.exact` Values, and its flag texts, evaluated
when a later instruction reads them.  A ``jcc`` evaluates its
condition's text (``host/cpu.py: COND_EXPRS``) over those flags.
"""

from __future__ import annotations

from typing import Any, Dict

from ...common.errors import RuleVerificationError
from ...host.cpu import COND_EXPRS
from ...host.isa import Imm, Mem, Reg, REG_NAMES, X86Insn, X86Op
from ...host.ops import ROWS, fill
from .exact import SymExec, Value, lift, value_of, word
from .expr import MASK, App, const


class X86SymExec(SymExec):
    """Executes an x86 fragment over symbolic register contents."""

    REG_NAMES = REG_NAMES
    PREFIX = "x86_"

    def _value(self, operand: Any, read_as: str = "") -> Value:
        if isinstance(operand, Imm):
            return lift(operand.value & MASK)
        if isinstance(operand, Reg):
            value = Value(self._reg(operand.number))
            if read_as == "r8":
                return Value(App("and", (value.node, const(0xFF))), 0, 0xFF)
            return value
        if isinstance(operand, Mem):
            address = self._address(operand)
            if read_as == "addr":
                return Value(address)
            return Value(App("load", (address, const(operand.size))))
        raise RuleVerificationError(f"bad operand {operand}")

    def _address(self, mem: Mem) -> Any:
        parts = []
        if mem.base is not None:
            parts.append(self._reg(mem.base))
        if mem.index is not None:
            index = self._reg(mem.index)
            if mem.scale != 1:
                index = App("mulv", (const(mem.scale), index))
            parts.append(index)
        if mem.disp:
            parts.append(const(mem.disp))
        if not parts:
            return const(0)
        if len(parts) == 1:
            return parts[0]
        return App("add", tuple(parts))

    def _write(self, dst: Any, node: Any) -> None:
        if isinstance(dst, Reg):
            self._set_reg(dst.number, node)
            return
        if dst.size < 4:
            node = App("and", (node, const(MASK >> (32 - 8 * dst.size))))
        self.stores.append((self._address(dst), dst.size, node))

    def _insn(self, insn: X86Insn) -> None:
        op = insn.op
        if op is X86Op.JCC:
            self.branch = word(value_of(COND_EXPRS[insn.cond],
                                        {"C": self.flags}))
            return
        if op in (X86Op.JMP, X86Op.EXIT_TB):
            self.jumps = True
            return
        row = ROWS.get(op)
        if row is None or row.form != "alu" or row.step is not None:
            raise RuleVerificationError(
                f"unsupported host instruction {insn}")
        holes: Dict[str, int] = {}
        if "n" in row.holes:
            if not isinstance(insn.src, Imm):
                raise RuleVerificationError(f"shift count of {insn}")
            holes["n"] = insn.src.value & 31
            if not holes["n"]:          # a zero count changes nothing
                return
        names: Dict[str, object] = {"C": self.flags}
        if "x" in row.names:
            names["x"] = self._value(insn.dst)
        if "y" in row.names:
            names["y"] = self._value(insn.src, row.src_as)

        def value(text: str) -> Value:
            return value_of(fill(text, {}, holes), names)

        if row.x not in (None, "x"):
            names["x"] = value(row.x)
        if row.t is not None:
            names["t"] = value(row.t)
        if row.result is not None:
            names["r"] = value(row.result)
        self.flags = self.flags.define(
            {letter + "f": (lambda text=text: value(text))
             for letter, text in row.flag_texts.items()})
        if row.writes_dst:
            self._write(insn.dst, word(names["r"]))
