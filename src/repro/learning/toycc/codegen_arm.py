"""toycc ARM back end.

Emits textual ARM assembly (assembled by :mod:`repro.guest.asm`) plus the
debug line table the learning pipeline consumes: for every emitted
instruction, the source line of the statement it implements — the
stand-in for the DWARF line table the paper's framework reads from
GCC/LLVM output.

Conventions: parameters and locals live in fixed "home" registers
(r4, r5, r6, r8, r9 in declaration order); parameters arrive in r0..r3
and are moved home in the prologue; expressions evaluate in the scratch
registers r0-r3; the result returns in r0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...common.bitops import encode_arm_imm
from ...common.errors import ReproError
from .ast_nodes import (Assign, Binary, ByteIndex, ByteStore, Function, If,
                        Index, Num, Return, Store, Unary, Var, While)

HOME_REGS = ["r4", "r5", "r6", "r8", "r9"]
SCRATCH_REGS = ["r0", "r1", "r2", "r3"]

#: signed comparison -> (branch-if-true, branch-if-false)
_COND_BRANCHES = {
    "==": ("beq", "bne"), "!=": ("bne", "beq"),
    "<": ("blt", "bge"), ">": ("bgt", "ble"),
    "<=": ("ble", "bgt"), ">=": ("bge", "blt"),
}

_BINOPS = {"+": "add", "-": "sub", "&": "and", "|": "orr", "^": "eor",
           "<<": "lsl", ">>": "asr"}


@dataclass
class ArmOutput:
    name: str
    asm: str
    #: source line for each instruction index (in emission order)
    line_table: List[int] = field(default_factory=list)
    var_homes: Dict[str, str] = field(default_factory=dict)


class ArmCodegen:
    def __init__(self, function: Function):
        self.function = function
        self.lines: List[str] = []        # assembly text lines
        self.line_table: List[int] = []
        self.homes: Dict[str, str] = {}
        self.free_scratch = list(SCRATCH_REGS)
        self._labels_made = 0

    # -- emission helpers ----------------------------------------------------

    def emit(self, text: str, line: int) -> None:
        self.lines.append("    " + text)
        self.line_table.append(line)

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def new_label(self, stem: str) -> str:
        self._labels_made += 1
        return f".{self.function.name}_{stem}{self._labels_made}"

    def alloc(self) -> str:
        if not self.free_scratch:
            raise ReproError("toycc: expression too deep for the "
                             "scratch registers")
        return self.free_scratch.pop(0)

    def free(self, reg: str) -> None:
        if reg in SCRATCH_REGS and reg not in self.free_scratch:
            self.free_scratch.insert(0, reg)

    # -- top level -------------------------------------------------------------

    def generate(self) -> ArmOutput:
        function = self.function
        variables = function.params + function.locals
        if len(variables) > len(HOME_REGS):
            raise ReproError(f"toycc: too many variables in "
                             f"{function.name}")
        self.homes = dict(zip(variables, HOME_REGS))
        self.label(function.name)
        for index, param in enumerate(function.params):
            self.emit(f"mov {self.homes[param]}, r{index}", 0)
        for statement in function.body:
            self._statement(statement)
        self.label(f".{function.name}_epilogue")
        self.emit("bx lr", 0)
        return ArmOutput(name=function.name, asm="\n".join(self.lines),
                         line_table=list(self.line_table),
                         var_homes=dict(self.homes))

    # -- statements ---------------------------------------------------------------

    def _statement(self, statement) -> None:
        if isinstance(statement, Assign):
            reg = self._expr(statement.value, statement.line)
            self.emit(f"mov {self.homes[statement.target]}, {reg}",
                      statement.line)
            self.free(reg)
        elif isinstance(statement, Store):
            value = self._expr(statement.value, statement.line)
            base = self.homes[statement.base]
            if isinstance(statement.index, Num):
                self.emit(f"str {value}, [{base}, "
                          f"#{4 * statement.index.value}]", statement.line)
            else:
                index = self._expr(statement.index, statement.line)
                self.emit(f"str {value}, [{base}, {index}, lsl #2]",
                          statement.line)
                self.free(index)
            self.free(value)
        elif isinstance(statement, ByteStore):
            value = self._expr(statement.value, statement.line)
            base = self.homes[statement.base]
            if isinstance(statement.index, Num):
                self.emit(f"strb {value}, [{base}, "
                          f"#{statement.index.value}]", statement.line)
            else:
                index = self._expr(statement.index, statement.line)
                self.emit(f"strb {value}, [{base}, {index}]",
                          statement.line)
                self.free(index)
            self.free(value)
        elif isinstance(statement, Return):
            reg = self._expr(statement.value, statement.line)
            if reg != "r0":
                self.emit(f"mov r0, {reg}", statement.line)
            self.emit(f"b .{self.function.name}_epilogue", statement.line)
            self.free(reg)
        elif isinstance(statement, If):
            else_label = self.new_label("else")
            end_label = self.new_label("endif")
            self._condition(statement.condition, else_label,
                            statement.line)
            for inner in statement.then_body:
                self._statement(inner)
            if statement.else_body:
                self.emit(f"b {end_label}", statement.line)
                self.label(else_label)
                for inner in statement.else_body:
                    self._statement(inner)
                self.label(end_label)
            else:
                self.label(else_label)
        elif isinstance(statement, While):
            head = self.new_label("loop")
            exit_label = self.new_label("endloop")
            self.label(head)
            self._condition(statement.condition, exit_label,
                            statement.line)
            for inner in statement.body:
                self._statement(inner)
            self.emit(f"b {head}", statement.line)
            self.label(exit_label)
        else:
            raise ReproError(f"toycc: unknown statement {statement}")

    def _condition(self, condition, false_label: str, line: int) -> None:
        if not isinstance(condition, Binary) or \
                condition.op not in _COND_BRANCHES:
            raise ReproError("toycc: conditions must be comparisons")
        left = self._expr(condition.left, line)
        right_text, right_free = self._operand(condition.right, line)
        self.emit(f"cmp {left}, {right_text}", line)
        _, branch_false = _COND_BRANCHES[condition.op]
        self.emit(f"{branch_false} {false_label}", line)
        self.free(left)
        if right_free:
            self.free(right_free)

    # -- expressions ------------------------------------------------------------------

    def _operand(self, expression, line: int) -> Tuple[str, str]:
        """Operand text for the flexible second operand; (text, reg-to-free)."""
        if isinstance(expression, Num) and \
                encode_arm_imm(expression.value & 0xFFFFFFFF) is not None:
            return f"#{expression.value}", ""
        if isinstance(expression, Var):
            return self.homes[expression.name], ""
        # Fold "var << k" / "var >> k" into the barrel shifter, and
        # "var * 2^k" into an lsl operand (what GCC/LLVM emit).
        if isinstance(expression, Binary) and \
                isinstance(expression.left, Var) and \
                isinstance(expression.right, Num):
            home = self.homes[expression.left.name]
            value = expression.right.value
            if expression.op == "<<":
                return f"{home}, lsl #{value}", ""
            if expression.op == ">>":
                return f"{home}, asr #{value}", ""
            if expression.op == "*" and value > 1 and \
                    (value & (value - 1)) == 0:
                return f"{home}, lsl #{value.bit_length() - 1}", ""
        reg = self._expr(expression, line)
        return reg, reg

    def _expr(self, expression, line: int) -> str:
        if isinstance(expression, Num):
            reg = self.alloc()
            self.emit(f"mov {reg}, #{expression.value}", line)
            return reg
        if isinstance(expression, Var):
            reg = self.alloc()
            self.emit(f"mov {reg}, {self.homes[expression.name]}", line)
            return reg
        if isinstance(expression, Index):
            base = self.homes[expression.base]
            if isinstance(expression.index, Num):
                reg = self.alloc()
                self.emit(f"ldr {reg}, [{base}, "
                          f"#{4 * expression.index.value}]", line)
                return reg
            index = self._expr(expression.index, line)
            self.emit(f"ldr {index}, [{base}, {index}, lsl #2]", line)
            return index
        if isinstance(expression, ByteIndex):
            base = self.homes[expression.base]
            if isinstance(expression.index, Num):
                reg = self.alloc()
                self.emit(f"ldrb {reg}, [{base}, "
                          f"#{expression.index.value}]", line)
                return reg
            index = self._expr(expression.index, line)
            self.emit(f"ldrb {index}, [{base}, {index}]", line)
            return index
        if isinstance(expression, Unary):
            reg = self._expr(expression.operand, line)
            if expression.op == "-":
                self.emit(f"rsb {reg}, {reg}, #0", line)
            else:
                self.emit(f"mvn {reg}, {reg}", line)
            return reg
        if isinstance(expression, Binary):
            return self._binary(expression, line)
        raise ReproError(f"toycc: unknown expression {expression}")

    def _binary(self, expression: Binary, line: int) -> str:
        op = expression.op
        if op == "*":
            return self._multiply(expression, line)
        left = self._expr(expression.left, line)
        if op in ("<<", ">>"):
            amount = expression.right
            if not isinstance(amount, Num):
                raise ReproError("toycc: shift amounts must be constants")
            kind = "lsl" if op == "<<" else "asr"
            self.emit(f"mov {left}, {left}, {kind} #{amount.value}", line)
            return left
        right_text, right_free = self._operand(expression.right, line)
        self.emit(f"{_BINOPS[op]} {left}, {left}, {right_text}", line)
        if right_free:
            self.free(right_free)
        return left

    def _multiply(self, expression: Binary, line: int) -> str:
        right = expression.right
        if isinstance(right, Num) and right.value > 0 and \
                (right.value & (right.value - 1)) == 0:
            # Strength-reduce multiplications by powers of two.
            left = self._expr(expression.left, line)
            shift = right.value.bit_length() - 1
            self.emit(f"mov {left}, {left}, lsl #{shift}", line)
            return left
        left = self._expr(expression.left, line)
        right_reg = self._expr(right, line)
        self.emit(f"mul {left}, {left}, {right_reg}", line)
        self.free(right_reg)
        return left


def compile_arm(function: Function) -> ArmOutput:
    return ArmCodegen(function).generate()
