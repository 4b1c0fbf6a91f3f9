"""Host x86 op semantics: one row per non-control op, and its step function.

A row (:class:`OpRow`) is the one statement of what an op does.  It
names the operand kinds the block generator inlines, the flags the op
reads and writes and whether it writes its destination, and it gives
what the op computes as Python text:

- ``x`` and ``y`` are the destination's and the source's values (u32),
  ``C`` is the :class:`~repro.host.cpu.HostCpu`, whose ``cf``, ``zf``,
  ``sf`` and ``of`` are the flags (0 or 1), ``r`` is the result, ``t``
  an intermediate the row defines, and ``v`` a word popped off the stack.
- ``{...}`` is a *hole*: an expression over a value the instruction
  fixes, the shift count ``n`` or the condition text ``cond``.  The
  generator writes the hole's value into the text; a step function
  computes it when it runs.
- ZF and SF follow ``r`` unless the row gives their texts.

Three things derive from the rows:

- :data:`STEPS`, the interpreter's step function per op, compiled from
  the texts once at import;
- the block generator's bodies (``host/interp.py: _BodySource``), which
  render the same texts with the operands resolved;
- the soundness checker's flag-clobber and destination-write sets
  (``analysis/dataflow.py``).

An op the texts do not state (BSR, MOVSX, the SSE ops) keeps a Python
step function in its row.  The generator steps every op whose operand
kinds it does not inline, through the op's step function.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from types import CodeType
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Tuple)

from ..common.f32 import f32_add, f32_mul, f32_sub
from .cpu import COND_TESTS
from .isa import (ECX, ESP, FLAG_OF, FLAG_SF, FLAG_ZF, Imm, Mem, Reg, X86Op,
                  Xmm)

MASK = 0xFFFFFFFF

#: A step function runs one instruction on a HostInterpreter.
Step = Callable[[Any, Any], None]
Kinds = Optional[Tuple[type, ...]]

RM: Kinds = (Reg, Mem)
RIM: Kinds = (Reg, Imm, Mem)
STEPPED: Kinds = ()              # the generator inlines no operand kind

_HOLE = re.compile(r"\{([^{}]+)\}")
_TOKEN = re.compile(r"\{([^{}]+)\}|\b([xytv])\b")
_HOLE_NAMES = re.compile(r"\b(?:n|cond)\b")
_DEFAULT_FLAGS = {"z": "0 if r else 1", "s": "r >> 31"}


@dataclass
class OpRow:
    """What one host op reads, writes and computes."""

    op: X86Op
    #: Operand kinds the generator inlines; None: the op ignores the
    #: operand; STEPPED: the generator always steps the op.
    dst: Kinds = None
    src: Kinds = None
    reads: str = ""                  # flags read, as letters of "czso"
    writes: str = ""                 # flags written
    writes_dst: bool = False         # rewrites dst (wholly or in part)
    result: Optional[str] = None     # r
    t: Optional[str] = None
    #: What x is bound to on a line of its own, over the operand's value
    #: ``x``; the generator binds it even when no flag it writes is live.
    x: Optional[str] = None
    #: Flag texts that differ from the defaults, by letter.
    flags: Mapping[str, str] = field(default_factory=dict)
    #: How a source operand reads: "" its value, "addr" its address,
    #: "r8" a register's low byte.
    src_as: str = ""
    #: Operand plumbing: "alu" reads x and y and writes r to dst; "push"
    #: and "pop" move ESP round a stack access; "setcc" writes a byte.
    form: str = "alu"
    #: The step function of an op the texts do not state.
    step: Optional[Step] = None
    # Derived from the texts.
    names: FrozenSet[str] = field(init=False)   # of x, y, t, v
    holes: FrozenSet[str] = field(init=False)
    binds: bool = field(init=False)     # a flag text names x, y or t
    #: The text of each flag the op writes, defaults included.
    flag_texts: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        texts = [self.result, self.t, self.x, *self.flags.values()]
        found = [_TOKEN.findall(text) for text in texts if text]
        self.names = frozenset(n for f in found for _, n in f if n)
        self.holes = frozenset(name for f in found for hole, _ in f
                               for name in _HOLE_NAMES.findall(hole))
        self.binds = any(re.search(r"\b[xyt]\b", text)
                         for text in self.flags.values())
        self.flag_texts = {letter: self.flags.get(letter) or
                           _DEFAULT_FLAGS[letter] for letter in self.writes}


class _Names(Dict[str, Any]):
    """A format mapping that leaves a name it does not give as it is."""

    def __missing__(self, key: str) -> str:
        return key


@functools.lru_cache(maxsize=None)      # keyed by the rows' texts
def _template(text: str) -> Tuple[str, Tuple[CodeType, ...]]:
    """*text* as a format string over x, y, t, v and its holes ``h<i>``,
    and the code of each hole."""
    holes: List[CodeType] = []

    def sub(match: "re.Match[str]") -> str:
        if match[1] is None:
            return "{" + match[2] + "}"
        holes.append(compile(match[1], "<hole>", "eval"))
        return "{h%d}" % (len(holes) - 1)
    return _TOKEN.sub(sub, text), tuple(holes)


def fill(text: str, values: Mapping[str, Optional[str]],
         holes: Mapping[str, Any]) -> str:
    """*text* with each of x, y, t and v that *values* names replaced
    by its text there, and each hole by its value over *holes*."""
    template, codes = _template(text)
    names = _Names(values)
    for index, code in enumerate(codes):
        names[f"h{index}"] = eval(code, {"__builtins__": {}}, holes)
    return template.format_map(names)


# -- ops the texts do not state ---------------------------------------------


def _bsr(I: Any, insn: Any) -> None:
    value = I._read(insn.src)
    I.cpu.zf = 1 if value == 0 else 0
    if value:                        # a zero source keeps the destination
        I._write(insn.dst, value.bit_length() - 1)


def _movsx(I: Any, insn: Any) -> None:
    src = insn.src
    if type(src) is Reg:
        value, width = I.cpu.regs[src.number] & 0xFF, 8
    else:
        value, width = I._read(src), 8 * src.size
    sign = 1 << (width - 1)
    I._write(insn.dst, (value & (sign - 1)) - (value & sign))


def _xmm_source(I: Any, src: Any) -> Any:
    if type(src) is Xmm:
        return I.cpu.xmm[src.number]
    return I.memory.read(I._addr(src), 4)


def _movss(I: Any, insn: Any) -> None:
    if type(insn.dst) is Xmm:
        I.cpu.xmm[insn.dst.number] = _xmm_source(I, insn.src)
    else:
        I.memory.write(I._addr(insn.dst), I.cpu.xmm[insn.src.number])


def _sse(f32_op: Callable[[int, int], int]) -> Step:
    def step(I: Any, insn: Any) -> None:
        xmm = I.cpu.xmm
        xmm[insn.dst.number] = f32_op(xmm[insn.dst.number],
                                      _xmm_source(I, insn.src))
    return step


# -- the table ---------------------------------------------------------------

_ADD_OF = "(~(x ^ y) & (x ^ r)) >> 31"
_SUB_OF = "((x ^ y) & (x ^ r)) >> 31"
_SIGNED = "(x ^ 2147483648) - 2147483648"

#: One row per non-control op.  Positional fields: op, dst kinds, src
#: kinds, reads, writes, writes_dst, result, t.
TABLE: Tuple[OpRow, ...] = (
    OpRow(X86Op.MOV, RM, RIM, writes_dst=True, result="y"),
    OpRow(X86Op.MOVZX, RM, RIM, writes_dst=True, result="y", src_as="r8"),
    OpRow(X86Op.MOVSX, STEPPED, STEPPED, writes_dst=True, step=_movsx),
    OpRow(X86Op.LEA, (Reg,), (Mem,), writes_dst=True, result="y",
          src_as="addr"),
    OpRow(X86Op.ADD, RM, RIM, "", "czso", True, f"(t) & {MASK}", "x + y",
          flags={"c": "t >> 32", "o": _ADD_OF}),
    OpRow(X86Op.ADC, RM, RIM, "c", "czso", True, f"(t) & {MASK}",
          "x + y + C.cf", flags={"c": "t >> 32", "o": _ADD_OF}),
    OpRow(X86Op.SUB, RM, RIM, "", "czso", True, f"(x - (y)) & {MASK}",
          flags={"c": "1 if y > x else 0", "o": _SUB_OF}),
    OpRow(X86Op.SBB, RM, RIM, "c", "czso", True, f"(x - (t)) & {MASK}",
          "y + C.cf", flags={"c": "1 if t > x else 0", "o": _SUB_OF}),
    OpRow(X86Op.CMP, RIM, RIM, "", "czso", False, f"(x - (y)) & {MASK}",
          flags={"c": "1 if y > x else 0", "o": _SUB_OF}),
    # Logic ops and IMUL write ZF and SF only and keep CF and OF, where
    # x86 clears (logic) or sets (imul) them.  The deviation lets one host
    # op implement an ARM logical-S or muls exactly, since ARM leaves C
    # and V unchanged there, without moving any coordination measurement
    # (DESIGN.md, "Key design decisions").
    OpRow(X86Op.AND, RM, RIM, "", "zs", True, "x & y"),
    OpRow(X86Op.OR, RM, RIM, "", "zs", True, "x | y"),
    OpRow(X86Op.XOR, RM, RIM, "", "zs", True, "x ^ y"),
    OpRow(X86Op.TEST, RIM, RIM, "", "zs", False, "x & y"),
    # u32(s32(x) * s32(y)) == u32(x * y).
    OpRow(X86Op.IMUL, RM, RIM, "", "zs", True, f"x * y & {MASK}"),
    OpRow(X86Op.NEG, RM, None, "", "czso", True, f"-x & {MASK}", x="x",
          flags={"c": "1 if x else 0", "o": "(x & r) >> 31"}),
    OpRow(X86Op.NOT, RM, None, writes_dst=True, result=f"x ^ {MASK}"),
    # INC and DEC keep CF.
    OpRow(X86Op.INC, RM, None, "", "zso", True, f"(x + 1) & {MASK}",
          flags={"o": "1 if r == 2147483648 else 0"}),
    OpRow(X86Op.DEC, RM, None, "", "zso", True, f"(x - 1) & {MASK}",
          flags={"o": "1 if r == 2147483647 else 0"}),
    # Shifts take the count mod 32 (an immediate, else CL); a zero count
    # changes nothing.  The generator inlines immediate counts only.
    OpRow(X86Op.SHL, RM, (Imm,), "", "czs", True, f"(x << {{n}}) & {MASK}",
          x="x", flags={"c": "(x >> {32 - n}) & 1"}),
    OpRow(X86Op.SHR, RM, (Imm,), "", "czs", True, f"(x >> {{n}}) & {MASK}",
          x="x", flags={"c": "(x >> {n - 1}) & 1"}),
    OpRow(X86Op.SAR, RM, (Imm,), "", "czs", True, f"(x >> {{n}}) & {MASK}",
          x=_SIGNED, flags={"c": "(x >> {n - 1}) & 1"}),
    # Model: ROR sets SF and ZF from its result (x86 rotates keep them).
    OpRow(X86Op.ROR, STEPPED, STEPPED, "", "czs", True,
          f"(x >> {{n}} | x << {{32 - n}}) & {MASK}", flags={"c": "r >> 31"}),
    # Rotate right through CF by one (ARM RRX).  Model: OF is kept (x86
    # sets it for a one-bit rcr).
    OpRow(X86Op.RCR, STEPPED, STEPPED, "c", "c", True, "x >> 1 | C.cf << 31",
          flags={"c": "x & 1"}),
    OpRow(X86Op.BSR, STEPPED, STEPPED, "", "z", True, step=_bsr),
    # PUSH moves ESP first, so a [esp + d] source sees the new value; POP
    # writes its destination before ESP moves.  The packed EFLAGS word
    # has CF at bit 0 (FLAG_CF), ZF, SF and OF at their FLAG_ bits and
    # bit 1 set.
    OpRow(X86Op.PUSH, None, RIM, result="y", form="push"),
    OpRow(X86Op.POP, RM, None, writes_dst=True, result="v", form="pop"),
    OpRow(X86Op.PUSHFD, None, None, "czso", form="push",
          result=f"C.cf | C.zf << {FLAG_ZF} | C.sf << {FLAG_SF} | "
                 f"C.of << {FLAG_OF} | 2"),
    OpRow(X86Op.POPFD, None, None, "", "czso", form="pop",
          flags={"c": "v & 1", "z": f"v >> {FLAG_ZF} & 1",
                 "s": f"v >> {FLAG_SF} & 1", "o": f"v >> {FLAG_OF} & 1"}),
    # SETCC writes the condition's 0 or 1 to a register's low byte, or to
    # a memory operand of the operand's size.  It reads the condition's
    # flags.
    OpRow(X86Op.SETCC, RM, None, writes_dst=True,
          result="(1 if {cond} else 0)", form="setcc"),
    OpRow(X86Op.CMC, None, None, "c", "c", flags={"c": "C.cf ^ 1"}),
    OpRow(X86Op.STC, None, None, "", "c", flags={"c": "1"}),
    OpRow(X86Op.CLC, None, None, "", "c", flags={"c": "0"}),
    OpRow(X86Op.NOPSLOT, None, None),
    # SSE scalar single precision on bit patterns; EFLAGS is untouched.
    OpRow(X86Op.MOVSS, STEPPED, STEPPED, writes_dst=True, step=_movss),
    OpRow(X86Op.ADDSS, STEPPED, STEPPED, writes_dst=True, step=_sse(f32_add)),
    OpRow(X86Op.SUBSS, STEPPED, STEPPED, writes_dst=True, step=_sse(f32_sub)),
    OpRow(X86Op.MULSS, STEPPED, STEPPED, writes_dst=True, step=_sse(f32_mul)),
)
ROWS: Dict[X86Op, OpRow] = {row.op: row for row in TABLE}


# -- step functions compiled from the texts -----------------------------------

_READ = {"": "R[{o}.number] if type({o}) is Reg else I._read({o})",
         "r8": "R[{o}.number] & 255 if type({o}) is Reg else I._read({o})",
         "addr": "I._addr({o})"}


def step_source(row: OpRow) -> str:
    """Python source of ``step(I, insn)``, which runs one instruction of
    *row*'s op on the HostInterpreter ``I``."""
    def text(template: str) -> str:
        return _HOLE.sub(r"(\1)", template)

    esp = f"R[{ESP}]"
    lines = []
    if row.form == "push":
        lines.append(f"{esp} = ({esp} - 4) & {MASK}")
    elif row.form == "pop":
        lines.append(f"v = I.memory.read({esp}, 4)")
    if "x" in row.names or row.writes_dst:
        lines.append("d = insn.dst")
    if "x" in row.names:
        lines.append("x = " + _READ[""].format(o="d"))
    if "y" in row.names:
        lines += ["s = insn.src", "y = " + _READ[row.src_as].format(o="s")]
    if "n" in row.holes:
        lines += [f"n = (insn.src.value if type(insn.src) is Imm "
                  f"else R[{ECX}]) & 31", "if not n: return"]
    if "cond" in row.holes:
        lines.append("cond = COND_TESTS[insn.cond](C)")
    if row.x not in (None, "x"):
        lines.append(f"x = {text(row.x)}")
    if row.t is not None:
        lines.append(f"t = {text(row.t)}")
    value = None if row.result is None else text(row.result)
    if row.writes and value is not None:
        lines.append(f"r = {value}")
        value = "r"
    lines += [f"C.{letter}f = {text(row.flag_texts[letter])}"
              for letter in sorted(row.writes)]
    if row.form == "push":
        lines.append(f"I.memory.write({esp}, {value})")
    elif row.writes_dst:
        reg = "R[d.number]"
        lines += [f"if type(d) is Reg: {reg} = " +
                  (f"{reg} & 0xFFFFFF00 | {value}" if row.form == "setcc"
                   else value),
                  f"else: I._write(d, {value})"]
    if row.form == "pop":
        lines.append(f"{esp} = ({esp} + 4) & {MASK}")
    head = ["def step(I, insn):", " C = I.cpu", " R = C.regs"]
    return "\n".join(head + [" " + line for line in lines]) + "\n"


def _compile_step(row: OpRow) -> Step:
    if row.step is not None:
        return row.step
    namespace: Dict[str, Any] = {"Reg": Reg, "Imm": Imm,
                                 "COND_TESTS": COND_TESTS}
    exec(compile(step_source(row), f"<{row.op._name_} step>", "exec"),
         namespace)
    step: Step = namespace["step"]
    return step


#: op -> the function the interpreter runs an instruction of it with.
STEPS: Dict[X86Op, Step] = {op: _compile_step(row)
                            for op, row in ROWS.items()}
