"""A two-pass ARM assembler for the guest ISA subset.

The guest kernel and all workloads in this repository are written in this
assembly dialect (close to UAL) and assembled to real A32 machine words at
load time.  Supported, beyond plain instructions:

- labels (``name:``) and ``.equ name, expr`` constants,
- directives ``.word``, ``.space``, ``.align``, ``.asciz``, ``.org``,
  ``.ltorg`` (flush the literal pool),
- the ``ldr rd, =expr`` pseudo-instruction with an automatic literal pool,
- ``adr rd, label``, ``push {..}`` / ``pop {..}``,
- expressions with ``+ - * << >> & |`` and parentheses over integers,
  character literals and previously-defined symbols.

The assembler is deliberately strict: anything it does not understand is an
:class:`~repro.common.errors.AssemblerError` with the offending line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common.bitops import encode_arm_imm, u32
from ..common.errors import AssemblerError, EncodingError
from .encoder import encode
from .isa import (COMPARE_OPS, COND_BY_NAME, DATA_PROCESSING_OPS,
                  UNARY_DP_OPS, ArmInsn, Cond, Op, Operand2, ShiftKind,
                  SHIFT_BY_NAME, reg_number, PC, SP)

# Enum members bound once: every source line goes through the functions
# below (docs/internals.md, "Per-instruction Python costs").
_OP_ADD = Op.ADD
_OP_B = Op.B
_OP_BL = Op.BL
_OP_BX = Op.BX
_OP_CLZ = Op.CLZ
_OP_CPS = Op.CPS
_OP_LDM = Op.LDM
_OP_LDR = Op.LDR
_OP_MCR = Op.MCR
_OP_MLA = Op.MLA
_OP_MOV = Op.MOV
_OP_MRC = Op.MRC
_OP_MRS = Op.MRS
_OP_MSR = Op.MSR
_OP_MUL = Op.MUL
_OP_MVN = Op.MVN
_OP_NOP = Op.NOP
_OP_STM = Op.STM
_OP_SUB = Op.SUB
_OP_SVC = Op.SVC
_OP_VCMP = Op.VCMP
_OP_VLDR = Op.VLDR
_OP_VMOVRS = Op.VMOVRS
_OP_VMOVSR = Op.VMOVSR
_OP_VMRS = Op.VMRS
_OP_VMSR = Op.VMSR
_OP_VSTR = Op.VSTR
_OP_WFI = Op.WFI
_COND_AL = Cond.AL
_SHIFT_RRX = ShiftKind.RRX

# ---------------------------------------------------------------------------
# Expression evaluation.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(<<|>>|0x[0-9a-fA-F]+|0b[01]+|\d+|'(?:\\.|[^'])'|[A-Za-z_.$][\w.$]*"
    r"|[()+\-*&|~])")
#: An expression that is one number or one symbol: the tokens above,
#: one group each, so a full match reads as :class:`_ExprParser` would.
_ATOM_RE = re.compile(
    r"(0x[0-9a-fA-F]+)|(0b[01]+)|(\d+)|([A-Za-z_.$][\w.$]*)")
#: The base of each number group of ``_ATOM_RE``.
_ATOM_BASES = {1: 16, 2: 2, 3: 10}


class _ExprParser:
    """Recursive-descent parser for assembler expressions."""

    _PRECEDENCE = {"|": 1, "&": 2, "<<": 3, ">>": 3,
                   "+": 4, "-": 4, "*": 5}

    def __init__(self, text: str, symbols: Dict[str, int]):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.symbols = symbols

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens, index = [], 0
        while index < len(text):
            match = _TOKEN_RE.match(text, index)
            if not match:
                if text[index:].strip():
                    raise ValueError(f"bad expression near {text[index:]!r}")
                break
            tokens.append(match.group(1))
            index = match.end()
        return tokens

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> int:
        value = self._parse_binary(0)
        if self._peek() is not None:
            raise ValueError(f"trailing tokens: {self.tokens[self.pos:]}")
        return value

    def _parse_binary(self, min_precedence: int) -> int:
        left = self._parse_unary()
        while True:
            op = self._peek()
            precedence = self._PRECEDENCE.get(op or "", 0)
            if not precedence or precedence < min_precedence:
                return left
            self._next()
            right = self._parse_binary(precedence + 1)
            if op == "+":
                left += right
            elif op == "-":
                left -= right
            elif op == "*":
                left *= right
            elif op == "<<":
                left <<= right
            elif op == ">>":
                left >>= right
            elif op == "&":
                left &= right
            elif op == "|":
                left |= right

    def _parse_unary(self) -> int:
        token = self._next()
        if token == "-":
            return -self._parse_unary()
        if token == "~":
            return ~self._parse_unary()
        if token == "(":
            value = self._parse_binary(0)
            if self._next() != ")":
                raise ValueError("missing ')'")
            return value
        if token.startswith("0x"):
            return int(token, 16)
        if token.startswith("0b"):
            return int(token, 2)
        if token.isdigit():
            return int(token)
        if token.startswith("'"):
            body = token[1:-1]
            escapes = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\\\": "\\",
                       "\\'": "'"}
            body = escapes.get(body, body)
            return ord(body)
        if token in self.symbols:
            return self.symbols[token]
        raise ValueError(f"undefined symbol {token!r}")


# ---------------------------------------------------------------------------
# Program container.
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """An assembled guest program ready to load into guest memory."""

    base: int
    data: bytearray
    symbols: Dict[str, int] = field(default_factory=dict)
    listing: Dict[int, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.data)

    def entry(self, symbol: str = "_start") -> int:
        return self.symbols.get(symbol, self.base)


# ---------------------------------------------------------------------------
# Statement model (pass 1 output).
# ---------------------------------------------------------------------------


@dataclass
class _Statement:
    kind: str               # 'insn' | 'word' | 'bytes' | 'space' | 'pool'
    addr: int
    size: int
    line_no: int
    source: str
    mnemonic: str = ""
    operands: str = ""
    exprs: List[str] = field(default_factory=list)
    raw: bytes = b""


_BASE_MNEMONICS = sorted(
    ["and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc", "tst", "teq",
     "cmp", "cmn", "orr", "mov", "bic", "mvn", "mul", "mla",
     "ldrsb", "ldrsh", "ldrb", "ldrh", "ldr", "strb", "strh", "str",
     "ldm", "stm", "push", "pop", "bx", "bl", "b",
     "mrs", "msr", "mcr", "mrc", "vmrs", "vmsr", "cpsie", "cpsid",
     "svc", "wfi", "nop", "clz", "adr",
     "vadd", "vsub", "vmul", "vcmp", "vldr", "vstr", "vmov"],
    key=len, reverse=True)

_OPS_WITH_S = {"and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
               "orr", "mov", "bic", "mvn", "mul", "mla"}

_LDM_MODES = {"ia": (False, True), "ib": (True, True),
              "da": (False, False), "db": (True, False),
              "fd": (False, True), "ed": (True, True)}  # ldm aliases
_STM_MODES = {"ia": (False, True), "ib": (True, True),
              "da": (False, False), "db": (True, False),
              "fd": (True, False), "ea": (False, True)}  # stm aliases

_DP_BY_NAME = {op.name.lower(): op for op in DATA_PROCESSING_OPS}


def _split_mnemonic(mnemonic: str):
    """Split a mnemonic into (base, cond, set_flags, ldm_mode).

    Returns None if the mnemonic is not recognized.
    """
    for base in _BASE_MNEMONICS:
        if not mnemonic.startswith(base):
            continue
        rest = mnemonic[len(base):]
        mode = None
        if base in ("ldm", "stm"):
            table = _LDM_MODES if base == "ldm" else _STM_MODES
            if rest[:2] in table:
                mode, rest = table[rest[:2]], rest[2:]
            else:
                mode = (False, True)  # plain ldm/stm == ia
        set_flags = False
        if rest.endswith("s") and base in _OPS_WITH_S:
            candidate = rest[:-1]
            if candidate == "" or candidate in COND_BY_NAME:
                rest, set_flags = candidate, True
        if rest == "":
            return base, _COND_AL, set_flags, mode
        if rest in COND_BY_NAME:
            return base, COND_BY_NAME[rest], set_flags, mode
        # Old-style <cond>s ordering (e.g. "addeqs").
        if rest[:-1] in COND_BY_NAME and rest.endswith("s") \
                and base in _OPS_WITH_S:
            return base, COND_BY_NAME[rest[:-1]], True, mode
        # UAL s<cond> ordering (e.g. "addseq").
        if rest.startswith("s") and rest[1:] in COND_BY_NAME \
                and base in _OPS_WITH_S:
            return base, COND_BY_NAME[rest[1:]], True, mode
    return None


_MSR_FIELD_BITS = {"c": 1, "x": 2, "s": 4, "f": 8}

_MEMORY_OP_BY_NAME = {name: Op[name.upper()] for name in (
    "ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh")}
_VFP_ARITH_BY_NAME = {"vadd": Op.VADD, "vsub": Op.VSUB, "vmul": Op.VMUL}

_COMMENT_RE = re.compile(r"@|//")
_LABEL_RE = re.compile(r"([A-Za-z_.$][\w.$]*):\s*")
_STRING_RE = re.compile(r'"((?:\\.|[^"])*)"')
_MEMORY_RE = re.compile(r"\[([^\]]*)\]\s*(!?)\s*(?:,\s*(.*))?$")
_BRACKETS = frozenset("[{(]})")


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0):
        self.base = base
        self.symbols: Dict[str, int] = {}
        #: mnemonic -> its :func:`_split_mnemonic` result, filled on
        #: first use (a program repeats a few dozen mnemonics)
        self._splits: Dict[str, Optional[tuple]] = {}

    # -- public API --------------------------------------------------------

    def assemble(self, source: str, base: Optional[int] = None) -> Program:
        if base is not None:
            self.base = base
        statements = self._pass1(source)
        return self._pass2(statements)

    # -- pass 1: layout ------------------------------------------------------

    def _pass1(self, source: str) -> List[_Statement]:
        statements: List[_Statement] = []
        addr = self.base
        pending_literals: List[Tuple[str, int]] = []  # (expr, use count)

        def flush_pool(line_no: int):
            nonlocal addr
            if not pending_literals:
                return
            for expr, _ in pending_literals:
                statements.append(_Statement("word", addr, 4, line_no,
                                             f".word {expr}", exprs=[expr]))
                self._pool_slots.append((expr, addr))
                addr += 4
            pending_literals.clear()

        self._pool_slots: List[Tuple[str, int]] = []
        self._literal_requests: List[Tuple[int, str]] = []

        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = _COMMENT_RE.split(raw_line, 1)[0].strip()
            if not line:
                continue
            # Labels (possibly several on one line).
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                self.symbols[match.group(1)] = addr
                line = line[match.end():]
            if not line:
                continue
            if line.startswith("."):
                addr = self._pass1_directive(line, addr, line_no, statements,
                                             flush_pool)
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operands = parts[1] if len(parts) > 1 else ""
            statements.append(_Statement("insn", addr, 4, line_no, line,
                                         mnemonic=mnemonic,
                                         operands=operands))
            # Register literal-pool requests for "ldr rd, =expr".
            if mnemonic.startswith("ldr") and "=" in operands:
                expr = operands.split("=", 1)[1].strip()
                pending_literals.append((expr, 1))
            addr += 4
        flush_pool(0)
        return statements

    def _pass1_directive(self, line, addr, line_no, statements, flush_pool):
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name == ".equ":
            try:
                sym, expr = (piece.strip() for piece in rest.split(",", 1))
            except ValueError:
                raise AssemblerError(".equ needs 'name, value'",
                                     line_no, line)
            self.symbols[sym] = self._eval(expr, line_no, line)
            return addr
        if name == ".word":
            exprs = [piece.strip() for piece in rest.split(",")]
            statements.append(_Statement("word", addr, 4 * len(exprs),
                                         line_no, line, exprs=exprs))
            return addr + 4 * len(exprs)
        if name == ".space":
            size = self._eval(rest, line_no, line)
            statements.append(_Statement("space", addr, size, line_no, line))
            return addr + size
        if name == ".align":
            alignment = 1 << (self._eval(rest, line_no, line) if rest else 2)
            padded = (addr + alignment - 1) & ~(alignment - 1)
            if padded != addr:
                statements.append(_Statement("space", addr, padded - addr,
                                             line_no, line))
            return padded
        if name == ".asciz" or name == ".ascii":
            match = _STRING_RE.match(rest)
            if not match:
                raise AssemblerError("bad string literal", line_no, line)
            text = match.group(1).encode().decode("unicode_escape")
            data = text.encode("latin-1") + (b"\0" if name == ".asciz" else b"")
            statements.append(_Statement("bytes", addr, len(data), line_no,
                                         line, raw=data))
            return addr + len(data)
        if name == ".org":
            target = self._eval(rest, line_no, line)
            if target < addr:
                raise AssemblerError(".org cannot move backwards",
                                     line_no, line)
            if target != addr:
                statements.append(_Statement("space", addr, target - addr,
                                             line_no, line))
            return target
        if name == ".ltorg":
            flush_pool(line_no)
            return self._relayout_tail(statements)
        raise AssemblerError(f"unknown directive {name}", line_no, line)

    @staticmethod
    def _relayout_tail(statements: List[_Statement]) -> int:
        last = statements[-1]
        return last.addr + last.size

    # -- pass 2: encoding ----------------------------------------------------

    def _pass2(self, statements: List[_Statement]) -> Program:
        if not statements:
            return Program(self.base, bytearray(), dict(self.symbols))
        end = max(s.addr + s.size for s in statements)
        data = bytearray(end - self.base)
        listing: Dict[int, str] = {}
        # Every slot of each literal, in address order (one per pool
        # that requested it).
        pool_by_expr: Dict[str, List[int]] = {}
        for expr, slot_addr in self._pool_slots:
            pool_by_expr.setdefault(expr, []).append(slot_addr)

        for statement in statements:
            offset = statement.addr - self.base
            listing[statement.addr] = statement.source
            if statement.kind == "word":
                for i, expr in enumerate(statement.exprs):
                    value = u32(self._eval(expr, statement.line_no,
                                           statement.source))
                    data[offset + 4 * i:offset + 4 * i + 4] = \
                        value.to_bytes(4, "little")
            elif statement.kind == "bytes":
                data[offset:offset + len(statement.raw)] = statement.raw
            elif statement.kind == "space":
                pass
            elif statement.kind == "insn":
                insn = self._parse_insn(statement, pool_by_expr)
                try:
                    word = encode(insn)
                except EncodingError as exc:
                    raise AssemblerError(str(exc), statement.line_no,
                                         statement.source) from exc
                data[offset:offset + 4] = word.to_bytes(4, "little")
        return Program(self.base, data, dict(self.symbols), listing)

    def _eval(self, text: str, line_no: int, source: str) -> int:
        atom = _ATOM_RE.fullmatch(text)
        if atom is not None:
            number_base = _ATOM_BASES.get(atom.lastindex)
            if number_base is not None:
                return int(text, number_base)
            if text in self.symbols:
                return self.symbols[text]
        try:
            return _ExprParser(text, self.symbols).parse()
        except ValueError as exc:
            raise AssemblerError(str(exc), line_no, source) from exc

    # -- instruction parsing -------------------------------------------------

    def _parse_insn(self, statement: _Statement,
                    pool_by_expr: Dict[str, List[int]]) -> ArmInsn:
        mnemonic = statement.mnemonic
        if mnemonic.endswith(".f32"):
            statement.mnemonic = mnemonic[:-4]
        try:
            split = self._splits[statement.mnemonic]
        except KeyError:
            split = self._splits[statement.mnemonic] = \
                _split_mnemonic(statement.mnemonic)
        if split is None:
            raise AssemblerError(f"unknown mnemonic {statement.mnemonic!r}",
                                 statement.line_no, statement.source)
        base, cond, set_flags, ldm_mode = split
        try:
            insn = self._build(base, cond, set_flags, ldm_mode, statement,
                               pool_by_expr)
        except (ValueError, KeyError, IndexError) as exc:
            raise AssemblerError(f"bad operands: {exc}", statement.line_no,
                                 statement.source) from exc
        insn.cond = cond
        insn.addr = statement.addr
        return insn

    def _split_operands(self, text: str) -> List[str]:
        """Split on commas that are not inside brackets or braces."""
        if _BRACKETS.isdisjoint(text):
            pieces = text.split(",")
        else:
            pieces, depth, start = [], 0, 0
            for index, char in enumerate(text):
                if char in "[{(":
                    depth += 1
                elif char in "]})":
                    depth -= 1
                elif char == "," and depth == 0:
                    pieces.append(text[start:index])
                    start = index + 1
            pieces.append(text[start:])
        # An empty last piece is dropped, an empty inner one kept.
        last = pieces.pop().strip()
        pieces = [piece.strip() for piece in pieces]
        if last:
            pieces.append(last)
        return pieces

    def _operand2(self, pieces: List[str], line_no: int,
                  source: str) -> Operand2:
        first = pieces[0]
        if first.startswith("#"):
            return Operand2.immediate(u32(self._eval(first[1:], line_no,
                                                     source)))
        rm = reg_number(first)
        if len(pieces) == 1:
            return Operand2.register(rm)
        shift_text = pieces[1].split()
        shift_name = shift_text[0].lower()
        if shift_name == "rrx":
            return Operand2.register(rm, _SHIFT_RRX)
        shift = SHIFT_BY_NAME[shift_name]
        amount = shift_text[1]
        if amount.startswith("#"):
            return Operand2.register(rm, shift,
                                     self._eval(amount[1:], line_no, source))
        return Operand2.register(rm, shift, rs=reg_number(amount))

    def _build(self, base, cond, set_flags, ldm_mode, statement,
               pool_by_expr) -> ArmInsn:  # noqa: C901
        line_no, source = statement.line_no, statement.source
        ops = self._split_operands(statement.operands)

        if base in _DP_BY_NAME:
            op = _DP_BY_NAME[base]
            if op in COMPARE_OPS:
                return ArmInsn(op=op, rn=reg_number(ops[0]),
                               op2=self._operand2(ops[1:], line_no, source))
            if op in UNARY_DP_OPS:
                return ArmInsn(op=op, set_flags=set_flags,
                               rd=reg_number(ops[0]),
                               op2=self._operand2(ops[1:], line_no, source))
            return ArmInsn(op=op, set_flags=set_flags, rd=reg_number(ops[0]),
                           rn=reg_number(ops[1]),
                           op2=self._operand2(ops[2:], line_no, source))
        if base == "mul":
            return ArmInsn(op=_OP_MUL, set_flags=set_flags,
                           rd=reg_number(ops[0]), rm=reg_number(ops[1]),
                           rs=reg_number(ops[2]))
        if base == "mla":
            return ArmInsn(op=_OP_MLA, set_flags=set_flags,
                           rd=reg_number(ops[0]), rm=reg_number(ops[1]),
                           rs=reg_number(ops[2]), rn=reg_number(ops[3]))
        if base in _MEMORY_OP_BY_NAME:
            op = _MEMORY_OP_BY_NAME[base]
            rd = reg_number(ops[0])
            rest = statement.operands.split(",", 1)[1].strip()
            if rest.startswith("="):
                return self._pool_load(op, rd, rest[1:].strip(),
                                       statement, pool_by_expr)
            return self._memory_operand(op, rd, rest, line_no, source)
        if base in ("ldm", "stm"):
            op = _OP_LDM if base == "ldm" else _OP_STM
            rn_text = ops[0]
            writeback = rn_text.endswith("!")
            rn = reg_number(rn_text.rstrip("!"))
            reglist = self._reglist(ops[1])
            before, increment = ldm_mode
            return ArmInsn(op=op, rn=rn, reglist=reglist, writeback=writeback,
                           before=before, increment=increment)
        if base == "push":
            return ArmInsn(op=_OP_STM, rn=SP, reglist=self._reglist(ops[0]),
                           writeback=True, before=True, increment=False)
        if base == "pop":
            return ArmInsn(op=_OP_LDM, rn=SP, reglist=self._reglist(ops[0]),
                           writeback=True, before=False, increment=True)
        if base in ("b", "bl"):
            target = self._eval(ops[0], line_no, source)
            return ArmInsn(op=_OP_B if base == "b" else _OP_BL, target=target)
        if base == "bx":
            return ArmInsn(op=_OP_BX, rm=reg_number(ops[0]))
        if base == "mrs":
            return ArmInsn(op=_OP_MRS, rd=reg_number(ops[0]),
                           spsr=ops[1].lower().startswith("spsr"))
        if base == "msr":
            target_text = ops[0].lower()
            spsr = target_text.startswith("spsr")
            fields = target_text.split("_", 1)[1] if "_" in target_text \
                else "cxsf"
            mask = sum(_MSR_FIELD_BITS[c] for c in fields)
            return ArmInsn(op=_OP_MSR, rm=reg_number(ops[1]), imm=mask,
                           spsr=spsr)
        if base in ("mcr", "mrc"):
            # mcr p15, op1, rt, crn, crm, op2
            return ArmInsn(op=_OP_MCR if base == "mcr" else _OP_MRC,
                           cp_op1=self._eval(ops[1], line_no, source),
                           rd=reg_number(ops[2]),
                           cp_crn=int(ops[3].lstrip("cC")),
                           cp_crm=int(ops[4].lstrip("cC")),
                           cp_op2=self._eval(ops[5], line_no, source)
                           if len(ops) > 5 else 0)
        if base == "vmrs":
            return ArmInsn(op=_OP_VMRS, rd=reg_number(ops[0]))
        if base == "vmsr":
            return ArmInsn(op=_OP_VMSR, rd=reg_number(ops[1]))
        if base in ("cpsie", "cpsid"):
            return ArmInsn(op=_OP_CPS, cps_enable=(base == "cpsie"))
        if base == "svc":
            return ArmInsn(op=_OP_SVC,
                           imm=self._eval(ops[0].lstrip("#"), line_no, source))
        if base == "wfi":
            return ArmInsn(op=_OP_WFI)
        if base == "nop":
            return ArmInsn(op=_OP_NOP)
        if base == "clz":
            return ArmInsn(op=_OP_CLZ, rd=reg_number(ops[0]),
                           rm=reg_number(ops[1]))
        if base in _VFP_ARITH_BY_NAME:
            op = _VFP_ARITH_BY_NAME[base]
            return ArmInsn(op=op, fd=_sreg(ops[0]), fn=_sreg(ops[1]),
                           fm=_sreg(ops[2]))
        if base == "vcmp":
            return ArmInsn(op=_OP_VCMP, fd=_sreg(ops[0]), fm=_sreg(ops[1]))
        if base in ("vldr", "vstr"):
            op = _OP_VLDR if base == "vldr" else _OP_VSTR
            rest = statement.operands.split(",", 1)[1].strip()
            shell = self._memory_operand(op, 0, rest, line_no, source)
            return ArmInsn(op=op, fd=_sreg(ops[0]), rn=shell.rn,
                           mem_offset_imm=shell.mem_offset_imm,
                           add_offset=shell.add_offset)
        if base == "vmov":
            if ops[0].lower().lstrip().startswith("s"):
                return ArmInsn(op=_OP_VMOVSR, fn=_sreg(ops[0]),
                               rd=reg_number(ops[1]))
            return ArmInsn(op=_OP_VMOVRS, rd=reg_number(ops[0]),
                           fn=_sreg(ops[1]))
        if base == "adr":
            target = self._eval(ops[1], line_no, source)
            delta = target - (statement.addr + 8)
            op = _OP_ADD if delta >= 0 else _OP_SUB
            return ArmInsn(op=op, rd=reg_number(ops[0]), rn=PC,
                           op2=Operand2.immediate(abs(delta)))
        raise AssemblerError(f"unhandled mnemonic {base}", line_no, source)

    def _pool_load(self, op, rd, expr, statement, pool_by_expr) -> ArmInsn:
        value = u32(self._eval(expr, statement.line_no, statement.source))
        # Prefer a plain mov/mvn when the constant is encodable.
        if encode_arm_imm(value) is not None:
            return ArmInsn(op=_OP_MOV, rd=rd, op2=Operand2.immediate(value))
        if encode_arm_imm(u32(~value)) is not None:
            return ArmInsn(op=_OP_MVN, rd=rd,
                           op2=Operand2.immediate(u32(~value)))
        slots = pool_by_expr.get(expr)
        if slots is None:
            raise AssemblerError(f"no literal pool slot for ={expr}",
                                 statement.line_no, statement.source)
        pc = statement.addr + 8
        # The earliest slot in reach; with none, the first one, and the
        # encoder reports its offset out of range.
        slot = next((slot for slot in slots if abs(slot - pc) <= 0xFFF),
                    slots[0])
        delta = slot - pc
        return ArmInsn(op=_OP_LDR, rd=rd, rn=PC,
                       mem_offset_imm=abs(delta), add_offset=delta >= 0)

    def _memory_operand(self, op, rd, text, line_no, source) -> ArmInsn:
        text = text.strip()
        match = _MEMORY_RE.match(text)
        if not match:
            raise AssemblerError(f"bad memory operand {text!r}", line_no,
                                 source)
        inner, bang, post = match.group(1), match.group(2), match.group(3)
        pieces = self._split_operands(inner)
        insn = ArmInsn(op=op, rd=rd, rn=reg_number(pieces[0]))
        offset_pieces = pieces[1:]
        if post:  # post-indexed: [rn], offset
            insn.pre_indexed = False
            offset_pieces = self._split_operands(post)
        else:
            insn.pre_indexed = True
            insn.writeback = bang == "!"
        if offset_pieces:
            first = offset_pieces[0]
            if first.startswith("#"):
                value = self._eval(first[1:], line_no, source)
                insn.add_offset = value > 0 or (
                    value == 0 and not first[1:].lstrip().startswith("-"))
                insn.mem_offset_imm = abs(value)
            else:
                negative = first.startswith("-")
                insn.add_offset = not negative
                insn.mem_offset_reg = reg_number(first.lstrip("+-"))
                if len(offset_pieces) > 1:
                    shift_text = offset_pieces[1].split()
                    insn.mem_shift = SHIFT_BY_NAME[shift_text[0].lower()]
                    insn.mem_shift_imm = self._eval(
                        shift_text[1].lstrip("#"), line_no, source)
        return insn

    @staticmethod
    def _reglist(text: str) -> List[int]:
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad register list {text!r}")
        regs: List[int] = []
        for piece in text[1:-1].split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "-" in piece:
                lo_text, hi_text = piece.split("-")
                lo, hi = reg_number(lo_text.strip()), reg_number(hi_text.strip())
                regs.extend(range(lo, hi + 1))
            else:
                regs.append(reg_number(piece))
        return sorted(set(regs))


def _sreg(text: str) -> int:
    """Parse a single-precision VFP register name (s0..s31)."""
    text = text.strip().lower()
    if not text.startswith("s") or not text[1:].isdigit():
        raise ValueError(f"bad VFP register {text!r}")
    number = int(text[1:])
    if not 0 <= number <= 31:
        raise ValueError(f"VFP register out of range: {text}")
    return number


def assemble(source: str, base: int = 0,
             symbols: Optional[Dict[str, int]] = None) -> Program:
    """Assemble *source* at *base*; convenience wrapper over Assembler."""
    assembler = Assembler(base)
    if symbols:
        assembler.symbols.update(symbols)
    return assembler.assemble(source)
