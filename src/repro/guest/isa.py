"""ARMv7-A (A32) instruction model.

The emulated guest ISA is the subset of ARMv7-A that the paper's workloads
exercise: the full data-processing group (with condition codes and the
barrel shifter), multiplies, word/byte/halfword loads and stores with all
addressing modes, load/store multiple, branches, the system-level group
(mrs/msr/mcr/mrc/vmrs/vmsr/cps/svc/wfi) and clz.

Instructions are modelled as a single dataclass (:class:`ArmInsn`) whose
meaning is given by its :class:`Op`.  The binary encoder/decoder pair in
:mod:`repro.guest.encoder` / :mod:`repro.guest.decoder` maps these to real
ARM A32 machine words, so guest programs live in guest memory as bytes
exactly as they would on hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

# Register aliases -----------------------------------------------------------

SP = 13
LR = 14
PC = 15

REG_NAMES = [f"r{i}" for i in range(13)] + ["sp", "lr", "pc"]

_REG_ALIASES = {name: i for i, name in enumerate(REG_NAMES)}
_REG_ALIASES.update({f"r{i}": i for i in range(16)})
_REG_ALIASES.update({"fp": 11, "ip": 12, "r13": 13, "r14": 14, "r15": 15})


def reg_number(name: str) -> int:
    """Map a register name (``r0``..``r15``, ``sp``, ``lr``, ``pc``) to its number."""
    try:
        return _REG_ALIASES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown register {name!r}") from None


def reg_name(number: int) -> str:
    """Canonical printable name for register *number*."""
    return REG_NAMES[number]


class Cond(enum.IntEnum):
    """ARM condition codes (the values are the cond field encodings)."""

    EQ = 0x0  # Z == 1
    NE = 0x1  # Z == 0
    CS = 0x2  # C == 1 (aka HS)
    CC = 0x3  # C == 0 (aka LO)
    MI = 0x4  # N == 1
    PL = 0x5  # N == 0
    VS = 0x6  # V == 1
    VC = 0x7  # V == 0
    HI = 0x8  # C == 1 and Z == 0
    LS = 0x9  # C == 0 or Z == 1
    GE = 0xA  # N == V
    LT = 0xB  # N != V
    GT = 0xC  # Z == 0 and N == V
    LE = 0xD  # Z == 1 or N != V
    AL = 0xE  # always


COND_NAMES = {
    Cond.EQ: "eq", Cond.NE: "ne", Cond.CS: "cs", Cond.CC: "cc",
    Cond.MI: "mi", Cond.PL: "pl", Cond.VS: "vs", Cond.VC: "vc",
    Cond.HI: "hi", Cond.LS: "ls", Cond.GE: "ge", Cond.LT: "lt",
    Cond.GT: "gt", Cond.LE: "le", Cond.AL: "",
}

COND_BY_NAME = {v: k for k, v in COND_NAMES.items() if v}
COND_BY_NAME.update({"al": Cond.AL, "hs": Cond.CS, "lo": Cond.CC})


class Op(enum.Enum):
    """Instruction mnemonic groups.

    The data-processing members carry their 4-bit A32 opcode field value in
    ``.value`` so the encoder can emit them directly.
    """

    # Data processing (value == A32 opcode field).
    AND = 0x0
    EOR = 0x1
    SUB = 0x2
    RSB = 0x3
    ADD = 0x4
    ADC = 0x5
    SBC = 0x6
    RSC = 0x7
    TST = 0x8
    TEQ = 0x9
    CMP = 0xA
    CMN = 0xB
    ORR = 0xC
    MOV = 0xD
    BIC = 0xE
    MVN = 0xF

    # Multiplies.
    MUL = "mul"
    MLA = "mla"

    # Loads and stores.
    LDR = "ldr"
    STR = "str"
    LDRB = "ldrb"
    STRB = "strb"
    LDRH = "ldrh"
    STRH = "strh"
    LDRSB = "ldrsb"
    LDRSH = "ldrsh"
    LDM = "ldm"
    STM = "stm"

    # Branches.
    B = "b"
    BL = "bl"
    BX = "bx"

    # System level.
    MRS = "mrs"
    MSR = "msr"
    MCR = "mcr"
    MRC = "mrc"
    VMRS = "vmrs"
    VMSR = "vmsr"
    CPS = "cps"
    SVC = "svc"
    WFI = "wfi"
    NOP = "nop"

    # Misc.
    CLZ = "clz"

    # VFP single-precision subset (the paper's footnote-3 extension).
    VADD = "vadd.f32"
    VSUB = "vsub.f32"
    VMUL = "vmul.f32"
    VCMP = "vcmp.f32"
    VLDR = "vldr"
    VSTR = "vstr"
    VMOVSR = "vmov_s_r"   # vmov sN, rT
    VMOVRS = "vmov_r_s"   # vmov rT, sN

    # Per-opcode classification, set once for every member below the
    # operation sets.  The ArmInsn queries read these attributes instead
    # of testing frozenset membership: hashing a plain Enum member runs
    # the Python-level Enum.__hash__ (docs/internals.md,
    # "Translation-time memo").
    data_processing: bool    # in DATA_PROCESSING_OPS
    compare: bool            # in COMPARE_OPS
    writes_rd: bool          # data processing that writes Rd (no compare)
    system: bool             # helper-emulated whatever the operands
    memory: bool             # in MEMORY_OPS
    load: bool               # single or multiple load (ldr*, ldm, vldr)
    store: bool              # single or multiple store (str*, stm, vstr)
    branch: bool             # in BRANCH_OPS
    ends_block: bool         # always changes the PC (branch or svc)


DATA_PROCESSING_OPS = frozenset(op for op in Op if isinstance(op.value, int))

#: Data-processing ops that do not write Rd (they only set flags).
COMPARE_OPS = frozenset({Op.TST, Op.TEQ, Op.CMP, Op.CMN})

#: Data-processing ops with a single source operand (no Rn).
UNARY_DP_OPS = frozenset({Op.MOV, Op.MVN})

LOAD_OPS = frozenset({Op.LDR, Op.LDRB, Op.LDRH, Op.LDRSB, Op.LDRSH})
STORE_OPS = frozenset({Op.STR, Op.STRB, Op.STRH})
MEMORY_OPS = LOAD_OPS | STORE_OPS | {Op.LDM, Op.STM, Op.VLDR, Op.VSTR}

#: VFP data-processing ops (single precision).
VFP_ARITH_OPS = frozenset({Op.VADD, Op.VSUB, Op.VMUL})
VFP_OPS = VFP_ARITH_OPS | frozenset({Op.VCMP, Op.VLDR, Op.VSTR,
                                     Op.VMOVSR, Op.VMOVRS})

#: Instructions that must be emulated by a QEMU helper (privileged or
#: coprocessor state); these are the paper's "system-level instructions".
SYSTEM_OPS = frozenset({Op.MRS, Op.MSR, Op.MCR, Op.MRC, Op.VMRS, Op.VMSR,
                        Op.CPS, Op.WFI})

BRANCH_OPS = frozenset({Op.B, Op.BL, Op.BX})

for _op in Op:
    _op.data_processing = _op in DATA_PROCESSING_OPS
    _op.compare = _op in COMPARE_OPS
    _op.writes_rd = _op.data_processing and not _op.compare
    _op.system = _op in SYSTEM_OPS or _op is Op.SVC
    _op.memory = _op in MEMORY_OPS
    _op.load = _op in LOAD_OPS or _op in (Op.LDM, Op.VLDR)
    _op.store = _op in STORE_OPS or _op in (Op.STM, Op.VSTR)
    _op.branch = _op in BRANCH_OPS
    _op.ends_block = _op.branch or _op is Op.SVC
del _op


class ShiftKind(enum.IntEnum):
    """Barrel-shifter operation (values are the A32 shift-field encodings)."""

    LSL = 0
    LSR = 1
    ASR = 2
    ROR = 3
    RRX = 4  # encoded as ROR #0


SHIFT_NAMES = {ShiftKind.LSL: "lsl", ShiftKind.LSR: "lsr",
               ShiftKind.ASR: "asr", ShiftKind.ROR: "ror",
               ShiftKind.RRX: "rrx"}
SHIFT_BY_NAME = {v: k for k, v in SHIFT_NAMES.items()}

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_B = Op.B
_OP_BL = Op.BL
_OP_BX = Op.BX
_OP_CLZ = Op.CLZ
_OP_CPS = Op.CPS
_OP_LDM = Op.LDM
_OP_MCR = Op.MCR
_OP_MLA = Op.MLA
_OP_MRC = Op.MRC
_OP_MRS = Op.MRS
_OP_MSR = Op.MSR
_OP_MUL = Op.MUL
_OP_STM = Op.STM
_OP_SVC = Op.SVC
_OP_VCMP = Op.VCMP
_OP_VLDR = Op.VLDR
_OP_VMOVRS = Op.VMOVRS
_OP_VMOVSR = Op.VMOVSR
_OP_VMRS = Op.VMRS
_OP_VMSR = Op.VMSR
_OP_VSTR = Op.VSTR
_SHIFT_LSL = ShiftKind.LSL
_SHIFT_RRX = ShiftKind.RRX


@dataclass
class Operand2:
    """The flexible second operand of data-processing instructions.

    Either an immediate (``is_imm`` true, value in ``imm``) or a register
    ``rm`` optionally shifted by an immediate amount or by register ``rs``.
    """

    is_imm: bool = False
    imm: int = 0
    rm: int = 0
    shift: ShiftKind = ShiftKind.LSL
    shift_imm: int = 0
    rs: Optional[int] = None  # register shift amount, if any

    @staticmethod
    def immediate(value: int) -> "Operand2":
        return Operand2(is_imm=True, imm=value)

    @staticmethod
    def register(rm: int, shift: ShiftKind = ShiftKind.LSL,
                 shift_imm: int = 0, rs: Optional[int] = None) -> "Operand2":
        return Operand2(is_imm=False, rm=rm, shift=shift,
                        shift_imm=shift_imm, rs=rs)

    def __str__(self) -> str:
        if self.is_imm:
            return f"#{self.imm}"
        text = reg_name(self.rm)
        if self.shift == _SHIFT_RRX:
            return f"{text}, rrx"
        if self.rs is not None:
            return f"{text}, {SHIFT_NAMES[self.shift]} {reg_name(self.rs)}"
        if self.shift_imm or self.shift != _SHIFT_LSL:
            return f"{text}, {SHIFT_NAMES[self.shift]} #{self.shift_imm}"
        return text


@dataclass
class ArmInsn:
    """One decoded/assembled ARM instruction.

    Only the fields relevant to ``op`` are meaningful; the rest keep their
    defaults.  ``addr`` is filled in by the assembler/decoder for
    diagnostics and branch-target computation.
    """

    op: Op
    cond: Cond = Cond.AL
    set_flags: bool = False
    rd: int = 0
    rn: int = 0
    rm: int = 0
    rs: int = 0
    op2: Optional[Operand2] = None

    # Memory addressing (ldr/str family): [rn, offset] with P/U/W.
    mem_offset_imm: int = 0          # unsigned magnitude; sign is `u`
    mem_offset_reg: Optional[int] = None
    mem_shift: ShiftKind = ShiftKind.LSL
    mem_shift_imm: int = 0
    pre_indexed: bool = True         # P bit
    add_offset: bool = True          # U bit
    writeback: bool = False          # W bit

    # ldm/stm.
    reglist: List[int] = field(default_factory=list)
    before: bool = False             # P bit (increment-before)
    increment: bool = True           # U bit

    # Branches.
    target: int = 0                  # absolute byte address

    # System level.
    imm: int = 0                     # svc number, msr mask, cps flags...
    spsr: bool = False               # mrs/msr use SPSR instead of CPSR
    cp_op1: int = 0
    cp_crn: int = 0
    cp_crm: int = 0
    cp_op2: int = 0
    cps_enable: bool = False         # cpsie vs cpsid

    # VFP single-precision register numbers (s0..s31).
    fd: int = 0
    fn: int = 0
    fm: int = 0

    addr: int = 0

    #: The machine word this instruction was decoded from (None for
    #: hand-built instructions).  Excluded from equality so decoded and
    #: assembled instructions still compare equal; the persistent
    #: translation cache uses it to record exact guest bytes.
    raw: Optional[int] = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Classification helpers used by both DBT engines.
    # ------------------------------------------------------------------

    def is_system(self) -> bool:
        """True for the paper's "system-level" category (helper-emulated)."""
        op = self.op
        # Flag-setting writes to PC are exception returns.
        return op.system or (op.writes_rd and self.set_flags and
                             self.rd == PC)

    def is_memory(self) -> bool:
        """True for instructions that access guest memory (need softmmu)."""
        return self.op.memory

    def is_load(self) -> bool:
        return self.op.load

    def is_store(self) -> bool:
        return self.op.store

    def is_branch(self) -> bool:
        return self.op.branch

    def writes_pc(self) -> bool:
        """True when executing this instruction may change the PC."""
        op = self.op
        if op.ends_block:
            return True
        if op.writes_rd:
            return self.rd == PC
        if op is _OP_LDM:
            return PC in self.reglist
        # Single loads (LOAD_OPS): a VFP load writes no core register.
        return op.load and op is not _OP_VLDR and self.rd == PC

    # ------------------------------------------------------------------
    # Pretty printing (the assembler parses this same syntax back).
    # ------------------------------------------------------------------

    def mnemonic(self) -> str:
        value = self.op._value_
        base = value if isinstance(value, str) else self.op._name_.lower()
        if self.op is _OP_CPS:
            base = "cpsie" if self.cps_enable else "cpsid"
        cond = COND_NAMES[self.cond]
        s = "s" if (self.set_flags and (self.op in DATA_PROCESSING_OPS or
                                        self.op in (_OP_MUL, _OP_MLA)) and
                    self.op not in COMPARE_OPS) else ""
        return f"{base}{cond}{s}"

    def _mem_operand(self) -> str:
        base = reg_name(self.rn)
        if self.mem_offset_reg is not None:
            sign = "" if self.add_offset else "-"
            off = f"{sign}{reg_name(self.mem_offset_reg)}"
            # ror #0 (RRX encoding) must not collapse to "no shift".
            if self.mem_shift_imm or self.mem_shift != _SHIFT_LSL:
                off += f", {SHIFT_NAMES[self.mem_shift]} #{self.mem_shift_imm}"
        else:
            sign = "" if self.add_offset else "-"
            # "#-0" (U clear, offset 0) must not collapse to "#0"/"".
            off = f"#{sign}{self.mem_offset_imm}" \
                if self.mem_offset_imm or not self.add_offset else ""
        if self.pre_indexed:
            inner = f"[{base}, {off}]" if off else f"[{base}]"
            return inner + ("!" if self.writeback else "")
        return f"[{base}], {off or '#0'}"

    def __str__(self) -> str:  # noqa: C901 - a printer is naturally branchy
        m = self.mnemonic()
        op = self.op
        if op in COMPARE_OPS:
            return f"{m} {reg_name(self.rn)}, {self.op2}"
        if op in UNARY_DP_OPS:
            return f"{m} {reg_name(self.rd)}, {self.op2}"
        if op in DATA_PROCESSING_OPS:
            return f"{m} {reg_name(self.rd)}, {reg_name(self.rn)}, {self.op2}"
        if op is _OP_MUL:
            return f"{m} {reg_name(self.rd)}, {reg_name(self.rm)}, {reg_name(self.rs)}"
        if op is _OP_MLA:
            return (f"{m} {reg_name(self.rd)}, {reg_name(self.rm)}, "
                    f"{reg_name(self.rs)}, {reg_name(self.rn)}")
        if op in LOAD_OPS or op in STORE_OPS:
            return f"{m} {reg_name(self.rd)}, {self._mem_operand()}"
        if op in (_OP_LDM, _OP_STM):
            suffix = {"ldm": {(False, True): "ia", (True, True): "ib",
                              (False, False): "da", (True, False): "db"},
                      "stm": {(False, True): "ia", (True, True): "ib",
                              (False, False): "da", (True, False): "db"}}
            mode = suffix[op.value][(self.before, self.increment)]
            regs = ", ".join(reg_name(r) for r in sorted(self.reglist))
            wb = "!" if self.writeback else ""
            cond = COND_NAMES[self.cond]
            return f"{op.value}{mode}{cond} {reg_name(self.rn)}{wb}, {{{regs}}}"
        if op in (_OP_B, _OP_BL):
            return f"{m} 0x{self.target:x}"
        if op is _OP_BX:
            return f"{m} {reg_name(self.rm)}"
        if op is _OP_MRS:
            src = "spsr" if self.spsr else "cpsr"
            return f"{m} {reg_name(self.rd)}, {src}"
        if op is _OP_MSR:
            dst = "spsr" if self.spsr else "cpsr"
            fields = "".join(c for c, bitv in zip("cxsf", (1, 2, 4, 8))
                             if self.imm & bitv)
            return f"{m} {dst}_{fields}, {reg_name(self.rm)}"
        if op in (_OP_MCR, _OP_MRC):
            return (f"{m} p15, {self.cp_op1}, {reg_name(self.rd)}, "
                    f"c{self.cp_crn}, c{self.cp_crm}, {self.cp_op2}")
        if op is _OP_VMRS:
            return f"{m} {reg_name(self.rd)}, fpscr"
        if op is _OP_VMSR:
            return f"{m} fpscr, {reg_name(self.rd)}"
        if op is _OP_CPS:
            return f"{m} i"
        if op is _OP_SVC:
            return f"{m} #{self.imm}"
        if op is _OP_CLZ:
            return f"{m} {reg_name(self.rd)}, {reg_name(self.rm)}"
        cond_text = COND_NAMES[self.cond]
        if op in VFP_ARITH_OPS:
            stem = op.value[:-4]  # "vadd.f32" -> "vadd"
            return (f"{stem}{cond_text}.f32 s{self.fd}, s{self.fn}, "
                    f"s{self.fm}")
        if op is _OP_VCMP:
            return f"vcmp{cond_text}.f32 s{self.fd}, s{self.fm}"
        if op in (_OP_VLDR, _OP_VSTR):
            sign = "" if self.add_offset else "-"
            off = f", #{sign}{self.mem_offset_imm}" \
                if self.mem_offset_imm or not self.add_offset else ""
            return (f"{op.value}{cond_text} s{self.fd}, "
                    f"[{reg_name(self.rn)}{off}]")
        if op is _OP_VMOVSR:
            return f"vmov{cond_text} s{self.fn}, {reg_name(self.rd)}"
        if op is _OP_VMOVRS:
            return f"vmov{cond_text} {reg_name(self.rd)}, s{self.fn}"
        return m  # nop, wfi
