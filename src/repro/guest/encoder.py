"""ARM A32 binary encoder: :class:`~repro.guest.isa.ArmInsn` -> 32-bit word.

The encodings follow the ARMv7-A ARM (DDI 0406).  Only the subset in
:mod:`repro.guest.isa` is supported; anything else raises
:class:`~repro.common.errors.EncodingError`.
"""

from __future__ import annotations

from ..common.bitops import encode_arm_imm, u32
from ..common.errors import EncodingError
from .isa import (COMPARE_OPS, DATA_PROCESSING_OPS, LOAD_OPS, STORE_OPS,
                  UNARY_DP_OPS, VFP_ARITH_OPS, ArmInsn, Op, Operand2,
                  ShiftKind)

# Enum members bound once: the assembler encodes every line through
# here (docs/internals.md, "Per-instruction Python costs").
_OP_BL = Op.BL
_OP_CLZ = Op.CLZ
_OP_CPS = Op.CPS
_OP_LDM = Op.LDM
_OP_LDRB = Op.LDRB
_OP_MCR = Op.MCR
_OP_MLA = Op.MLA
_OP_MRC = Op.MRC
_OP_MRS = Op.MRS
_OP_MSR = Op.MSR
_OP_NOP = Op.NOP
_OP_STRB = Op.STRB
_OP_STRH = Op.STRH
_OP_SVC = Op.SVC
_OP_VCMP = Op.VCMP
_OP_VLDR = Op.VLDR
_OP_VMOVRS = Op.VMOVRS
_OP_VMRS = Op.VMRS
_OP_VMSR = Op.VMSR
_OP_VSTR = Op.VSTR
_OP_WFI = Op.WFI
_SHIFT_ASR = ShiftKind.ASR
_SHIFT_LSR = ShiftKind.LSR
_SHIFT_ROR = ShiftKind.ROR
_SHIFT_RRX = ShiftKind.RRX

#: The ``SH`` field of each halfword and signed-byte transfer.
_HALFWORD_SH = {Op.LDRH: 0xB, Op.STRH: 0xB, Op.LDRSB: 0xD, Op.LDRSH: 0xF}
_VFP_ARITH_BASE = {Op.VADD: 0x0E300A00, Op.VSUB: 0x0E300A40,
                   Op.VMUL: 0x0E200A00}


def _encode_operand2(op2: Operand2) -> int:
    """Encode the flexible operand into bits [25] << 25 | [11:0]."""
    if op2.is_imm:
        encoded = encode_arm_imm(op2.imm)
        if encoded is None:
            raise EncodingError(
                f"immediate {op2.imm:#x} is not an ARM modified-immediate")
        rotation, imm8 = encoded
        return (1 << 25) | (rotation << 8) | imm8
    if op2.shift == _SHIFT_RRX:
        return (_SHIFT_ROR << 5) | op2.rm  # ROR #0 encodes RRX
    if op2.rs is not None:
        return (op2.rs << 8) | (op2.shift << 5) | (1 << 4) | op2.rm
    shift_imm = op2.shift_imm
    if shift_imm == 32 and op2.shift in (_SHIFT_LSR, _SHIFT_ASR):
        shift_imm = 0  # LSR/ASR #32 encodes as a zero shift field
    if not 0 <= shift_imm <= 31:
        raise EncodingError(f"shift amount {op2.shift_imm} out of range")
    return (shift_imm << 7) | (op2.shift << 5) | op2.rm


def _encode_data_processing(insn: ArmInsn) -> int:
    if insn.op2 is None:
        raise EncodingError(f"{insn.op.name} requires an operand2")
    word = _encode_operand2(insn.op2)
    word |= insn.op.value << 21
    set_flags = insn.set_flags or insn.op in COMPARE_OPS
    if set_flags:
        word |= 1 << 20
    if insn.op in COMPARE_OPS:
        word |= insn.rn << 16
    elif insn.op in UNARY_DP_OPS:
        word |= insn.rd << 12
    else:
        word |= (insn.rn << 16) | (insn.rd << 12)
    return word


def _encode_multiply(insn: ArmInsn) -> int:
    word = (insn.rd << 16) | (insn.rs << 8) | 0x90 | insn.rm
    if insn.op is _OP_MLA:
        word |= (1 << 21) | (insn.rn << 12)
    if insn.set_flags:
        word |= 1 << 20
    return word


def _encode_word_byte_transfer(insn: ArmInsn) -> int:
    word = (1 << 26) | (insn.rn << 16) | (insn.rd << 12)
    if insn.pre_indexed:
        word |= 1 << 24
    if insn.add_offset:
        word |= 1 << 23
    if insn.op is _OP_LDRB or insn.op is _OP_STRB:
        word |= 1 << 22
    if insn.writeback and insn.pre_indexed:
        word |= 1 << 21
    if insn.op in LOAD_OPS:
        word |= 1 << 20
    if insn.mem_offset_reg is not None:
        word |= 1 << 25
        word |= (insn.mem_shift_imm << 7) | (insn.mem_shift << 5)
        word |= insn.mem_offset_reg
    else:
        if not 0 <= insn.mem_offset_imm <= 0xFFF:
            raise EncodingError(
                f"ldr/str offset {insn.mem_offset_imm} out of range")
        word |= insn.mem_offset_imm
    return word


def _encode_halfword_transfer(insn: ArmInsn) -> int:
    sh = _HALFWORD_SH[insn.op]
    word = (insn.rn << 16) | (insn.rd << 12) | (sh << 4)
    if insn.pre_indexed:
        word |= 1 << 24
    if insn.add_offset:
        word |= 1 << 23
    if insn.writeback and insn.pre_indexed:
        word |= 1 << 21
    if insn.op is not _OP_STRH:
        word |= 1 << 20
    if insn.mem_offset_reg is not None:
        word |= insn.mem_offset_reg
    else:
        if not 0 <= insn.mem_offset_imm <= 0xFF:
            raise EncodingError(
                f"halfword offset {insn.mem_offset_imm} out of range")
        word |= 1 << 22  # immediate form
        word |= ((insn.mem_offset_imm & 0xF0) << 4) | (insn.mem_offset_imm & 0xF)
    return word


def _encode_block_transfer(insn: ArmInsn) -> int:
    word = (1 << 27) | (insn.rn << 16)
    if insn.before:
        word |= 1 << 24
    if insn.increment:
        word |= 1 << 23
    if insn.writeback:
        word |= 1 << 21
    if insn.op is _OP_LDM:
        word |= 1 << 20
    for reg in insn.reglist:
        word |= 1 << reg
    return word


def _encode_branch(insn: ArmInsn) -> int:
    # Branch offsets wrap modulo 2**32 (the PC is a 32-bit register).
    offset = u32(insn.target - (insn.addr + 8))
    offset = offset - 0x100000000 if offset & 0x80000000 else offset
    if offset & 3:
        raise EncodingError(f"branch target 0x{insn.target:x} is unaligned")
    offset >>= 2
    if not -(1 << 23) <= offset < (1 << 23):
        raise EncodingError("branch target out of range")
    word = (0b101 << 25) | (offset & 0xFFFFFF)
    if insn.op is _OP_BL:
        word |= 1 << 24
    return word


def _split_sreg(number: int):
    """Single-precision Sx -> (Vx 4-bit field, low-bit flag)."""
    return (number >> 1) & 0xF, number & 1


def _encode_vfp(insn: ArmInsn) -> int:
    op = insn.op
    vd, d_bit = _split_sreg(insn.fd)
    if op in VFP_ARITH_OPS:
        vn, n_bit = _split_sreg(insn.fn)
        vm, m_bit = _split_sreg(insn.fm)
        base = _VFP_ARITH_BASE[op]
        return base | (d_bit << 22) | (vn << 16) | (vd << 12) | \
            (n_bit << 7) | (m_bit << 5) | vm
    if op is _OP_VCMP:
        vm, m_bit = _split_sreg(insn.fm)
        return 0x0EB40A40 | (d_bit << 22) | (vd << 12) | (m_bit << 5) | vm
    if op is _OP_VLDR or op is _OP_VSTR:
        if insn.mem_offset_imm & 3 or insn.mem_offset_imm > 1020:
            raise EncodingError(
                f"vldr/vstr offset {insn.mem_offset_imm} invalid")
        word = 0x0D000A00 | (d_bit << 22) | (insn.rn << 16) | (vd << 12) | \
            (insn.mem_offset_imm >> 2)
        if insn.add_offset:
            word |= 1 << 23
        if op is _OP_VLDR:
            word |= 1 << 20
        return word
    # vmov between a core register and a single-precision register.
    vn, n_bit = _split_sreg(insn.fn)
    word = 0x0E000A10 | (vn << 16) | (insn.rd << 12) | (n_bit << 7)
    if op is _OP_VMOVRS:
        word |= 1 << 20
    return word


def _encode_system(insn: ArmInsn) -> int:
    op = insn.op
    if op is _OP_MRS:
        return 0x010F0000 | (int(insn.spsr) << 22) | (insn.rd << 12)
    if op is _OP_MSR:
        return 0x0120F000 | (int(insn.spsr) << 22) | (insn.imm << 16) | insn.rm
    if op is _OP_MCR or op is _OP_MRC:
        word = 0x0E000F10  # coprocessor 15
        word |= (insn.cp_op1 << 21) | (insn.cp_crn << 16) | (insn.rd << 12)
        word |= (insn.cp_op2 << 5) | insn.cp_crm
        if op is _OP_MRC:
            word |= 1 << 20
        return word
    if op is _OP_VMRS:
        return 0x0EF10A10 | (insn.rd << 12)
    if op is _OP_VMSR:
        return 0x0EE10A10 | (insn.rd << 12)
    if op is _OP_SVC:
        return 0x0F000000 | (insn.imm & 0xFFFFFF)
    if op is _OP_WFI:
        return 0x0320F003
    if op is _OP_NOP:
        return 0x0320F000
    if op is _OP_CLZ:
        return 0x016F0F10 | (insn.rd << 12) | insn.rm
    raise EncodingError(f"cannot encode {op}")


def _encode_bx(insn: ArmInsn) -> int:
    return 0x012FFF10 | insn.rm


#: Each op's encoder; an op not listed is a system instruction.
_ENCODERS = {
    **dict.fromkeys(DATA_PROCESSING_OPS, _encode_data_processing),
    Op.MUL: _encode_multiply, Op.MLA: _encode_multiply,
    **dict.fromkeys(LOAD_OPS | STORE_OPS, _encode_word_byte_transfer),
    **dict.fromkeys(_HALFWORD_SH, _encode_halfword_transfer),
    Op.LDM: _encode_block_transfer, Op.STM: _encode_block_transfer,
    Op.B: _encode_branch, Op.BL: _encode_branch,
    Op.BX: _encode_bx,
    **dict.fromkeys((Op.VADD, Op.VSUB, Op.VMUL, Op.VCMP, Op.VLDR, Op.VSTR,
                     Op.VMOVSR, Op.VMOVRS), _encode_vfp),
}


def encode(insn: ArmInsn) -> int:
    """Encode *insn* to its 32-bit A32 machine word."""
    op = insn.op
    if op is _OP_CPS:
        # CPS is an unconditional encoding (cond field == 0b1111).
        imod = 0b10 if insn.cps_enable else 0b11
        return u32(0xF1000000 | (imod << 18) | (1 << 7))  # IRQ mask bit
    word = _ENCODERS.get(op, _encode_system)(insn)
    return u32(word | (insn.cond << 28))
