"""ARM A32 binary decoder: 32-bit word -> :class:`~repro.guest.isa.ArmInsn`.

Inverse of :mod:`repro.guest.encoder`; unknown words raise
:class:`~repro.common.errors.DecodingError`.
"""

from __future__ import annotations

from ..common.bitops import bit, bits, decode_arm_imm, sign_extend, u32
from ..common.errors import DecodingError
from .isa import (ArmInsn, Cond, Op, Operand2, ShiftKind)

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_B = Op.B
_OP_BL = Op.BL
_OP_BX = Op.BX
_OP_CLZ = Op.CLZ
_OP_CPS = Op.CPS
_OP_LDM = Op.LDM
_OP_LDR = Op.LDR
_OP_LDRB = Op.LDRB
_OP_MCR = Op.MCR
_OP_MLA = Op.MLA
_OP_MRC = Op.MRC
_OP_MRS = Op.MRS
_OP_MSR = Op.MSR
_OP_MUL = Op.MUL
_OP_NOP = Op.NOP
_OP_STM = Op.STM
_OP_STR = Op.STR
_OP_STRB = Op.STRB
_OP_STRH = Op.STRH
_OP_SVC = Op.SVC
_OP_VADD = Op.VADD
_OP_VCMP = Op.VCMP
_OP_VLDR = Op.VLDR
_OP_VMOVRS = Op.VMOVRS
_OP_VMOVSR = Op.VMOVSR
_OP_VMRS = Op.VMRS
_OP_VMSR = Op.VMSR
_OP_VMUL = Op.VMUL
_OP_VSTR = Op.VSTR
_OP_VSUB = Op.VSUB
_OP_WFI = Op.WFI
_COND_AL = Cond.AL
_SHIFT_ASR = ShiftKind.ASR
_SHIFT_LSR = ShiftKind.LSR
_SHIFT_ROR = ShiftKind.ROR
_SHIFT_RRX = ShiftKind.RRX

_DP_BY_OPCODE = {op.value: op for op in Op if isinstance(op.value, int)}
_COMPARES = {0x8, 0x9, 0xA, 0xB}
_HALFWORD_LOADS = {0b01: Op.LDRH, 0b10: Op.LDRSB, 0b11: Op.LDRSH}   # by S,H


def _decode_shift(word: int) -> Operand2:
    rm = bits(word, 3, 0)
    shift_kind = ShiftKind(bits(word, 6, 5))
    if bit(word, 4):
        return Operand2.register(rm, shift_kind, rs=bits(word, 11, 8))
    shift_imm = bits(word, 11, 7)
    if shift_kind == _SHIFT_ROR and shift_imm == 0:
        return Operand2.register(rm, _SHIFT_RRX)
    if shift_kind in (_SHIFT_LSR, _SHIFT_ASR) and shift_imm == 0:
        shift_imm = 32  # LSR/ASR #0 encodes a shift of 32
    return Operand2.register(rm, shift_kind, shift_imm)


def _decode_data_processing(word: int, insn_addr: int) -> ArmInsn:
    opcode = bits(word, 24, 21)
    op = _DP_BY_OPCODE[opcode]
    set_flags = bool(bit(word, 20))
    if opcode in _COMPARES and not set_flags:
        raise DecodingError(word, insn_addr)  # MRS/MSR space, handled earlier
    if bit(word, 25):
        op2 = Operand2.immediate(decode_arm_imm(bits(word, 11, 8),
                                                bits(word, 7, 0)))
    else:
        op2 = _decode_shift(word)
    # Compare ops have an SBZ Rd field, MOV/MVN an SBZ Rn: normalize.
    rd = 0 if opcode in _COMPARES else bits(word, 15, 12)
    rn = 0 if opcode in (0xD, 0xF) else bits(word, 19, 16)
    return ArmInsn(op=op, set_flags=set_flags and opcode not in _COMPARES,
                   rd=rd, rn=rn, op2=op2, addr=insn_addr)


def _decode_word_byte_transfer(word: int, insn_addr: int) -> ArmInsn:
    load = bool(bit(word, 20))
    byte = bool(bit(word, 22))
    if load:
        op = _OP_LDRB if byte else _OP_LDR
    else:
        op = _OP_STRB if byte else _OP_STR
    pre = bool(bit(word, 24))
    insn = ArmInsn(op=op, rd=bits(word, 15, 12), rn=bits(word, 19, 16),
                   pre_indexed=pre, add_offset=bool(bit(word, 23)),
                   # Post-indexed writeback is implicit (W=1 there encodes
                   # the unsupported LDRT/STRT user-mode variants).
                   writeback=bool(bit(word, 21)) and pre, addr=insn_addr)
    if bit(word, 25):
        insn.mem_offset_reg = bits(word, 3, 0)
        insn.mem_shift = ShiftKind(bits(word, 6, 5))
        insn.mem_shift_imm = bits(word, 11, 7)
    else:
        insn.mem_offset_imm = bits(word, 11, 0)
    return insn


def _decode_halfword_transfer(word: int, insn_addr: int) -> ArmInsn:
    load = bool(bit(word, 20))
    sh = (bit(word, 6) << 1) | bit(word, 5)  # S,H bits
    if load:
        op = _HALFWORD_LOADS.get(sh)
    else:
        op = _OP_STRH if sh == 0b01 else None
    if op is None:
        raise DecodingError(word, insn_addr)
    pre = bool(bit(word, 24))
    insn = ArmInsn(op=op, rd=bits(word, 15, 12), rn=bits(word, 19, 16),
                   pre_indexed=pre, add_offset=bool(bit(word, 23)),
                   writeback=bool(bit(word, 21)) and pre, addr=insn_addr)
    if bit(word, 22):
        insn.mem_offset_imm = (bits(word, 11, 8) << 4) | bits(word, 3, 0)
    else:
        insn.mem_offset_reg = bits(word, 3, 0)
    return insn


def _decode_block_transfer(word: int, insn_addr: int) -> ArmInsn:
    reglist = [r for r in range(16) if bit(word, r)]
    return ArmInsn(op=_OP_LDM if bit(word, 20) else _OP_STM,
                   rn=bits(word, 19, 16), reglist=reglist,
                   before=bool(bit(word, 24)), increment=bool(bit(word, 23)),
                   writeback=bool(bit(word, 21)), addr=insn_addr)


def _decode_misc(word: int, insn_addr: int) -> ArmInsn:
    """Decode the 000-group space that is not plain data processing."""
    if word & 0x0FFFFFF0 == 0x012FFF10:
        return ArmInsn(op=_OP_BX, rm=bits(word, 3, 0), addr=insn_addr)
    if word & 0x0FFF0FF0 == 0x016F0F10:
        return ArmInsn(op=_OP_CLZ, rd=bits(word, 15, 12), rm=bits(word, 3, 0),
                       addr=insn_addr)
    if word & 0x0FBF0FFF == 0x010F0000:
        return ArmInsn(op=_OP_MRS, rd=bits(word, 15, 12),
                       spsr=bool(bit(word, 22)), addr=insn_addr)
    if word & 0x0FB0FFF0 == 0x0120F000:
        return ArmInsn(op=_OP_MSR, rm=bits(word, 3, 0), imm=bits(word, 19, 16),
                       spsr=bool(bit(word, 22)), addr=insn_addr)
    if word & 0x0FC000F0 == 0x90:  # mul/mla (bit 21 selects accumulate)
        op = _OP_MLA if bit(word, 21) else _OP_MUL
        return ArmInsn(op=op, rd=bits(word, 19, 16),
                       rn=bits(word, 15, 12) if op is _OP_MLA else 0,
                       rs=bits(word, 11, 8), rm=bits(word, 3, 0),
                       set_flags=bool(bit(word, 20)), addr=insn_addr)
    if word & 0x0FFFF0FF == 0x0320F003:
        return ArmInsn(op=_OP_WFI, addr=insn_addr)
    if word & 0x0FFFF0FF == 0x0320F000:
        return ArmInsn(op=_OP_NOP, addr=insn_addr)
    raise DecodingError(word, insn_addr)


def decode(word: int, insn_addr: int = 0) -> ArmInsn:
    """Decode the 32-bit machine word at *insn_addr*."""
    cond_field = bits(word, 31, 28)
    if cond_field == 0xF:
        if word & 0x0FF00000 == 0x01000000 and bit(word, 7):
            imod = bits(word, 19, 18)
            insn = ArmInsn(op=_OP_CPS, cps_enable=(imod == 0b10),
                           addr=insn_addr)
            insn.cond = _COND_AL
            insn.raw = u32(word)
            return insn
        raise DecodingError(word, insn_addr)
    cond = Cond(cond_field)
    group = bits(word, 27, 25)

    insn = None
    if group in (0b000, 0b001):
        is_immediate = group == 0b001
        opcode = bits(word, 24, 21)
        no_s = not bit(word, 20)
        if not is_immediate and (bit(word, 4) and bit(word, 7)):
            if bits(word, 6, 5):
                insn = _decode_halfword_transfer(word, insn_addr)
            else:
                insn = _decode_misc(word, insn_addr)  # mul/mla
        elif opcode in _COMPARES and no_s:
            insn = _decode_misc(word, insn_addr)  # mrs/msr/bx/clz/hints
        else:
            insn = _decode_data_processing(word, insn_addr)
    elif group in (0b010, 0b011):
        if group == 0b011 and bit(word, 4):
            raise DecodingError(word, insn_addr)  # media instructions
        insn = _decode_word_byte_transfer(word, insn_addr)
    elif group == 0b100:
        insn = _decode_block_transfer(word, insn_addr)
    elif group == 0b101:
        offset = sign_extend(bits(word, 23, 0), 24) << 2
        insn = ArmInsn(op=_OP_BL if bit(word, 24) else _OP_B,
                       target=(insn_addr + 8 + offset) & 0xFFFFFFFF,
                       addr=insn_addr)
    elif group == 0b110:
        # VFP single-precision loads/stores (coprocessor 10).
        if bits(word, 11, 8) == 0b1010 and bit(word, 21) == 0 and \
                bit(word, 24):
            fd = (bits(word, 15, 12) << 1) | bit(word, 22)
            insn = ArmInsn(op=_OP_VLDR if bit(word, 20) else _OP_VSTR,
                           fd=fd, rn=bits(word, 19, 16),
                           mem_offset_imm=bits(word, 7, 0) << 2,
                           add_offset=bool(bit(word, 23)), addr=insn_addr)
    elif group == 0b111:
        if bit(word, 24):
            insn = ArmInsn(op=_OP_SVC, imm=bits(word, 23, 0), addr=insn_addr)
        elif bit(word, 4):  # coprocessor register transfers
            if word & 0x0FF00FF0 == 0x0EF00A10:
                insn = ArmInsn(op=_OP_VMRS, rd=bits(word, 15, 12),
                               addr=insn_addr)
            elif word & 0x0FF00FF0 == 0x0EE00A10:
                insn = ArmInsn(op=_OP_VMSR, rd=bits(word, 15, 12),
                               addr=insn_addr)
            elif bits(word, 11, 8) == 0b1010 and \
                    word & 0x0FE00F7F == 0x0E000A10:
                fn = (bits(word, 19, 16) << 1) | bit(word, 7)
                op = _OP_VMOVRS if bit(word, 20) else _OP_VMOVSR
                insn = ArmInsn(op=op, fn=fn, rd=bits(word, 15, 12),
                               addr=insn_addr)
            else:
                op = _OP_MRC if bit(word, 20) else _OP_MCR
                insn = ArmInsn(op=op, cp_op1=bits(word, 23, 21),
                               cp_crn=bits(word, 19, 16),
                               rd=bits(word, 15, 12),
                               cp_op2=bits(word, 7, 5),
                               cp_crm=bits(word, 3, 0), addr=insn_addr)
        elif bits(word, 11, 9) == 0b101 and bit(word, 8) == 0:
            # VFP single-precision data processing.
            fd = (bits(word, 15, 12) << 1) | bit(word, 22)
            fn = (bits(word, 19, 16) << 1) | bit(word, 7)
            fm = (bits(word, 3, 0) << 1) | bit(word, 5)
            if word & 0x0FBF0FD0 == 0x0EB40A40:
                insn = ArmInsn(op=_OP_VCMP, fd=fd, fm=fm, addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E300A00:
                insn = ArmInsn(op=_OP_VADD, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E300A40:
                insn = ArmInsn(op=_OP_VSUB, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E200A00:
                insn = ArmInsn(op=_OP_VMUL, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
    if insn is None:
        raise DecodingError(word, insn_addr)
    insn.cond = cond
    insn.raw = u32(word)
    return insn
