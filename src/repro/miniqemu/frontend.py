"""TCG frontend: ARM guest instructions -> IR.

This reproduces how QEMU's ARM target translates: guest registers live in
``env`` and are loaded/stored around every operation; condition codes are
computed *eagerly* into the four per-bit env fields on every flag-setting
instruction; conditionally-executed instructions branch over their body
after loading the flags from env; system-level instructions become helper
calls; loads/stores become ``QEMU_LD``/``QEMU_ST`` (softmmu).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.bitops import u32
from ..guest.isa import (COMPARE_OPS, DATA_PROCESSING_OPS, VFP_ARITH_OPS,
                         ArmInsn, Cond, Op, Operand2, PC, ShiftKind)
from ..ir.ops import IRBuilder, IRCond, Temp
from .env import (ENV_CF, ENV_IRQ, ENV_NF, ENV_VF, ENV_ZF, env_reg,
                  env_vfp)
from .helpers import (make_exception_return_helper, make_svc_helper,
                      make_sysreg_helper, make_undef_helper,
                      make_vfp_helper)
from .tb import EXIT_INTERRUPT, EXIT_PC_UPDATED

#: condition -> list of (env_offset_a, env_offset_b_or_None, IRCond) tests
#: that, when *true*, mean the condition FAILS (branch to skip).  For the
#: OR-style conditions a second structure is used (see _emit_cond_skip).

_SIMPLE_SKIP = {
    Cond.EQ: (ENV_ZF, IRCond.EQ),    # execute if Z==1 -> skip if Z==0
    Cond.NE: (ENV_ZF, IRCond.NE),
    Cond.CS: (ENV_CF, IRCond.EQ),
    Cond.CC: (ENV_CF, IRCond.NE),
    Cond.MI: (ENV_NF, IRCond.EQ),
    Cond.PL: (ENV_NF, IRCond.NE),
    Cond.VS: (ENV_VF, IRCond.EQ),
    Cond.VC: (ENV_VF, IRCond.NE),
}


class TcgFrontend:
    """Translates one guest basic block to IR."""

    def __init__(self, mmu_idx: int):
        self.mmu_idx = mmu_idx
        self.builder: Optional[IRBuilder] = None
        self.jmp_pcs: List[Optional[int]] = [None, None]

    # ------------------------------------------------------------------
    # TB-level entry point.
    # ------------------------------------------------------------------

    def translate(self, pc: int, insns: List[ArmInsn]):
        """Translate the block; returns (ir_insns, jmp_pcs)."""
        build = self.builder = IRBuilder()
        self.jmp_pcs = [None, None]
        self._ended = False

        # QEMU system mode: interrupt check at the start of every TB.
        irq_exit = build.new_label("irq")
        irq_flag = build.ld_env(ENV_IRQ)
        build.brcond(IRCond.NE, irq_flag, 0, irq_exit)

        for insn in insns:
            self._insn(insn)
            if self._ended:
                break
        if not self._ended:
            # Block fell through its size cap: chain to the next pc.
            last = insns[-1]
            self._end_goto_tb(0, u32(last.addr + 4))

        build.label(irq_exit)
        build.st_env(pc, env_reg(PC))
        build.exit_tb(EXIT_INTERRUPT)
        return build.insns, self.jmp_pcs

    # ------------------------------------------------------------------
    # Per-instruction translation.
    # ------------------------------------------------------------------

    def _insn(self, insn: ArmInsn) -> None:
        build = self.builder
        build.current_pc = insn.addr
        skip_label = None
        if insn.cond != Cond.AL:
            skip_label = build.new_label("skip")
            self._emit_cond_skip(insn.cond, skip_label)

        self._body(insn)

        if skip_label is not None:
            if self._ended:
                # A conditional block-ender (b<cond>, conditional pc write):
                # the skip path continues at the next instruction, which is
                # a new TB reached through goto_tb slot 1.
                build.label(skip_label)
                self._ended = False
                self._end_goto_tb(1, u32(insn.addr + 4))
            else:
                build.label(skip_label)

    def _body(self, insn: ArmInsn) -> None:  # noqa: C901
        op = insn.op
        if insn.is_system():
            self._system(insn)
        elif op in DATA_PROCESSING_OPS:
            self._data_processing(insn)
        elif op in (Op.MUL, Op.MLA):
            self._multiply(insn)
        elif op in (Op.LDR, Op.LDRB, Op.LDRH, Op.LDRSB, Op.LDRSH, Op.STR,
                    Op.STRB, Op.STRH):
            self._single_transfer(insn)
        elif op in (Op.LDM, Op.STM):
            self._block_transfer(insn)
        elif op in (Op.B, Op.BL):
            self._direct_branch(insn)
        elif op is Op.BX:
            value = self.builder.ld_env(env_reg(insn.rm))
            masked = self.builder.and_(value, 0xFFFFFFFE)
            self._end_indirect(masked)
        elif op is Op.CLZ:
            self._clz(insn)
        elif op in VFP_ARITH_OPS or op is Op.VCMP:
            # Floating point goes through softfloat helpers, as in QEMU.
            self.builder.call(make_vfp_helper(insn))
        elif op in (Op.VLDR, Op.VSTR):
            self._vfp_transfer(insn)
        elif op is Op.VMOVSR:
            value = self.builder.ld_env(env_reg(insn.rd)) \
                if insn.rd != PC else self.builder.movi(insn.addr + 8)
            self.builder.st_env(value, env_vfp(insn.fn))
        elif op is Op.VMOVRS:
            value = self.builder.ld_env(env_vfp(insn.fn))
            self.builder.st_env(value, env_reg(insn.rd))
        elif op is Op.NOP:
            pass
        else:
            self._system(insn)  # anything else is helper territory

    # -- conditions --------------------------------------------------------

    def _emit_cond_skip(self, cond: Cond, skip_label: str) -> None:
        """Branch to *skip_label* when *cond* fails (QEMU-style)."""
        build = self.builder
        if cond in _SIMPLE_SKIP:
            offset, ircond = _SIMPLE_SKIP[cond]
            flag = build.ld_env(offset)
            build.brcond(ircond, flag, 0, skip_label)
            return
        if cond == Cond.GE:
            n, v = build.ld_env(ENV_NF), build.ld_env(ENV_VF)
            build.brcond(IRCond.NE, n, v, skip_label)
        elif cond == Cond.LT:
            n, v = build.ld_env(ENV_NF), build.ld_env(ENV_VF)
            build.brcond(IRCond.EQ, n, v, skip_label)
        elif cond == Cond.HI:  # C==1 && Z==0
            c, z = build.ld_env(ENV_CF), build.ld_env(ENV_ZF)
            build.brcond(IRCond.EQ, c, 0, skip_label)
            build.brcond(IRCond.NE, z, 0, skip_label)
        elif cond == Cond.LS:  # C==0 || Z==1; skip when C==1 && Z==0
            c, z = build.ld_env(ENV_CF), build.ld_env(ENV_ZF)
            execute = build.new_label("exec")
            build.brcond(IRCond.EQ, c, 0, execute)
            build.brcond(IRCond.NE, z, 0, execute)
            build.br(skip_label)
            build.label(execute)
        elif cond == Cond.GT:  # Z==0 && N==V
            z = build.ld_env(ENV_ZF)
            build.brcond(IRCond.NE, z, 0, skip_label)
            n, v = build.ld_env(ENV_NF), build.ld_env(ENV_VF)
            build.brcond(IRCond.NE, n, v, skip_label)
        elif cond == Cond.LE:  # Z==1 || N!=V; skip when Z==0 && N==V
            z = build.ld_env(ENV_ZF)
            execute = build.new_label("exec")
            build.brcond(IRCond.NE, z, 0, execute)
            n, v = build.ld_env(ENV_NF), build.ld_env(ENV_VF)
            build.brcond(IRCond.NE, n, v, execute)
            build.br(skip_label)
            build.label(execute)
        else:
            raise ValueError(f"unexpected condition {cond}")

    # -- operand helpers ------------------------------------------------------

    def _read_reg(self, number: int, insn: ArmInsn) -> Temp:
        if number == PC:
            return self.builder.movi(u32(insn.addr + 8))
        return self.builder.ld_env(env_reg(number))

    def _shifter(self, op2: Operand2, insn: ArmInsn, want_carry: bool):
        """Evaluate operand2; returns (value, carry_temp_or_None).

        carry is returned only when *want_carry*; None means "the C flag
        is unchanged by the shifter".
        """
        build = self.builder
        if op2.is_imm:
            if want_carry and op2.imm > 0xFF:
                return op2.imm, build.movi((op2.imm >> 31) & 1)
            return op2.imm, None
        value = self._read_reg(op2.rm, insn)
        if op2.rs is not None:
            return self._register_shift(value, op2, insn, want_carry)
        return self._immediate_shift(value, op2, want_carry)

    def _immediate_shift(self, value: Temp, op2: Operand2, want_carry: bool):
        build = self.builder
        kind, amount = op2.shift, op2.shift_imm
        carry = None
        if kind == ShiftKind.LSL:
            if amount == 0:
                return value, None
            if want_carry:
                bit_index = 32 - amount
                carry = build.and_(build.shr(value, bit_index), 1)
            return build.shl(value, amount), carry
        if kind == ShiftKind.LSR:
            if want_carry:
                carry = build.and_(build.shr(value, amount - 1), 1)
            if amount == 32:
                return build.movi(0), carry
            return build.shr(value, amount), carry
        if kind == ShiftKind.ASR:
            if want_carry:
                carry = build.and_(build.shr(value, min(amount, 31)
                                             if amount != 32 else 31), 1) \
                    if amount == 32 else \
                    build.and_(build.shr(value, amount - 1), 1)
            if amount == 32:
                return build.sar(value, 31), carry
            return build.sar(value, amount), carry
        if kind == ShiftKind.ROR:
            result = build.ror(value, amount)
            if want_carry:
                carry = build.and_(build.shr(result, 31), 1)
            return result, carry
        # RRX: result = (C << 31) | (value >> 1); carry-out = bit 0.
        old_c = build.ld_env(ENV_CF)
        high = build.shl(old_c, 31)
        result = build.or_(build.shr(value, 1), high)
        if want_carry:
            carry = build.and_(value, 1)
        return result, carry

    def _register_shift(self, value: Temp, op2: Operand2, insn: ArmInsn,
                        want_carry: bool):
        """Shift by a register amount (0..255), ARM semantics for >=32."""
        build = self.builder
        amount = build.and_(build.ld_env(env_reg(op2.rs)), 0xFF)
        kind = op2.shift
        if kind in (ShiftKind.LSL, ShiftKind.LSR):
            shifted = build.shl(value, amount) if kind == ShiftKind.LSL \
                else build.shr(value, amount)
            # Zero the result when amount >= 32 (x86 masks to 5 bits).
            in_range = build.setcond(IRCond.LTU, amount, 32)
            mask = build.sub(0, in_range)            # 0xffffffff or 0
            result = build.and_(shifted, mask)
            carry = None
            if want_carry:
                # Approximation documented in DESIGN.md: correct for
                # amounts 0..31 (compilers do not emit larger S-shifts).
                edge = build.sub(amount, 1)
                probe = build.shr(value, edge) if kind == ShiftKind.LSR \
                    else build.shr(value, build.sub(32, amount))
                carry = build.and_(probe, 1)
            return result, carry
        if kind == ShiftKind.ASR:
            clamp = build.setcond(IRCond.GEU, amount, 32)
            over = build.sub(0, clamp)
            clamped = build.or_(build.and_(amount, build.not_(over)),
                                build.and_(31, over))
            result = build.sar(value, clamped)
            carry = None
            if want_carry:
                carry = build.and_(build.shr(result, 31), 1)
            return result, carry
        # ROR by register: amount mod 32.
        result = build.ror(value, build.and_(amount, 31))
        carry = build.and_(build.shr(result, 31), 1) if want_carry else None
        return result, carry

    # -- flag stores ---------------------------------------------------------------

    def _store_nz(self, result: Temp) -> None:
        build = self.builder
        build.st_env(build.and_(build.shr(result, 31), 1), ENV_NF)
        build.st_env(build.setcond(IRCond.EQ, result, 0), ENV_ZF)

    def _store_add_cv(self, a, b, result) -> None:
        build = self.builder
        build.st_env(build.setcond(IRCond.LTU, result, a), ENV_CF)
        overflow = build.and_(build.xor(a, result),
                              build.not_(build.xor(a, b)))
        build.st_env(build.and_(build.shr(overflow, 31), 1), ENV_VF)

    def _store_sub_cv(self, a, b, result) -> None:
        build = self.builder
        build.st_env(build.setcond(IRCond.GEU, a, b), ENV_CF)
        overflow = build.and_(build.xor(a, result), build.xor(a, b))
        build.st_env(build.and_(build.shr(overflow, 31), 1), ENV_VF)

    # -- instruction families ---------------------------------------------------------

    def _data_processing(self, insn: ArmInsn) -> None:  # noqa: C901
        build = self.builder
        op = insn.op
        logical = op in (Op.AND, Op.EOR, Op.TST, Op.TEQ, Op.ORR, Op.MOV,
                         Op.BIC, Op.MVN)
        want_carry = logical and (insn.set_flags or op in COMPARE_OPS)
        operand2, shifter_carry = self._shifter(insn.op2, insn, want_carry)
        needs_rn = op not in (Op.MOV, Op.MVN)
        operand1 = self._read_reg(insn.rn, insn) if needs_rn else None

        carry_in = None
        if op in (Op.ADC, Op.SBC, Op.RSC):
            carry_in = build.ld_env(ENV_CF)

        if op in (Op.AND, Op.TST):
            result = build.and_(operand1, operand2)
        elif op in (Op.EOR, Op.TEQ):
            result = build.xor(operand1, operand2)
        elif op in (Op.SUB, Op.CMP):
            result = build.sub(operand1, operand2)
        elif op is Op.RSB:
            result = build.sub(operand2, operand1)
        elif op in (Op.ADD, Op.CMN):
            result = build.add(operand1, operand2)
        elif op is Op.ADC:
            result = build.add(build.add(operand1, operand2), carry_in)
        elif op is Op.SBC:
            borrow = build.xor(carry_in, 1)
            result = build.sub(build.sub(operand1, operand2), borrow)
        elif op is Op.RSC:
            borrow = build.xor(carry_in, 1)
            result = build.sub(build.sub(operand2, operand1), borrow)
        elif op is Op.ORR:
            result = build.or_(operand1, operand2)
        elif op is Op.MOV:
            result = operand2 if isinstance(operand2, Temp) \
                else build.movi(operand2)
        elif op is Op.BIC:
            result = build.and_(operand1, build.not_(
                operand2 if isinstance(operand2, Temp)
                else build.movi(operand2)))
        else:  # MVN
            result = build.not_(operand2 if isinstance(operand2, Temp)
                                else build.movi(operand2))

        if insn.set_flags or op in COMPARE_OPS:
            self._store_nz(result)
            if logical:
                if shifter_carry is not None:
                    build.st_env(shifter_carry, ENV_CF)
            elif op in (Op.ADD, Op.CMN):
                self._store_add_cv(operand1, operand2, result)
            elif op in (Op.SUB, Op.CMP):
                self._store_sub_cv(operand1, operand2, result)
            elif op is Op.RSB:
                self._store_sub_cv(operand2, operand1, result)
            else:
                # ADC/SBC/RSC: full AddWithCarry flag semantics.
                self._store_carry_chain(op, operand1, operand2, carry_in,
                                        result)

        if op in COMPARE_OPS:
            return
        if insn.rd == PC:
            masked = build.and_(result, 0xFFFFFFFC)
            self._end_indirect(masked)
            return
        build.st_env(result, env_reg(insn.rd))

    def _store_carry_chain(self, op, a, b, carry_in, result) -> None:
        """C/V for ADC/SBC/RSC (a 64-bit-free formulation)."""
        build = self.builder
        if op is Op.ADC:
            # C = (result < a) || (carry_in && result == a)
            low = build.setcond(IRCond.LTU, result, a)
            same = build.setcond(IRCond.EQ, result, a)
            build.st_env(build.or_(low, build.and_(same, carry_in)), ENV_CF)
            overflow = build.and_(build.xor(a, result),
                                  build.not_(build.xor(a, b)))
        else:
            if op is Op.RSC:
                a, b = b, a
            # a - b - (1-c): no-borrow iff a >= b + (1-c) in 33-bit space:
            # C = (a > b) || (a == b && carry_in)
            greater = build.setcond(IRCond.GTU, a, b)
            equal = build.setcond(IRCond.EQ, a, b)
            build.st_env(build.or_(greater, build.and_(equal, carry_in)),
                         ENV_CF)
            overflow = build.and_(build.xor(a, result), build.xor(a, b))
        build.st_env(build.and_(build.shr(overflow, 31), 1), ENV_VF)

    def _multiply(self, insn: ArmInsn) -> None:
        build = self.builder
        product = build.mul(self._read_reg(insn.rm, insn),
                            self._read_reg(insn.rs, insn))
        if insn.op is Op.MLA:
            product = build.add(product, self._read_reg(insn.rn, insn))
        build.st_env(product, env_reg(insn.rd))
        if insn.set_flags:
            self._store_nz(product)

    def _clz(self, insn: ArmInsn) -> None:
        build = self.builder
        value = self._read_reg(insn.rm, insn)
        # clz(x) = 31 - bsr(x), with clz(0) = 32.  Express via IR ops the
        # backend lowers to bsr + arithmetic.
        zero = build.setcond(IRCond.EQ, value, 0)
        # Set bit 0 so bsr is defined, then correct: clz(x|1) == clz(x)
        # for x != 0, and the zero case is patched with +1.
        safe = build.or_(value, 1)
        low = build.movi(0)
        index = low
        for shift in (16, 8, 4, 2, 1):
            # binary search for the top bit: if (safe >> (index+shift)) != 0
            probe = build.shr(safe, build.add(index, shift))
            nonzero = build.setcond(IRCond.NE, probe, 0)
            index = build.add(index, build.mul(nonzero, shift))
        clz = build.sub(31, index)
        clz = build.add(clz, zero)
        build.st_env(clz, env_reg(insn.rd))

    def _mem_address(self, insn: ArmInsn):
        build = self.builder
        base = self._read_reg(insn.rn, insn)
        if insn.mem_offset_reg is not None:
            offset, _ = self._immediate_shift(
                self._read_reg(insn.mem_offset_reg, insn),
                Operand2.register(insn.mem_offset_reg, insn.mem_shift,
                                  insn.mem_shift_imm), False)
            combine = build.add if insn.add_offset else build.sub
            offset_temp = offset
        elif insn.mem_offset_imm:
            combine = build.add if insn.add_offset else build.sub
            offset_temp = insn.mem_offset_imm
        else:
            return base, base
        new_base = combine(base, offset_temp)
        address = new_base if insn.pre_indexed else base
        return address, new_base

    def _single_transfer(self, insn: ArmInsn) -> None:
        build = self.builder
        size = {Op.LDR: 4, Op.STR: 4, Op.LDRB: 1, Op.STRB: 1, Op.LDRH: 2,
                Op.STRH: 2, Op.LDRSB: 1, Op.LDRSH: 2}[insn.op]
        signed = insn.op in (Op.LDRSB, Op.LDRSH)
        address, new_base = self._mem_address(insn)
        writeback = (not insn.pre_indexed) or insn.writeback
        if insn.op in (Op.STR, Op.STRB, Op.STRH):
            value = self._read_reg(insn.rd, insn)
            build.qemu_st(value, address, size)
        else:
            value = build.qemu_ld(address, size, signed)
        if writeback and insn.rn != insn.rd:
            build.st_env(new_base, env_reg(insn.rn))
        if insn.op not in (Op.STR, Op.STRB, Op.STRH):
            if insn.rd == PC:
                masked = build.and_(value, 0xFFFFFFFC)
                self._end_indirect(masked)
                return
            build.st_env(value, env_reg(insn.rd))

    def _block_transfer(self, insn: ArmInsn) -> None:
        build = self.builder
        count = len(insn.reglist)
        base = build.ld_env(env_reg(insn.rn))
        if insn.increment:
            start = build.add(base, 4) if insn.before else base
            new_base = build.add(base, 4 * count)
        else:
            delta = -4 * count + (0 if insn.before else 4)
            start = build.add(base, delta & 0xFFFFFFFF)
            new_base = build.add(base, (-4 * count) & 0xFFFFFFFF)
        pc_value = None
        address = start
        for position, reg in enumerate(sorted(insn.reglist)):
            if position:
                address = build.add(address, 4)
            if insn.op is Op.STM:
                build.qemu_st(self._read_reg(reg, insn), address, 4)
            else:
                value = build.qemu_ld(address, 4)
                if reg == PC:
                    pc_value = value
                else:
                    build.st_env(value, env_reg(reg))
        if insn.writeback:
            build.st_env(new_base, env_reg(insn.rn))
        if pc_value is not None:
            masked = build.and_(pc_value, 0xFFFFFFFC)
            self._end_indirect(masked)

    def _vfp_transfer(self, insn: ArmInsn) -> None:
        build = self.builder
        base = self._read_reg(insn.rn, insn)
        offset = insn.mem_offset_imm
        if offset:
            address = build.add(base, offset) if insn.add_offset \
                else build.sub(base, offset)
        else:
            address = base
        if insn.op is Op.VLDR:
            value = build.qemu_ld(address, 4)
            build.st_env(value, env_vfp(insn.fd))
        else:
            value = build.ld_env(env_vfp(insn.fd))
            build.qemu_st(value, address, 4)

    def _direct_branch(self, insn: ArmInsn) -> None:
        build = self.builder
        if insn.op is Op.BL:
            build.st_env(u32(insn.addr + 4), env_reg(14))
        self._end_goto_tb(0, insn.target)

    # -- system level ------------------------------------------------------------------

    def _system(self, insn: ArmInsn) -> None:
        build = self.builder
        op = insn.op
        if op is Op.SVC:
            build.call(make_svc_helper(insn))
            self._ended = True  # helper never returns (raises TbExit)
            return
        if insn.op in DATA_PROCESSING_OPS and insn.set_flags and \
                insn.rd == PC:
            # Exception return: compute the target with normal DP rules
            # (no shifter carry: the helper replaces the whole CPSR),
            # then hand CPSR<-SPSR to the helper.
            operand2, _ = self._shifter(insn.op2, insn, False)
            if op is Op.MOV:
                target = operand2 if isinstance(operand2, Temp) \
                    else build.movi(operand2)
            elif op is Op.SUB:
                target = build.sub(self._read_reg(insn.rn, insn), operand2)
            elif op is Op.ADD:
                target = build.add(self._read_reg(insn.rn, insn), operand2)
            else:
                build.call(make_undef_helper(insn))
                self._ended = True
                return
            build.call(make_exception_return_helper(insn), args=(target,))
            self._ended = True
            return
        # mrs/msr/mcr/mrc/vmrs/vmsr/cps/wfi: one helper call, then end the
        # TB (the helper may have changed the mode, MMU or interrupt state).
        build.call(make_sysreg_helper(insn))
        build.st_env(u32(insn.addr + 4), env_reg(PC))
        build.exit_tb(EXIT_PC_UPDATED)
        self._ended = True

    # -- TB terminators -------------------------------------------------------------------

    def _end_goto_tb(self, slot: int, target_pc: int) -> None:
        build = self.builder
        build.goto_tb(slot)
        build.st_env(u32(target_pc), env_reg(PC))
        build.exit_tb(EXIT_PC_UPDATED)
        self.jmp_pcs[slot] = u32(target_pc)
        self._ended = True

    def _end_indirect(self, pc_temp: Temp) -> None:
        build = self.builder
        build.st_env(pc_temp, env_reg(PC))
        build.exit_tb(EXIT_PC_UPDATED)
        self._ended = True
