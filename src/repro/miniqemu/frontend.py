"""TCG frontend: ARM guest instructions -> IR.

This reproduces how QEMU's ARM target translates: guest registers live in
``env`` and are loaded/stored around every operation; condition codes are
computed *eagerly* into the four per-bit env fields on every flag-setting
instruction; conditionally-executed instructions branch over their body
after loading the flags from env; system-level instructions become helper
calls; loads/stores become ``QEMU_LD``/``QEMU_ST`` (softmmu).
"""

from __future__ import annotations

import ast
import functools
from typing import List, Optional, Tuple

from ..common.bitops import MASK32, u32
from ..common.texts import evaluate_text
from ..guest.isa import (ACCESS_SIZE, DATA_PROCESSING_OPS, VFP_ARITH_OPS,
                         ArmInsn, Cond, Op, Operand2, PC, ShiftKind)
from ..guest.ops import COND_TEXTS, DP_ROWS, N_TEXT, Z_TEXT
from ..ir.ops import IRBuilder, IRCond, Src, Temp
from .env import (ENV_CF, ENV_FLAG_OFFSETS, ENV_IRQ, ENV_NF, ENV_VF, ENV_ZF,
                  env_reg, env_vfp)
from .helpers import (make_exception_return_helper, make_svc_helper,
                      make_sysreg_helper, make_undef_helper,
                      make_vfp_helper)
from .tb import EXIT_INTERRUPT, EXIT_PC_UPDATED

#: The N and Z texts by the env field they set.
_NZ = {ENV_NF: N_TEXT, ENV_ZF: Z_TEXT}


@functools.lru_cache(maxsize=None)
def _cond_tests(cond: Cond) -> Tuple[bool, List[Tuple[str, Optional[str],
                                                      bool]]]:
    """*cond*'s text (``guest/ops.py``) as ``(either, tests)``: its
    tests, joined by ``or`` when *either* else by ``and``, each
    ``(flag, other flag or None for 0, holds when the two are equal)``."""
    tree = ast.parse(COND_TEXTS[cond], mode="eval").body
    tests = []
    for test in tree.values if isinstance(tree, ast.BoolOp) else [tree]:
        if isinstance(test, ast.Compare):           # n == v, n != v
            tests.append((test.left.id, test.comparators[0].id,
                          isinstance(test.ops[0], ast.Eq)))
        elif isinstance(test, ast.UnaryOp):         # not f
            tests.append((test.operand.id, None, True))
        else:                                       # f
            tests.append((test.id, None, False))
    return isinstance(getattr(tree, "op", None), ast.Or), tests


class _IRTexts:
    """The operators of the ARM texts (``guest/ops.py``) as IR.  Temps
    are 32 bits wide, so ``& 0xFFFFFFFF`` is the identity."""

    def __init__(self, build: IRBuilder):
        self.build = build
        self.add, self.sub, self.or_, self.xor, self.rshift = \
            build.add, build.sub, build.or_, build.xor, build.shr
        self.both, self.either = build.and_, build.or_

    def and_(self, a: Src, b: Src) -> Src:
        return a if b == MASK32 else self.build.and_(a, b)

    def invert(self, a: Src) -> Temp:
        return self.build.not_(a if isinstance(a, Temp)
                               else self.build.movi(a))

    def lt(self, a: Src, b: Src) -> Temp:
        return self.build.setcond(IRCond.LTU, a, b)

    def gt(self, a: Src, b: Src) -> Temp:
        return self.build.setcond(IRCond.GTU, a, b)

    def ge(self, a: Src, b: Src) -> Temp:
        return self.build.setcond(IRCond.GEU, a, b)

    def eq(self, a: Src, b: Src) -> Temp:
        return self.build.setcond(IRCond.EQ, a, b)


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

    def lower_body(self, insn: ArmInsn):
        """Lower the body of one instruction alone: no interrupt check,
        no condition skip, no block end.  Returns ``(ir_insns, ended)``,
        *ended* when the body itself leaves the TB."""
        build = self.builder = IRBuilder()
        build.current_pc = insn.addr
        self.jmp_pcs = [None, None]
        self._ended = False
        self._body(insn)
        return build.insns, self._ended

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
        elif op in ACCESS_SIZE:
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
        """Branch to *skip_label* when *cond* fails (QEMU-style): on the
        first ``and`` test that fails, or past the skip on the first
        ``or`` test that holds.  A one-flag test's flag loads before any
        branch, a comparison's flags just before its own."""
        build = self.builder
        either, tests = _cond_tests(cond)

        def load(flag: str) -> Temp:
            return build.ld_env(ENV_FLAG_OFFSETS[flag])

        flags = {flag: load(flag) for flag, other, _ in tests
                 if other is None}
        target = build.new_label("exec") if either else skip_label
        for flag, other, holds_equal in tests:
            left, right = (flags[flag], 0) if other is None else (
                load(flag), load(other))
            build.brcond(IRCond.EQ if holds_equal == either else IRCond.NE,
                         left, right, target)
        if either:
            build.br(skip_label)
            build.label(target)

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
                carry = build.and_(build.shr(value, amount - 1
                                             if amount < 32 else 31), 1)
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

    # -- data processing -------------------------------------------------

    def _store_flags(self, texts, names) -> None:
        """Store each flag text of *texts* (env offset -> text) over
        *names*, in order."""
        algebra = _IRTexts(self.builder)
        for offset, text in texts.items():
            self.builder.st_env(evaluate_text(text, algebra, names), offset)

    def _dp_result(self, insn: ArmInsn, want_carry: bool):
        """Lower *insn*'s row up to its result: ``(result, names,
        shifter carry)``, *names* binding the row's text names to IR."""
        row = DP_ROWS[insn.op]
        operand2, shifter_carry = self._shifter(insn.op2, insn, want_carry)
        names = {"b": operand2}
        if row.reads_a:
            names["a"] = self._read_reg(insn.rn, insn)
        if row.reads_c:
            names["c"] = self.builder.ld_env(ENV_CF)
        algebra = _IRTexts(self.builder)
        if row.t is not None:
            names["t"] = evaluate_text(row.t, algebra, names)
        result = evaluate_text(row.result, algebra, names)
        if not isinstance(result, Temp):
            result = self.builder.movi(result)
        names["r"] = result
        return result, names, shifter_carry

    def _data_processing(self, insn: ArmInsn) -> None:
        build = self.builder
        row = DP_ROWS[insn.op]
        sets_flags = insn.set_flags or not row.writes_rd
        result, names, shifter_carry = self._dp_result(
            insn, sets_flags and row.logical)
        if sets_flags:
            self._store_flags(_NZ if row.logical else {
                **_NZ, ENV_CF: row.carry, ENV_VF: row.overflow}, names)
            if shifter_carry is not None:
                build.st_env(shifter_carry, ENV_CF)
        if not row.writes_rd:
            return
        if insn.rd == PC:
            masked = build.and_(result, 0xFFFFFFFC)
            self._end_indirect(masked)
            return
        build.st_env(result, env_reg(insn.rd))

    def _multiply(self, insn: ArmInsn) -> None:
        build = self.builder
        product = build.mul(self._read_reg(insn.rm, insn),
                            self._read_reg(insn.rs, insn))
        if insn.op is Op.MLA:
            product = build.add(product, self._read_reg(insn.rn, insn))
        build.st_env(product, env_reg(insn.rd))
        if insn.set_flags:
            self._store_flags(_NZ, {"r": product})

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
        size = ACCESS_SIZE[insn.op]
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
            if op not in (Op.MOV, Op.SUB, Op.ADD):
                self._shifter(insn.op2, insn, False)
                build.call(make_undef_helper(insn))
                self._ended = True
                return
            target, _, _ = self._dp_result(insn, False)
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
