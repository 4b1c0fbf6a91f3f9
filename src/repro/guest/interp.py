"""Reference ARMv7 interpreter.

This interpreter defines the architectural semantics against which both
DBT engines are differentially tested, and it doubles as the "native
execution" baseline for Figure 18 (one guest instruction == one unit of
native time).

It executes against a :class:`~repro.guest.cpu.GuestCpu` and a *bus*
object providing::

    fetch(vaddr) -> int            # 32-bit instruction fetch
    load(vaddr, size) -> int       # 1/2/4-byte data read (zero-extended)
    store(vaddr, size, value)      # 1/2/4-byte data write
    tlb_flush()                    # invalidate cached translations

Memory errors are raised as :class:`~repro.common.errors.MemoryFault` and
turned into guest data/prefetch aborts here, exactly as the softmmu slow
path does for the DBT engines.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..common.bitops import sign_extend, u32
from ..common.errors import DecodingError, MemoryFault, UndefinedInstruction
from .cpu import (CPSR_C, CPSR_I, CPSR_V, GuestCpu, MODE_ABT, MODE_IRQ,
                  MODE_SVC, MODE_UND, MODE_USR, VECTOR_DATA_ABORT,
                  VECTOR_IRQ, VECTOR_PREFETCH_ABORT, VECTOR_SVC,
                  VECTOR_UNDEF)
from .decoder import decode
from .flags import shift_with_carry
from .isa import (ACCESS_SIZE, DATA_PROCESSING_OPS, VFP_OPS, ArmInsn, Cond,
                  Op, Operand2, PC, LR)
from .ops import COND_TESTS, STEPS
from ..common.f32 import f32_add, f32_compare, f32_mul, f32_sub


def condition_passed(cond: Cond, cpsr: int) -> bool:
    """Evaluate an ARM condition code against CPSR NZCV."""
    return COND_TESTS[cond](cpsr >> 31, cpsr >> 30 & 1, cpsr >> 29 & 1,
                            cpsr >> 28 & 1)


class Interpreter:
    """Executes guest instructions one at a time (the reference engine)."""

    def __init__(self, cpu: GuestCpu, bus):
        self.cpu = cpu
        self.bus = bus
        self.icount = 0
        self._decode_cache: Dict[Tuple[int, int], ArmInsn] = {}

    # ------------------------------------------------------------------
    # Top-level stepping.
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (or take a pending interrupt)."""
        cpu = self.cpu
        if cpu.irq_line and cpu.irqs_enabled:
            # IRQ entry: LR_irq = address of next instruction + 4.
            cpu.take_exception(MODE_IRQ, VECTOR_IRQ, cpu.regs[PC] + 4)
            return
        if cpu.halted:
            return
        pc = cpu.regs[PC]
        try:
            word = self.bus.fetch(pc)
        except MemoryFault:
            cpu.take_exception(MODE_ABT, VECTOR_PREFETCH_ABORT, pc + 4)
            return
        key = (pc, word)
        insn = self._decode_cache.get(key)
        if insn is None:
            try:
                insn = decode(word, pc)
            except DecodingError:
                self.icount += 1
                cpu.take_exception(MODE_UND, VECTOR_UNDEF, pc + 4)
                return
            if len(self._decode_cache) > 65536:
                self._decode_cache.clear()
            self._decode_cache[key] = insn
        self.icount += 1
        if not condition_passed(insn.cond, cpu.cpsr):
            cpu.regs[PC] = u32(pc + 4)
            return
        try:
            self._execute(insn)
        except UndefinedInstruction:
            cpu.take_exception(MODE_UND, VECTOR_UNDEF, pc + 4)
        except MemoryFault as fault:
            cpu.cp15.dfar = fault.vaddr
            cpu.cp15.dfsr = 0x805 if fault.is_write else 0x5
            cpu.take_exception(MODE_ABT, VECTOR_DATA_ABORT, pc + 8)

    def run(self, max_insns: int) -> int:
        """Run up to *max_insns* instructions; returns how many executed."""
        start = self.icount
        while self.icount - start < max_insns and not self.cpu.halted:
            self.step()
        return self.icount - start

    # ------------------------------------------------------------------
    # Operand evaluation.
    # ------------------------------------------------------------------

    def _reg(self, number: int) -> int:
        """Register read; the PC reads as the instruction address + 8."""
        value = self.cpu.regs[number]
        return u32(value + 8) if number == PC else value

    def _operand2(self, op2: Operand2) -> Tuple[int, int]:
        """Evaluate a flexible operand, returning (value, shifter_carry)."""
        carry_in = self.cpu.flag(CPSR_C)
        if op2.is_imm:
            # Immediate carry-out: bit 31 for rotated immediates, else C.
            if op2.imm > 0xFF:
                return op2.imm, (op2.imm >> 31) & 1
            return op2.imm, carry_in
        value = self._reg(op2.rm)
        if op2.rs is not None:
            amount = self.cpu.regs[op2.rs] & 0xFF
            if amount == 0:
                return value, carry_in
            return shift_with_carry(value, op2.shift, amount, carry_in)
        return shift_with_carry(value, op2.shift, op2.shift_imm, carry_in)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _execute(self, insn: ArmInsn) -> None:  # noqa: C901
        op = insn.op
        if op in DATA_PROCESSING_OPS:
            self._exec_data_processing(insn)
        elif op in (Op.MUL, Op.MLA):
            self._exec_multiply(insn)
        elif op in ACCESS_SIZE:
            self._exec_single_transfer(insn)
        elif op in (Op.LDM, Op.STM):
            self._exec_block_transfer(insn)
        elif op in (Op.B, Op.BL, Op.BX):
            self._exec_branch(insn)
        elif op is Op.SVC:
            self.cpu.take_exception(MODE_SVC, VECTOR_SVC, insn.addr + 4)
        elif op in VFP_OPS:
            self._exec_vfp(insn)
        else:
            self._exec_system(insn)

    def _advance(self) -> None:
        self.cpu.regs[PC] = u32(self.cpu.regs[PC] + 4)

    def _exec_data_processing(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        cpsr = cpu.cpsr
        operand2, shifter_carry = self._operand2(insn.op2)
        result, n, z, carry, overflow = STEPS[insn.op](
            self._reg(insn.rn), operand2, cpsr >> 29 & 1, shifter_carry,
            cpsr >> 28 & 1)

        if not insn.op.writes_rd:
            cpu.set_nzcv(n, z, carry, overflow)
            self._advance()
            return
        if insn.rd == PC:
            if insn.set_flags:
                # Exception return: CPSR <- SPSR (privileged only).
                if cpu.mode == MODE_USR:
                    raise UndefinedInstruction("exception return in user mode")
                cpu.exception_return(result & ~1)
            else:
                cpu.regs[PC] = result & ~3 & 0xFFFFFFFF
            return

        cpu.regs[insn.rd] = result
        if insn.set_flags:
            cpu.set_nzcv(n, z, carry, overflow)
        self._advance()

    def _exec_multiply(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        result = cpu.regs[insn.rm] * cpu.regs[insn.rs]
        if insn.op is Op.MLA:
            result += cpu.regs[insn.rn]
        result = u32(result)
        cpu.regs[insn.rd] = result
        if insn.set_flags:
            cpu.set_nzcv(result >> 31, result == 0, cpu.flag(CPSR_C),
                         cpu.flag(CPSR_V))
        self._advance()

    def _mem_offset(self, insn: ArmInsn) -> int:
        if insn.mem_offset_reg is not None:
            value, _ = shift_with_carry(self.cpu.regs[insn.mem_offset_reg],
                                        insn.mem_shift, insn.mem_shift_imm,
                                        self.cpu.flag(CPSR_C))
            offset = value
        else:
            offset = insn.mem_offset_imm
        return offset if insn.add_offset else -offset

    def _exec_single_transfer(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        base = self._reg(insn.rn)
        offset = self._mem_offset(insn)
        address = u32(base + offset) if insn.pre_indexed else u32(base)

        size = ACCESS_SIZE[insn.op]
        if insn.op in (Op.STR, Op.STRB, Op.STRH):
            value = self._reg(insn.rd) & ((1 << (8 * size)) - 1)
            self.bus.store(address, size, value)
        else:
            value = self.bus.load(address, size)
            if insn.op in (Op.LDRSB, Op.LDRSH):
                value = u32(sign_extend(value, 8 * size))
        # Base writeback happens only after a successful access.
        if not insn.pre_indexed:
            cpu.regs[insn.rn] = u32(base + offset)
        elif insn.writeback:
            cpu.regs[insn.rn] = address
        if insn.op not in (Op.STR, Op.STRB, Op.STRH):
            if insn.rd == PC:
                cpu.regs[PC] = value & ~3 & 0xFFFFFFFF
                return
            cpu.regs[insn.rd] = value
        self._advance()

    def _exec_block_transfer(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        count = len(insn.reglist)
        base = cpu.regs[insn.rn]
        if insn.increment:
            start = base + 4 if insn.before else base
            new_base = base + 4 * count
        else:
            start = base - 4 * count + (0 if insn.before else 4)
            new_base = base - 4 * count
        address = u32(start)
        loaded_pc = None
        for reg in sorted(insn.reglist):
            if insn.op is Op.STM:
                self.bus.store(address, 4, self._reg(reg))
            else:
                value = self.bus.load(address, 4)
                if reg == PC:
                    loaded_pc = value
                else:
                    cpu.regs[reg] = value
            address = u32(address + 4)
        if insn.writeback:
            cpu.regs[insn.rn] = u32(new_base)
        if loaded_pc is not None:
            cpu.regs[PC] = loaded_pc & ~3 & 0xFFFFFFFF
            return
        self._advance()

    def _exec_branch(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        if insn.op is Op.BX:
            cpu.regs[PC] = cpu.regs[insn.rm] & ~1 & 0xFFFFFFFF
            return
        if insn.op is Op.BL:
            cpu.regs[LR] = u32(insn.addr + 4)
        cpu.regs[PC] = u32(insn.target)

    def _exec_vfp(self, insn: ArmInsn) -> None:
        cpu = self.cpu
        op = insn.op
        if op is Op.VADD:
            cpu.vfp[insn.fd] = f32_add(cpu.vfp[insn.fn], cpu.vfp[insn.fm])
        elif op is Op.VSUB:
            cpu.vfp[insn.fd] = f32_sub(cpu.vfp[insn.fn], cpu.vfp[insn.fm])
        elif op is Op.VMUL:
            cpu.vfp[insn.fd] = f32_mul(cpu.vfp[insn.fn], cpu.vfp[insn.fm])
        elif op is Op.VCMP:
            nzcv = f32_compare(cpu.vfp[insn.fd], cpu.vfp[insn.fm])
            cpu.fpscr = (cpu.fpscr & 0x0FFFFFFF) | (nzcv << 28)
        elif op is Op.VLDR or op is Op.VSTR:
            offset = insn.mem_offset_imm if insn.add_offset \
                else -insn.mem_offset_imm
            address = u32(self._reg(insn.rn) + offset)
            if op is Op.VLDR:
                cpu.vfp[insn.fd] = self.bus.load(address, 4)
            else:
                self.bus.store(address, 4, cpu.vfp[insn.fd])
        elif op is Op.VMOVSR:
            cpu.vfp[insn.fn] = cpu.regs[insn.rd]
        else:  # VMOVRS
            cpu.regs[insn.rd] = cpu.vfp[insn.fn]
        self._advance()

    def _exec_system(self, insn: ArmInsn) -> None:  # noqa: C901
        cpu = self.cpu
        op = insn.op
        privileged = cpu.mode != MODE_USR
        if op is Op.MRS:
            cpu.regs[insn.rd] = cpu.spsr if insn.spsr else cpu.cpsr
        elif op is Op.MSR:
            value = cpu.regs[insn.rm]
            if insn.spsr:
                cpu.spsr = self._merge_psr(cpu.spsr, value, insn.imm, True)
            else:
                merged = self._merge_psr(cpu.cpsr, value, insn.imm,
                                         privileged)
                cpu.write_cpsr(merged)
        elif op in (Op.MCR, Op.MRC):
            if not privileged:
                raise UndefinedInstruction("cp15 access in user mode")
            if op is Op.MRC:
                cpu.regs[insn.rd] = cpu.cp15.read(
                    insn.cp_crn, insn.cp_crm, insn.cp_op1, insn.cp_op2)
            else:
                flush = cpu.cp15.write(insn.cp_crn, insn.cp_crm, insn.cp_op1,
                                       insn.cp_op2, cpu.regs[insn.rd])
                if flush:
                    self.bus.tlb_flush()
        elif op is Op.VMRS:
            if insn.rd == PC:  # vmrs apsr_nzcv, fpscr
                cpu.cpsr = (cpu.cpsr & 0x0FFFFFFF) | (cpu.fpscr & 0xF0000000)
            else:
                cpu.regs[insn.rd] = cpu.fpscr
        elif op is Op.VMSR:
            cpu.fpscr = cpu.regs[insn.rd]
        elif op is Op.CPS:
            if privileged:
                cpu.set_flag(CPSR_I, 0 if insn.cps_enable else 1)
        elif op is Op.WFI:
            cpu.halted = True
        elif op is Op.CLZ:
            value = cpu.regs[insn.rm]
            cpu.regs[insn.rd] = 32 - value.bit_length()
        elif op is Op.NOP:
            pass
        else:
            raise UndefinedInstruction(str(insn))
        self._advance()

    @staticmethod
    def _merge_psr(old: int, new: int, mask: int, privileged: bool) -> int:
        """Apply an MSR field mask (c/x/s/f) to a PSR value."""
        byte_masks = [0x000000FF, 0x0000FF00, 0x00FF0000, 0xFF000000]
        merged = old
        for index, byte_mask in enumerate(byte_masks):
            if not mask & (1 << index):
                continue
            if index == 0 and not privileged:
                continue  # user mode cannot change the control byte
            merged = (merged & ~byte_mask & 0xFFFFFFFF) | (new & byte_mask)
        return merged
