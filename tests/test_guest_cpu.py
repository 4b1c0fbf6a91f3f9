"""Unit tests: guest CPU state, mode banking, exceptions, interpreter."""

import pytest

from repro.common.errors import MemoryFault
from repro.guest.asm import assemble
from repro.guest.cpu import (CPSR_I, GuestCpu, MODE_ABT, MODE_IRQ, MODE_SVC,
                             MODE_USR, VECTOR_IRQ, VECTOR_SVC)
from repro.guest.interp import Interpreter, condition_passed
from repro.guest.isa import Cond


class FlatBus:
    def __init__(self, size=0x20000):
        self.data = bytearray(size)
        self.flushes = 0

    def fetch(self, vaddr):
        if vaddr >= len(self.data):
            raise MemoryFault(vaddr, False)
        return int.from_bytes(self.data[vaddr:vaddr + 4], "little")

    def load(self, vaddr, size):
        if vaddr + size > len(self.data):
            raise MemoryFault(vaddr, False)
        return int.from_bytes(self.data[vaddr:vaddr + size], "little")

    def store(self, vaddr, size, value):
        if vaddr + size > len(self.data):
            raise MemoryFault(vaddr, True)
        self.data[vaddr:vaddr + size] = \
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def tlb_flush(self):
        self.flushes += 1


def run(source, steps=1000, setup=None):
    bus = FlatBus()
    program = assemble(source, base=0x1000)
    bus.data[0x1000:0x1000 + program.size] = program.data
    cpu = GuestCpu()
    cpu.regs[15] = 0x1000
    if setup:
        setup(cpu, bus)
    interp = Interpreter(cpu, bus)
    for _ in range(steps):
        if cpu.halted:
            break
        interp.step()
    return cpu, bus


# ---------------------------------------------------------------------------
# Mode banking.
# ---------------------------------------------------------------------------

def test_sp_is_banked_between_modes():
    cpu = GuestCpu()
    assert cpu.mode == MODE_SVC
    cpu.regs[13] = 0x1000
    cpu.switch_mode(MODE_IRQ)
    cpu.regs[13] = 0x2000
    cpu.switch_mode(MODE_SVC)
    assert cpu.regs[13] == 0x1000
    cpu.switch_mode(MODE_IRQ)
    assert cpu.regs[13] == 0x2000


def test_usr_and_sys_share_bank():
    cpu = GuestCpu()
    cpu.switch_mode(MODE_USR)
    cpu.regs[13] = 0x3333
    cpu.switch_mode(0x1F)  # SYS
    assert cpu.regs[13] == 0x3333


def test_exception_entry_and_return():
    cpu = GuestCpu()
    cpu.set_nzcv(1, 0, 1, 0)
    cpu.set_flag(CPSR_I, 0)
    old_cpsr = cpu.cpsr
    cpu.regs[15] = 0x500
    cpu.take_exception(MODE_IRQ, VECTOR_IRQ, 0x504)
    assert cpu.mode == MODE_IRQ
    assert cpu.flag(CPSR_I) == 1
    assert cpu.regs[14] == 0x504
    assert cpu.regs[15] == VECTOR_IRQ
    assert cpu.spsr == old_cpsr
    cpu.exception_return(0x500)
    assert cpu.cpsr == old_cpsr
    assert cpu.regs[15] == 0x500


# ---------------------------------------------------------------------------
# Condition evaluation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cond,nzcv,expected", [
    (Cond.EQ, 0b0100, True), (Cond.EQ, 0b0000, False),
    (Cond.HI, 0b0010, True), (Cond.HI, 0b0110, False),
    (Cond.LS, 0b0110, True), (Cond.LS, 0b0010, False),
    (Cond.GE, 0b1001, True), (Cond.GE, 0b1000, False),
    (Cond.GT, 0b0000, True), (Cond.GT, 0b0100, False),
    (Cond.LE, 0b1000, True), (Cond.LE, 0b1001, False),
    (Cond.AL, 0b0000, True),
])
def test_condition_passed(cond, nzcv, expected):
    cpsr = nzcv << 28
    assert condition_passed(cond, cpsr) == expected


# ---------------------------------------------------------------------------
# Interpreter semantics spot checks.
# ---------------------------------------------------------------------------

def test_svc_takes_exception_to_vector():
    # Vector at 0 is unmapped code... place a handler at the vector.
    source = """
    svc #7
after:
    nop
"""
    bus = FlatBus()
    program = assemble(source, base=0x1000)
    bus.data[0x1000:0x1000 + program.size] = program.data
    handler = assemble("    movs pc, lr", base=VECTOR_SVC)
    bus.data[VECTOR_SVC:VECTOR_SVC + 4] = handler.data
    cpu = GuestCpu()
    cpu.regs[15] = 0x1000
    interp = Interpreter(cpu, bus)
    interp.step()
    assert cpu.mode == MODE_SVC and cpu.regs[15] == VECTOR_SVC
    assert cpu.regs[14] == 0x1004
    interp.step()  # movs pc, lr
    assert cpu.regs[15] == 0x1004


def test_data_abort_sets_fault_registers():
    cpu, _ = run("""
    ldr r1, =0x90000
    ldr r0, [r1]
""", steps=2)
    assert cpu.mode == MODE_ABT
    assert cpu.cp15.dfar == 0x90000
    assert cpu.cp15.dfsr & 0xF == 0x5


def test_irq_taken_between_instructions():
    def setup(cpu, bus):
        cpu.set_flag(CPSR_I, 0)

    source = """
    nop
    nop
"""
    bus = FlatBus()
    program = assemble(source, base=0x1000)
    bus.data[0x1000:0x1000 + program.size] = program.data
    cpu = GuestCpu()
    cpu.regs[15] = 0x1000
    cpu.set_flag(CPSR_I, 0)
    interp = Interpreter(cpu, bus)
    interp.step()
    cpu.irq_line = True
    interp.step()
    assert cpu.mode == MODE_IRQ
    assert cpu.regs[14] == 0x1004 + 4  # next insn + 4


def test_mcr_tlb_flush_reaches_bus():
    cpu, bus = run("""
    mov r0, #0
    mcr p15, 0, r0, c8, c7, 0
""", steps=2)
    assert bus.flushes == 1


def test_msr_user_mode_cannot_set_control_bits():
    cpu, _ = run("""
    ldr r0, =0x10        @ drop to user mode
    msr cpsr_c, r0
    ldr r1, =0xD3        @ try to climb back to SVC with IRQs off
    msr cpsr_c, r1
""", steps=4)
    assert cpu.mode == MODE_USR  # the control byte write was ignored


def test_wfi_halts():
    cpu, _ = run("    wfi\n    nop", steps=5)
    assert cpu.halted
    assert cpu.regs[15] == 0x1004  # pc advanced past wfi


def test_vmrs_vmsr_roundtrip_fpscr():
    cpu, _ = run("""
    ldr r0, =0xA0000000
    vmsr fpscr, r0
    vmrs r1, fpscr
""", steps=3)
    assert cpu.regs[1] == 0xA0000000
    assert cpu.fpscr == 0xA0000000


def test_clz_semantics():
    cpu, _ = run("""
    mov r0, #0x10
    clz r1, r0
    mov r2, #0
    clz r3, r2
""", steps=4)
    assert cpu.regs[1] == 27
    assert cpu.regs[3] == 32


def test_pc_relative_load_and_store_pc_value():
    cpu, bus = run("""
    ldr r1, =0x10000
    str pc, [r1]          @ stores this insn's address + 8
    ldr r2, [r1]
""", steps=3)
    assert cpu.regs[2] == 0x1004 + 8


def test_ldm_with_pc_branches():
    cpu, _ = run("""
    ldr r0, =0x10000
    ldr r1, =target
    str r1, [r0]
    ldm r0, {pc}
    mov r2, #99           @ skipped
target:
    mov r2, #1
    wfi
""", steps=10)
    assert cpu.regs[2] == 1
