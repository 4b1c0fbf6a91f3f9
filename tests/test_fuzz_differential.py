"""Differential fuzzing: random guest programs on every engine.

Hypothesis generates random straight-line ALU/branch/memory programs;
each must produce an identical final register checksum on the reference
interpreter, the TCG baseline, and the rule engine at Base and FULL.
This is the broadest net for condition-code protocol bugs.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OptLevel, make_rule_engine
from repro.guest.asm import assemble
from repro.miniqemu.machine import Machine

SYSCON_EXIT = 0x100F0000
UART_DR = 0x10000000

_REGS = [f"r{i}" for i in range(7)]  # r0..r6 as data registers
_DP_OPS = ["add", "sub", "and", "orr", "eor", "rsb", "adc", "sbc"]
_SHIFTS = ["lsl", "lsr", "asr", "ror"]
_CONDS = ["", "eq", "ne", "cs", "cc", "mi", "pl", "hi", "ls", "ge", "lt",
          "gt", "le", "vs", "vc"]


@st.composite
def alu_insn(draw):
    op = draw(st.sampled_from(_DP_OPS))
    cond = draw(st.sampled_from(_CONDS))
    set_flags = draw(st.booleans())
    rd, rn = draw(st.sampled_from(_REGS)), draw(st.sampled_from(_REGS))
    suffix = f"{cond}s" if set_flags else cond
    kind = draw(st.integers(0, 3))
    if kind == 0:
        imm = draw(st.sampled_from([0, 1, 7, 0xFF, 0xAB00, 0xFF000000]))
        return f"{op}{suffix} {rd}, {rn}, #{imm}"
    rm = draw(st.sampled_from(_REGS))
    if kind == 1:
        return f"{op}{suffix} {rd}, {rn}, {rm}"
    shift = draw(st.sampled_from(_SHIFTS))
    amount = draw(st.integers(1, 31))
    if kind == 2:
        return f"{op}{suffix} {rd}, {rn}, {rm}, {shift} #{amount}"
    return f"{op}{suffix} {rd}, {rn}, {rm}, rrx"


@st.composite
def misc_insn(draw):
    choice = draw(st.integers(0, 5))
    rd = draw(st.sampled_from(_REGS))
    rn = draw(st.sampled_from(_REGS))
    rm = draw(st.sampled_from(_REGS))
    if choice == 0:
        imm = draw(st.sampled_from([0, 3, 0xFF, 0x3FC]))
        return f"cmp {rn}, #{imm}"
    if choice == 1:
        return f"cmp {rn}, {rm}"
    if choice == 2:
        cond = draw(st.sampled_from(_CONDS))
        return f"mov{cond} {rd}, {rm}"
    if choice == 3:
        return f"muls {rd}, {rn}, {rm}" if draw(st.booleans()) \
            else f"mul {rd}, {rn}, {rm}"
    if choice == 4:
        imm = draw(st.sampled_from([1, 0xC4, 0xFF0]))
        set_flags = "s" if draw(st.booleans()) else ""
        return f"mvn{set_flags} {rd}, #{imm}"
    return f"tst {rn}, #{draw(st.sampled_from([1, 0xFF, 0xF000000F]))}"


@st.composite
def memory_insn(draw):
    # r7 permanently holds a valid buffer base; offsets stay in range.
    rd = draw(st.sampled_from(_REGS))
    kind = draw(st.integers(0, 3))
    offset = draw(st.integers(0, 60)) * 4
    if kind == 0:
        return f"str {rd}, [r7, #{offset}]"
    if kind == 1:
        return f"ldr {rd}, [r7, #{offset}]"
    if kind == 2:
        return f"strb {rd}, [r7, #{offset}]"
    return f"ldrb {rd}, [r7, #{offset}]"


@st.composite
def program(draw):
    body = draw(st.lists(st.one_of(alu_insn(), misc_insn(), memory_insn()),
                         min_size=4, max_size=40))
    return body


HEADER = """
    ldr r7, =0x41000       @ scratch buffer (identity-mapped RAM)
    ldr r0, =0x12345678
    ldr r1, =0x9ABCDEF0
    mov r2, #77
    ldr r3, =0xFFFF0000
    mov r4, #1
    ldr r5, =0x80000000
    mov r6, #0
"""

FOOTER = """
    @ fold every register and the flags into a checksum in r0
    mrs r8, cpsr
    ldr r9, =0xF0000000
    and r8, r8, r9
    add r0, r0, r1
    eor r0, r0, r2
    add r0, r0, r3
    eor r0, r0, r4
    add r0, r0, r5
    eor r0, r0, r6
    add r0, r0, r8
    ldr r10, =0x10000000
    str r0, [r10]          @ dump checksum bytes to the UART
    mov r0, r0, lsr #8
    str r0, [r10]
    mov r0, r0, lsr #8
    str r0, [r10]
    ldr r10, =0x100F0000
    mov r1, #0
    str r1, [r10]          @ exit(0)
"""


def run_engine(source: str, engine: str, factory=None, base=0x1000):
    machine = Machine(engine=engine, rule_engine_factory=factory)
    machine.memory.load_program(assemble(source, base=base))
    machine.cpu.regs[15] = base
    machine.env.load_from_cpu(machine.cpu)
    code = machine.run(200000)
    return code, bytes(machine.uart.output)


#: ``adds ... rrx`` is the TB's 32nd instruction: its inline TCG fallback
#: leaves env.packed stale, and the TB ends right after it.
STALE_PACKED_AT_TB_END = (["add r1, r1, #0"] * 22 +
                          ["cmp r0, #0", "adds r0, r0, r0, rrx",
                           "movcs r0, r1"])


@settings(max_examples=25, deadline=None)
@given(program())
@example(STALE_PACKED_AT_TB_END)
def test_random_programs_agree(body):
    source = HEADER + "\n".join("    " + line for line in body) + FOOTER
    reference = run_engine(source, "interp")
    assert reference == run_engine(source, "tcg"), "tcg diverged"
    for level in (OptLevel.BASE, OptLevel.FULL):
        outcome = run_engine(source, "rules", make_rule_engine(level))
        assert outcome == reference, f"rules-{level.name} diverged"


@settings(max_examples=10, deadline=None)
@given(program(), st.integers(200, 900))
def test_random_programs_agree_under_interrupts(body, timer_reload):
    """Same fuzz with a live timer: checks interrupt-point consistency.

    The final architectural state must match even though interrupts are
    delivered at different instruction boundaries per engine, because
    the kernel-free handler here is a no-op (the vector spins straight
    back with the same state).
    """
    # Install a trivial IRQ vector that acks the timer and returns.
    vector = """
.org 0x0
    b start
.org 0x18
    b irq_handler
.org 0x100
irq_handler:
    push {r0, r1}
    ldr r0, =0x10010000
    mov r1, #1
    str r1, [r0, #0xC]      @ ack the timer
    pop {r0, r1}
    subs pc, lr, #4
start:
    ldr sp, =0x50000
    ldr r0, =0x10010000
    ldr r1, =TIMER_RELOAD
    str r1, [r0]
    mov r1, #1
    str r1, [r0, #8]
    ldr r0, =0x10020000
    mov r1, #1
    str r1, [r0, #8]        @ intc: enable timer
    cpsie i
"""
    source = vector.replace("TIMER_RELOAD", str(timer_reload)) + \
        HEADER + "\n".join("    " + line for line in body) + FOOTER
    reference = run_engine(source, "interp", base=0)
    for level in (OptLevel.BASE, OptLevel.FULL):
        outcome = run_engine(source, "rules", make_rule_engine(level),
                             base=0)
        assert outcome == reference, f"rules-{level.name} diverged"
