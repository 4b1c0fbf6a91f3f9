"""Tests for MiniQEMU internals: TB cache, block chaining, lazy flags."""

import pytest

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.guest.asm import assemble
from repro.host.isa import ESP
from repro.miniqemu.env import (ENV_CF, ENV_NF, ENV_PACKED_FLAGS,
                                ENV_PACKED_VALID, ENV_VF, ENV_ZF,
                                STACK_BASE, STACK_SIZE)
from repro.miniqemu.machine import Machine
from tests.support import run_workload


def run_flat(source, engine="tcg", factory=None, max_insns=100000):
    machine = Machine(engine=engine, rule_engine_factory=factory)
    machine.memory.load_program(assemble(source, base=0x1000))
    machine.cpu.regs[15] = 0x1000
    machine.env.load_from_cpu(machine.cpu)
    machine.run(max_insns)
    return machine

EXIT = """
    ldr r10, =0x100F0000
    mov r0, #0
    str r0, [r10]
"""

LOOP = """
    mov r0, #0
    mov r1, #50
loop:
    add r0, r0, #1
    subs r1, r1, #1
    bne loop
""" + EXIT


def test_tb_cache_reuses_translations():
    machine = run_flat(LOOP)
    stats = machine.stats()
    # The loop body TB is translated once but executed ~50 times.
    assert stats["engine.tb_count"] < 8
    loop_tbs = [tb for tb in machine.engine.cache.all_tbs()
                if tb.exec_count > 10]
    assert loop_tbs


def test_block_chaining_patches_direct_jumps():
    machine = run_flat(LOOP)
    chained = [tb for tb in machine.engine.cache.all_tbs()
               if any(target is not None for target in tb.jmp_target)]
    assert chained, "the loop back-edge should be chained"


def test_chaining_preserved_across_engines():
    for factory in (None, make_rule_engine(OptLevel.FULL)):
        engine = "tcg" if factory is None else "rules"
        machine = run_flat(LOOP, engine=engine, factory=factory)
        chained = [tb for tb in machine.engine.cache.all_tbs()
                   if any(t is not None for t in tb.jmp_target)]
        assert chained, engine


def test_separate_tbs_per_mmu_index():
    """Kernel and user mode must not share translations."""
    from tests.support import run_workload
    _, _, machine = run_workload("""
main:
    mov r0, #0
    bl uexit
""", engine="tcg")
    indexes = {tb.mmu_idx for tb in machine.engine.cache.all_tbs()}
    assert indexes == {0, 1}


def test_lazy_flags_parse_only_on_demand():
    """The packed CCR save is parsed per-bit only when QEMU reads it."""
    source = """
    cmp r0, r1
    ldr r2, [r10]          @ memory op: packed save, no parse
    mrs r3, cpsr           @ helper reads CPSR: must parse
""" + EXIT
    machine = run_flat("    ldr r10, =0x41000\n" + source,
                       engine="rules",
                       factory=make_rule_engine(OptLevel.FULL))
    assert machine.runtime.flag_parse_count >= 1
    # The parse materialized ARM-convention bits: cmp r0,r1 with both
    # zero sets Z=1 C=1 (no borrow).
    env = machine.env
    assert env.read(ENV_ZF) == 1
    assert env.read(ENV_CF) == 1
    assert env.read(ENV_NF) == 0
    assert env.read(ENV_VF) == 0


def test_packed_slot_holds_arm_convention():
    """After a sync-save of a subtraction the stored carry is ARM C."""
    source = """
    ldr r10, =0x41000
    mov r0, #5
    cmp r0, #3             @ 5-3: ARM C=1 (no borrow), x86 CF=0
    ldr r2, [r10]          @ coordination point: packed save
""" + EXIT
    machine = run_flat(source, engine="rules",
                       factory=make_rule_engine(OptLevel.REDUCTION))
    env = machine.env
    # Find the flags: either still packed-valid or parsed at exit.
    if env.read(ENV_PACKED_VALID):
        packed = env.read(ENV_PACKED_FLAGS)
        assert packed & 1 == 1          # CF bit = ARM C = 1 after cmc
    else:
        assert env.read(ENV_CF) == 1


def test_translation_costs_are_charged_once():
    machine = run_flat(LOOP)
    stats = machine.stats()
    static_insns = stats["engine.static_guest_insns"]
    assert stats["engine.translation_cost"] == 300 * static_insns


def test_stats_tags_cover_all_instructions():
    machine = run_flat(LOOP, engine="rules",
                       factory=make_rule_engine(OptLevel.FULL))
    stats = machine.stats()
    tag_total = sum(value for key, value in stats.items()
                    if key.startswith("engine.tag_"))
    assert tag_total == stats["engine.host_instructions"] + \
        (stats["engine.host_cost"] - stats["engine.host_instructions"])


SYSCALL_LOOP = """
main:
    mov r4, #300
loop:
    bl uticks
    subs r4, r4, #1
    bne loop
    mov r0, #0
    bl uexit
"""

#: The largest helper frame: a slow-path store's address and value.
HELPER_FRAME = 8


@pytest.mark.parametrize("factory", [None, make_rule_engine(OptLevel.FULL)],
                         ids=["tcg", "rules-full"])
def test_host_stack_is_empty_between_tbs(factory):
    """A helper that leaves its TB by raising (every exception return
    does) never pops its pushed arguments; each execute() starts with
    ESP at the stack top again, so only the frame of the helper that
    halted the guest is left."""
    engine = "tcg" if factory is None else "rules"
    code, _, machine = run_workload(SYSCALL_LOOP, engine=engine,
                                    rule_engine_factory=factory)
    assert code == 0
    assert machine.host_cpu.regs[ESP] >= STACK_BASE + STACK_SIZE - HELPER_FRAME
