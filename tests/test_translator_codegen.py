"""Static codegen properties of the rule translator, per optimization.

These tests pin the paper's mechanisms at the generated-code level:
Fig 9 (redundant restores), Fig 10 (consecutive memory ops), Fig 11
(inter-TB elimination) and Fig 12 (define-before-use scheduling).
"""

import pytest

from repro.analysis.justify import sync_counts
from repro.core.config import OptConfig, OptLevel
from repro.core.engine import RuleEngine
from repro.guest.asm import assemble
from repro.host.isa import X86Op
from repro.miniqemu.machine import Machine, TcgEngine

BASE_ADDR = 0x40000


def translate(source, level=OptLevel.FULL, config=None, at=BASE_ADDR):
    machine = Machine(engine="tcg")
    machine.memory.load_program(assemble(source, base=BASE_ADDR))
    engine = RuleEngine(machine, level=level, config=config)
    return engine.translate(at, 0)


def count_tag(tb, tag):
    return sum(1 for insn in tb.code if insn.tag == tag)


def ops(tb):
    return [insn.op for insn in tb.code]


# ---------------------------------------------------------------------------
# Fig 10: consecutive memory accesses.
# ---------------------------------------------------------------------------

CONSECUTIVE_STORES = """
    cmp r1, #10
    str r2, [r3]
    str r2, [r3, #4]
    str r2, [r3, #8]
    bne target
target:
    nop
"""


def test_base_pairs_every_memory_access():
    tb = translate(CONSECUTIVE_STORES, OptLevel.BASE)
    # One save per store (the flags are re-restored after each one).
    assert sync_counts(tb.meta).saves >= 3
    assert sync_counts(tb.meta).restores >= 3


def test_elimination_coalesces_consecutive_stores():
    tb = translate(CONSECUTIVE_STORES, OptLevel.ELIMINATION)
    # One save before the run of stores; one restore for the branch.
    assert sync_counts(tb.meta).saves == 1
    assert sync_counts(tb.meta).restores == 1


# ---------------------------------------------------------------------------
# Fig 9: redundant restores for conditional runs.
# ---------------------------------------------------------------------------

CONDITIONAL_RUN = """
    cmp r1, #10
    addeq r2, r2, #1
    addeq r3, r3, #1
    addeq r4, r4, #1
    bx lr
"""


def test_base_restores_per_conditional():
    tb = translate(CONDITIONAL_RUN, OptLevel.BASE)
    assert sync_counts(tb.meta).restores >= 3


def test_elimination_keeps_flags_live_across_conditionals():
    tb = translate(CONDITIONAL_RUN, OptLevel.ELIMINATION)
    # The flags stay in EFLAGS through the whole run: no restores at all.
    assert sync_counts(tb.meta).restores == 0


# ---------------------------------------------------------------------------
# Fig 11: inter-TB elimination.
# ---------------------------------------------------------------------------

INTER_TB = """
    cmp r1, r2
    b next
next:
    cmp r3, r4          @ defines all flags before any use
    bne elsewhere
elsewhere:
    nop
"""

INTER_TB_LIVE = """
    cmp r1, r2
    b next
next:
    addeq r3, r3, #1    @ READS Z at entry: the save must stay
    bx lr
"""


def test_inter_tb_elides_end_save_when_successor_defines_first():
    with_opt = translate(INTER_TB, OptLevel.ELIMINATION)
    without = translate(
        INTER_TB,
        config=OptConfig(packed_sync=True, eliminate_redundant=True,
                         inter_tb=False))
    assert sync_counts(with_opt.meta).saves < sync_counts(without.meta).saves


def test_inter_tb_keeps_save_when_successor_reads_flags():
    tb = translate(INTER_TB_LIVE, OptLevel.ELIMINATION)
    assert sync_counts(tb.meta).saves == 1


# ---------------------------------------------------------------------------
# Fig 12: define-before-use scheduling.
# ---------------------------------------------------------------------------

DEFINE_BEFORE_USE = """
    cmp r1, r2
    ldr r3, [r4]
    bne target
target:
    nop
"""


def test_scheduling_reorders_the_load_above_the_producer():
    scheduled = translate(DEFINE_BEFORE_USE, OptLevel.FULL)
    assert scheduled.guest_insns[0].op.name == "LDR"
    # With the load hoisted above the producer, no flag save/restore
    # surrounds the memory access any more: the first flag-coordination
    # instruction comes after the guest compare.
    flag_sync_ops = {X86Op.PUSHFD, X86Op.POPFD, X86Op.SETCC, X86Op.CMC}
    guest_cmp_index = next(i for i, insn in enumerate(scheduled.code)
                           if insn.op is X86Op.CMP and insn.tag == "rule")
    before_cmp = scheduled.code[:guest_cmp_index]
    assert not [insn for insn in before_cmp
                if insn.op in flag_sync_ops]


def test_scheduling_reduces_dynamic_sync_cost():
    """Dynamically (one path executes), scheduling strictly wins."""
    from repro.core.engine import make_rule_engine
    from tests.support import run_workload

    body = """
main:
    ldr r4, =USER_HEAP
    ldr r5, =20000
loop:
    cmp r5, r9
    ldr r3, [r4]
    bne cont
cont:
    subs r5, r5, #1
    bne loop
    mov r0, #0
    bl uexit
"""
    costs = {}
    for level in (OptLevel.ELIMINATION, OptLevel.FULL):
        _, _, machine = run_workload(
            body, engine="rules",
            rule_engine_factory=make_rule_engine(level))
        costs[level] = machine.stats().get("engine.tag_sync", 0.0)
    assert costs[OptLevel.FULL] < costs[OptLevel.ELIMINATION]


# ---------------------------------------------------------------------------
# Sequence shapes.
# ---------------------------------------------------------------------------

def test_base_uses_parsed_sequences():
    tb = translate(CONSECUTIVE_STORES, OptLevel.BASE)
    assert X86Op.SETCC in ops(tb)       # per-bit parse
    assert X86Op.PUSHFD not in ops(tb)  # no packed saves at Base


def test_reduction_uses_packed_sequences():
    tb = translate(CONSECUTIVE_STORES, OptLevel.REDUCTION)
    assert X86Op.PUSHFD in ops(tb)
    assert X86Op.POPFD in ops(tb)


def test_conditionals_use_direct_jcc():
    tb = translate(CONDITIONAL_RUN, OptLevel.FULL)
    jcc_count = sum(1 for insn in tb.code if insn.op is X86Op.JCC)
    # One skip-jcc per conditional insn + the irq check + the bx exit
    # never re-compares against env fields.
    cmp_env = [insn for insn in tb.code
               if insn.op is X86Op.CMP and insn.tag == "rule"]
    assert jcc_count >= 3
    assert len(cmp_env) == 1  # only the guest cmp itself


def test_every_instruction_is_tagged():
    tb = translate(CONSECUTIVE_STORES, OptLevel.FULL)
    known = {"rule", "sync", "mmu", "irqcheck", "chain", "helper",
             "fallback", "code"}
    assert {insn.tag for insn in tb.code} <= known


MIXED_BLOCK = """
    add r0, r1, r2
    subs r3, r0, #17
    and r4, r3, r0, lsl #2
    ldr r5, [r4, #8]
    str r5, [r4, #12]
    cmp r5, r0
    bne target
target:
    bx lr
"""


def test_tcg_and_rule_translators_end_the_block_at_the_branch():
    machine = Machine(engine="tcg")
    machine.memory.load_program(assemble(MIXED_BLOCK, base=BASE_ADDR))
    assert TcgEngine(machine).translate(BASE_ADDR, 0).guest_insn_count == 7
    assert translate(MIXED_BLOCK).guest_insn_count == 7
