"""Differential tests: rule engine (all opt levels) vs the reference.

Every workload must produce identical console output and exit codes on
the interpreter, the TCG baseline and the rule engine at every
optimization level — the master invariant of the reproduction.
"""

import pytest

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.core.rulebook import EmptyRulebook
from tests.support import run_workload

LEVELS = [OptLevel.BASE, OptLevel.REDUCTION, OptLevel.ELIMINATION,
          OptLevel.FULL]


def run_all_engines(body, max_insns=2_000_000, **kwargs):
    results = {}
    results["interp"] = run_workload(body, engine="interp",
                                     max_insns=max_insns, **kwargs)[:2]
    results["tcg"] = run_workload(body, engine="tcg",
                                  max_insns=max_insns, **kwargs)[:2]
    for level in LEVELS:
        results[f"rules-{level.name}"] = run_workload(
            body, engine="rules",
            rule_engine_factory=make_rule_engine(level),
            max_insns=max_insns, **kwargs)[:2]
    return results


def assert_all_agree(body, **kwargs):
    results = run_all_engines(body, **kwargs)
    reference = results["interp"]
    for name, outcome in results.items():
        assert outcome == reference, \
            f"{name} diverged: {outcome!r} != {reference!r}"
    return reference


# ---------------------------------------------------------------------------
# Flag-semantics workloads: each stresses one part of the CCR protocol.
# ---------------------------------------------------------------------------

CARRY_CHAIN = r"""
main:
    @ 64-bit addition and subtraction via adc/sbc (carry composition).
    ldr r4, =0xFFFFFFFF
    ldr r5, =0x00000001
    adds r0, r4, r4        @ lo
    adc r1, r5, r5         @ hi with carry
    bl uphex               @ r0 = lo
    mov r0, r1
    bl updec               @ hi = 3
    subs r0, r5, r4        @ 1 - 0xFFFFFFFF: borrow
    sbc r1, r5, r5         @ 1 - 1 - borrow = -1
    bl uphex
    mov r0, r1
    bl uphex
    mov r0, #0
    bl uexit
"""

CONDITIONS = r"""
main:
    mov r4, #0             @ pass counter
    @ unsigned compares
    mov r0, #5
    cmp r0, #3
    addhi r4, r4, #1       @ 5 >u 3
    addls r4, r4, #100
    cmp r0, #5
    addcs r4, r4, #1       @ C set on equal
    addeq r4, r4, #1
    addne r4, r4, #100
    cmp r0, #9
    addcc r4, r4, #1       @ 5 <u 9
    @ signed compares
    mvn r1, #0             @ -1
    cmp r1, #1
    addlt r4, r4, #1
    addge r4, r4, #100
    addle r4, r4, #1
    addgt r4, r4, #100
    cmp r0, r1             @ 5 vs -1 signed
    addgt r4, r4, #1
    addmi r4, r4, #100
    @ overflow
    ldr r2, =0x7FFFFFFF
    adds r3, r2, r2
    addvs r4, r4, #1
    addvc r4, r4, #100
    addmi r4, r4, #1       @ result negative
    mov r0, r4
    bl updec               @ expect 9
    mov r0, #0
    bl uexit
"""

SHIFTER_CARRY = r"""
main:
    mov r4, #0
    ldr r0, =0x80000001
    movs r1, r0, lsr #1    @ carry out = bit0 = 1
    addcs r4, r4, #1
    movs r1, r0, lsl #1    @ carry out = bit31 = 1
    addcs r4, r4, #1
    movs r1, r0, asr #1    @ sign fill, carry = 1
    addcs r4, r4, #1
    addmi r4, r4, #1       @ asr keeps sign
    ands r2, r0, #0xC0000000  @ rotated imm: C = imm[31] = 1
    addcs r4, r4, #1
    tst r0, #1             @ small imm: C unchanged (still 1)
    addcs r4, r4, #1
    mov r0, r4
    bl updec               @ expect 6
    mov r0, #0
    bl uexit
"""

CONDITIONAL_MEMORY = r"""
main:
    ldr r4, =USER_HEAP
    mov r5, #10
    mov r6, #0
loop:
    cmp r5, #5
    strge r5, [r4, r5, lsl #2]   @ conditional store
    ldrlt r7, =99
    strlt r7, [r4, r5, lsl #2]
    subs r5, r5, #1
    bne loop
    mov r5, #10
sum:
    ldr r3, [r4, r5, lsl #2]
    add r6, r6, r3
    subs r5, r5, #1
    bne sum
    mov r0, r6
    bl updec               @ 5+6+...+10 + 99*4 = 45-... compute below
    mov r0, #0
    bl uexit
"""

LDM_STM = r"""
main:
    mov r0, #1
    mov r1, #2
    mov r2, #3
    mov r3, #4
    ldr r4, =USER_HEAP
    stmia r4!, {r0-r3}
    stmdb r4, {r0-r3}
    ldr r5, =USER_HEAP
    ldmia r5!, {r6-r9}
    add r0, r6, r7
    add r0, r0, r8
    add r0, r0, r9
    bl updec               @ 10
    push {r0-r3}
    pop {r6-r9}
    add r0, r6, r9
    bl updec               @ 10+4... r6=r0(10), r9=r3(4) -> 14
    mov r0, #0
    bl uexit
"""

MULTIPLY = r"""
main:
    mov r4, #7
    mov r5, #6
    mul r6, r4, r5
    mla r7, r6, r5, r4     @ 42*6+7 = 259
    mov r0, r7
    bl updec
    muls r0, r4, r5
    moveq r0, #996
    bl updec               @ 42
    mov r0, #0
    bl uexit
"""


@pytest.mark.parametrize("body,name", [
    (CARRY_CHAIN, "carry_chain"),
    (CONDITIONS, "conditions"),
    (SHIFTER_CARRY, "shifter_carry"),
    (CONDITIONAL_MEMORY, "conditional_memory"),
    (LDM_STM, "ldm_stm"),
    (MULTIPLY, "multiply"),
])
def test_engines_agree(body, name):
    assert_all_agree(body)


def test_conditions_expected_value():
    code, text, _ = run_workload(CONDITIONS, engine="interp")
    assert text == "9\n"
    assert code == 0


def test_shifter_carry_expected_value():
    code, text, _ = run_workload(SHIFTER_CARRY, engine="interp")
    assert text == "6\n"


def test_empty_rulebook_still_correct():
    """With zero rule coverage everything goes through the QEMU fallback."""
    body = CONDITIONS
    reference = run_workload(body, engine="interp")[:2]
    outcome = run_workload(
        body, engine="rules",
        rule_engine_factory=make_rule_engine(OptLevel.FULL,
                                             rulebook=EmptyRulebook()))[:2]
    assert outcome == reference


def test_unoptimized_rules_slower_than_optimized():
    body = CONDITIONS
    costs = {}
    for level in (OptLevel.BASE, OptLevel.FULL):
        _, _, machine = run_workload(
            body, engine="rules",
            rule_engine_factory=make_rule_engine(level))
        costs[level] = machine.stats()["engine.host_cost"]
    assert costs[OptLevel.FULL] < costs[OptLevel.BASE]


def test_interrupts_during_rule_execution():
    """A fast timer forces many interrupt deliveries through rule code."""
    body = r"""
main:
    ldr r4, =50000
spin:
    subs r4, r4, #1
    bne spin
    bl uticks
    cmp r0, #10
    movge r0, #0
    movlt r0, #1
    bl uexit
"""
    for level in LEVELS:
        code, _, machine = run_workload(
            body, engine="rules", timer_reload=500,
            rule_engine_factory=make_rule_engine(level))
        assert code == 0, f"{level.name}: not enough ticks"
        assert machine.irq_delivered > 10
