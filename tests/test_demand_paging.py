"""Demand paging: data aborts that map a page and resume.

MiB 4 of the guest address space starts unmapped; the kernel's data
abort handler allocates a physical page, installs the L2 entry and
retries the faulting instruction.  This exercises the full
fault -> handler -> resume path on every engine, including the rule
engine's guarantee that dirty register state reaches env before any
potentially-faulting access.
"""

import pytest

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from tests.support import run_workload

TOUCH_MANY = r"""
main:
    ldr r4, =DEMAND_BASE
    mov r5, #0
touch:
    str r5, [r4, r5, lsl #2]
    add r5, r5, #1
    ldr r1, =3000
    cmp r5, r1
    blt touch
    mov r6, #0
    mov r5, #0
verify:
    ldr r3, [r4, r5, lsl #2]
    add r6, r6, r3
    add r5, r5, #1
    ldr r1, =3000
    cmp r5, r1
    blt verify
    mov r0, r6
    bl updec
    bl ufaults
    bl updec
    mov r0, #0
    bl uexit
"""

SPARSE_TOUCH = r"""
main:
    ldr r4, =DEMAND_BASE
    mov r5, #0
    mov r6, #0
touch:
    add r0, r4, r5, lsl #12      @ one word per page
    str r5, [r0]
    ldr r1, [r0]
    add r6, r6, r1
    add r5, r5, #1
    cmp r5, #40
    blt touch
    mov r0, r6
    bl updec                     @ 0+1+...+39 = 780
    bl ufaults
    bl updec                     @ exactly 40 page-ins
    mov r0, #0
    bl uexit
"""

FAULT_IN_LOOP_WITH_FLAGS = r"""
main:
    @ the faulting store sits between a producer and its consumer: the
    @ abort + resume must preserve the guest condition codes.
    ldr r4, =DEMAND_BASE
    mov r5, #20
    mov r6, #0
loop:
    cmp r5, #10
    str r5, [r4, r5, lsl #8]     @ crosses pages as r5 shrinks
    addge r6, r6, #1             @ consumes the cmp's flags after a fault
    subs r5, r5, #1
    bne loop
    mov r0, r6
    bl updec                     @ r5=20..11 satisfy ge: 10... plus r5=10
    bl ufaults
    bl updec
    mov r0, #0
    bl uexit
"""


def reference(body):
    code, text, _ = run_workload(body, engine="interp")
    assert code == 0
    return code, text


@pytest.mark.parametrize("body,name", [
    (TOUCH_MANY, "touch_many"),
    (SPARSE_TOUCH, "sparse"),
    (FAULT_IN_LOOP_WITH_FLAGS, "flags_across_fault"),
])
def test_demand_paging_agrees_across_engines(body, name):
    expected = reference(body)
    assert run_workload(body, engine="tcg")[:2] == expected
    for level in (OptLevel.BASE, OptLevel.ELIMINATION, OptLevel.FULL):
        outcome = run_workload(
            body, engine="rules",
            rule_engine_factory=make_rule_engine(level))[:2]
        assert outcome == expected, f"{name} diverged at {level.name}"


def test_fault_counts_are_exact():
    _, text = reference(SPARSE_TOUCH)
    assert text == "780\n40\n"


def test_untouched_demand_page_reads_kill():
    """Addresses past the demand MiB still fault fatally."""
    body = r"""
main:
    ldr r4, =0x900000                 @ beyond RAM: genuinely unmapped
    ldr r0, [r4]
    mov r0, #0
    bl uexit
"""
    code, text, _ = run_workload(body, engine="interp")
    assert code == 127
    assert "D" in text
