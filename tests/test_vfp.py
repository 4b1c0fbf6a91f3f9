"""Tests for the VFP single-precision extension (paper footnote 3)."""

import struct

import pytest

from repro.common.f32 import (f32_add, f32_compare, f32_mul, f32_sub,
                              from_float, to_float)
from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.guest.decoder import decode
from repro.guest.encoder import encode
from repro.guest.isa import ArmInsn, Op
from repro.workloads.specfp import SPECFP_WORKLOADS
from tests.support import run_workload
from tests.test_rule_engine import LEVELS


def bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


# ---------------------------------------------------------------------------
# binary32 arithmetic helpers.
# ---------------------------------------------------------------------------

def test_f32_roundtrip():
    for value in (0.0, 1.5, -2.25, 3.4e38, 1e-40):
        assert to_float(from_float(value)) == struct.unpack(
            "<f", struct.pack("<f", value))[0]


def test_f32_add_rounds_to_single():
    # 1 + 2^-30 is not representable in binary32: rounds back to 1.0.
    one = bits(1.0)
    tiny = bits(2.0 ** -30)
    assert f32_add(one, tiny) == one


def test_f32_compare_cases():
    assert f32_compare(bits(1.0), bits(2.0)) == 0b1000   # less
    assert f32_compare(bits(2.0), bits(2.0)) == 0b0110   # equal
    assert f32_compare(bits(3.0), bits(2.0)) == 0b0010   # greater
    nan = 0x7FC00000
    assert f32_compare(nan, bits(1.0)) == 0b0011         # unordered


def test_f32_mul_overflow_is_infinity():
    big = bits(3e38)
    assert f32_mul(big, big) == bits(float("inf"))


# ---------------------------------------------------------------------------
# Encoding round trips.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("insn", [
    ArmInsn(op=Op.VADD, fd=1, fn=2, fm=31),
    ArmInsn(op=Op.VSUB, fd=30, fn=0, fm=1),
    ArmInsn(op=Op.VMUL, fd=7, fn=7, fm=7),
    ArmInsn(op=Op.VCMP, fd=9, fm=10),
    ArmInsn(op=Op.VLDR, fd=11, rn=4, mem_offset_imm=128),
    ArmInsn(op=Op.VSTR, fd=12, rn=13, mem_offset_imm=4, add_offset=False),
    ArmInsn(op=Op.VMOVSR, fn=13, rd=3),
    ArmInsn(op=Op.VMOVRS, fn=14, rd=12),
])
def test_vfp_codec_roundtrip(insn):
    out = decode(encode(insn), 0)
    assert out.op == insn.op
    for name in ("fd", "fn", "fm", "rd", "rn", "mem_offset_imm",
                 "add_offset"):
        assert getattr(out, name) == getattr(insn, name)


# ---------------------------------------------------------------------------
# Differential execution across engines.
# ---------------------------------------------------------------------------

VFP_SEMANTICS = r"""
main:
    ldr r4, =USER_HEAP
    ldr r0, =0x3FC00000      @ 1.5
    str r0, [r4]
    ldr r0, =0x40100000      @ 2.25
    str r0, [r4, #4]
    vldr s0, [r4]
    vldr s1, [r4, #4]
    vadd.f32 s2, s0, s1
    vsub.f32 s3, s1, s0
    vmul.f32 s4, s2, s3
    vstr s2, [r4, #8]
    vstr s3, [r4, #12]
    vstr s4, [r4, #16]
    ldr r0, [r4, #8]
    bl uphex                 @ 3.75
    ldr r0, [r4, #12]
    bl uphex                 @ 0.75
    ldr r0, [r4, #16]
    bl uphex                 @ 2.8125
    @ compares drive the integer condition codes through vmrs
    vcmp.f32 s1, s0
    vmrs r5, fpscr
    mov r0, r5, lsr #28
    bl updec                 @ greater: C -> 2
    vcmp.f32 s0, s0
    vmrs r5, fpscr
    mov r0, r5, lsr #28
    bl updec                 @ equal: ZC -> 6
    @ register transfers
    ldr r6, =0xC0490FDB      @ -3.14159...
    vmov s9, r6
    vmov r7, s9
    cmp r6, r7
    moveq r0, #0
    movne r0, #9
    bl uexit
"""


def test_vfp_semantics_on_reference():
    code, text, _ = run_workload(VFP_SEMANTICS, engine="interp")
    assert code == 0
    assert text == "40700000\n3f400000\n40340000\n2\n6\n"


@pytest.mark.parametrize("level", LEVELS)
def test_vfp_agrees_across_rule_levels(level):
    reference = run_workload(VFP_SEMANTICS, engine="interp")[:2]
    assert run_workload(VFP_SEMANTICS, engine="tcg")[:2] == reference
    outcome = run_workload(VFP_SEMANTICS, engine="rules",
                           rule_engine_factory=make_rule_engine(level))[:2]
    assert outcome == reference


@pytest.mark.parametrize("name", sorted(SPECFP_WORKLOADS))
def test_fp_workloads_match_expected(name):
    workload = SPECFP_WORKLOADS[name]
    code, text, _ = run_workload(workload.body, engine="rules",
                                 rule_engine_factory=make_rule_engine(
                                     OptLevel.FULL),
                                 max_insns=workload.max_insns)
    assert code == 0
    assert text == workload.expected_output


def test_fp_rules_need_no_coordination():
    """A pure FP arithmetic block emits zero sync instructions."""
    from repro.analysis.justify import sync_counts
    from repro.core.engine import RuleEngine
    from repro.guest.asm import assemble
    from repro.miniqemu.machine import Machine

    machine = Machine(engine="tcg")
    machine.memory.load_program(assemble("""
    vadd.f32 s0, s1, s2
    vmul.f32 s3, s0, s0
    vsub.f32 s4, s3, s1
    bx lr
""", base=0x40000))
    engine = RuleEngine(machine, level=OptLevel.FULL)
    tb = engine.translate(0x40000, 0)
    assert sync_counts(tb.meta).insns == 0
    sse = [insn for insn in tb.code if "ss" in insn.op.value]
    assert len(sse) == 9  # 3 ops x (movss, op, movss)
