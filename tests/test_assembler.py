"""Unit tests for the two-pass ARM assembler."""

import re

import pytest

from repro.common.errors import AssemblerError
from repro.guest.asm import Assembler, _ExprParser, assemble
from repro.guest.decoder import decode
from repro.guest.isa import Cond, Op


def first_insn(source, base=0):
    program = assemble(source, base=base)
    word = int.from_bytes(program.data[:4], "little")
    return decode(word, base)


def insn_at(program, addr):
    offset = addr - program.base
    word = int.from_bytes(program.data[offset:offset + 4], "little")
    return decode(word, addr)


def test_labels_and_branches():
    program = assemble("""
start:
    b forward
    nop
forward:
    b start
""", base=0x1000)
    branch = insn_at(program, 0x1000)
    assert branch.op is Op.B and branch.target == 0x1008
    back = insn_at(program, 0x1008)
    assert back.target == 0x1000


def test_equ_and_expressions():
    program = assemble("""
.equ BASE, 0x1000
.equ FIELD, BASE + (4 * 8)
    mov r0, #FIELD - 0x1000
""")
    insn = insn_at(program, 0)
    assert insn.op2.imm == 32


def test_word_and_asciz_directives():
    program = assemble("""
    .word 0x11223344, 5
    .asciz "ok"
""")
    assert program.data[:4] == bytes.fromhex("44332211")
    assert program.data[4:8] == (5).to_bytes(4, "little")
    assert program.data[8:11] == b"ok\0"


def test_align_and_space():
    program = assemble("""
    .space 3
    .align 2
marker:
    nop
""")
    assert program.symbols["marker"] == 4


def test_ldr_pseudo_uses_mov_when_encodable():
    insn = first_insn("    ldr r0, =0xFF000000")
    assert insn.op is Op.MOV
    assert insn.op2.imm == 0xFF000000


def test_ldr_pseudo_uses_mvn_for_inverted():
    insn = first_insn("    ldr r0, =0xFFFFFFFE")
    assert insn.op is Op.MVN
    assert insn.op2.imm == 1


def test_ldr_pseudo_literal_pool():
    program = assemble("""
    ldr r0, =0x12345678
    nop
""")
    insn = insn_at(program, 0)
    assert insn.op is Op.LDR and insn.rn == 15
    pool_addr = 0 + 8 + insn.mem_offset_imm
    value = int.from_bytes(program.data[pool_addr:pool_addr + 4], "little")
    assert value == 0x12345678


def test_push_pop_aliases():
    push = first_insn("    push {r0, r4-r6, lr}")
    assert push.op is Op.STM and push.rn == 13 and push.writeback
    assert push.reglist == [0, 4, 5, 6, 14]
    assert push.before and not push.increment  # stmdb
    pop = first_insn("    pop {r0, pc}")
    assert pop.op is Op.LDM and pop.reglist == [0, 15]
    assert not pop.before and pop.increment    # ldmia


def test_condition_suffix_disambiguation():
    # "bls" is b+ls, not bl+s; "bleq" is bl+eq.
    assert first_insn("target:\n    bls target").cond == Cond.LS
    assert first_insn("target:\n    bls target").op is Op.B
    assert first_insn("target:\n    bleq target").op is Op.BL
    assert first_insn("target:\n    bleq target").cond == Cond.EQ


def test_old_and_new_style_flags_suffix():
    for text in ("addeqs r0, r0, #1", "addseq r0, r0, #1"):
        insn = first_insn("    " + text)
        assert insn.op is Op.ADD and insn.set_flags
        assert insn.cond == Cond.EQ


def test_memory_addressing_modes():
    pre = first_insn("    ldr r0, [r1, #8]")
    assert pre.pre_indexed and pre.mem_offset_imm == 8 and not pre.writeback
    wb = first_insn("    ldr r0, [r1, #8]!")
    assert wb.writeback
    post = first_insn("    ldr r0, [r1], #8")
    assert not post.pre_indexed
    neg = first_insn("    ldr r0, [r1, #-8]")
    assert not neg.add_offset
    reg = first_insn("    ldr r0, [r1, r2, lsl #2]")
    assert reg.mem_offset_reg == 2 and reg.mem_shift_imm == 2
    negreg = first_insn("    ldr r0, [r1, -r2]")
    assert negreg.mem_offset_reg == 2 and not negreg.add_offset


def test_adr_pseudo():
    program = assemble("""
    adr r0, data
    nop
data:
    .word 1
""")
    insn = insn_at(program, 0)
    assert insn.op is Op.ADD and insn.rn == 15
    assert insn.op2.imm == 0  # data at 8 == pc+8


def test_msr_field_masks():
    insn = first_insn("    msr cpsr_c, r0")
    assert insn.imm == 1
    insn = first_insn("    msr spsr_cxsf, r1")
    assert insn.spsr and insn.imm == 0xF


def test_unknown_mnemonic_reports_line():
    with pytest.raises(AssemblerError) as excinfo:
        assemble("    nop\n    frobnicate r0\n")
    assert excinfo.value.line == 2


def test_unencodable_immediate_rejected():
    with pytest.raises(AssemblerError):
        assemble("    mov r0, #0x12345\n")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblerError):
        assemble("    b nowhere\n")


def test_comments_stripped():
    program = assemble("""
    nop        @ arm-style comment
    nop        // c-style comment
""")
    assert program.size == 8


def test_char_literals():
    insn = first_insn("    mov r0, #'A'")
    assert insn.op2.imm == 65
    insn = first_insn("    mov r0, #('a' - 10)")
    assert insn.op2.imm == 87


def test_literal_reused_after_a_later_ltorg_loads_from_a_slot_in_reach():
    """Each pool that requests a literal holds a slot for it; a load
    uses the earliest slot it can reach, not the first one made."""
    program = assemble("""
_start: ldr r0, =0x12345678
        b skip
        .ltorg
        .space 8000
skip:   ldr r1, =0x12345678
        b done
        .ltorg
done:   nop
""")
    for addr in (0, program.symbols["skip"]):
        insn = insn_at(program, addr)
        assert insn.op is Op.LDR and insn.rn == 15 and insn.add_offset
        slot = addr + 8 + insn.mem_offset_imm
        assert program.data[slot:slot + 4] == (0x12345678).to_bytes(4,
                                                                   "little")
    assert insn_at(program, 0).mem_offset_imm == 0          # first pool
    assert insn_at(program, program.symbols["skip"]).mem_offset_imm == 0


def test_literal_out_of_reach_of_every_slot_is_rejected():
    with pytest.raises(AssemblerError, match="offset 7992 out of range") \
            as excinfo:
        assemble("""
    ldr r0, =0x12345678
    b past
    .space 7992
past:
    .ltorg
""")
    assert excinfo.value.line == 2


@pytest.mark.parametrize("text", [
    "0", "42", "0x1F", "0XFF", "0b101", "0b12", "0x", "0x1_0", "1_0",
    "BASE", "BASE+4", " BASE", "BASE ", "(BASE)", "'A'", "-1", "~0",
    ".L1", "$x", "nowhere", "x.y", "2BASE",
])
def test_expression_fast_path_reads_as_the_parser(text):
    """A plain number or symbol skips the expression parser; the value
    or the error is the parser's."""
    assembler = Assembler()
    assembler.symbols.update({"BASE": 0x1000, ".L1": 8, "$x": 3,
                              "x.y": 5})
    try:
        expected = _ExprParser(text, assembler.symbols).parse()
    except ValueError as error:
        with pytest.raises(AssemblerError, match=re.escape(str(error))):
            assembler._eval(text, 1, text)
    else:
        assert assembler._eval(text, 1, text) == expected


def _split_by_walking(text):
    pieces, depth, current = [], 0, ""
    for char in text:
        if char in "[{(":
            depth += 1
        elif char in "]})":
            depth -= 1
        if char == "," and depth == 0:
            pieces.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        pieces.append(current.strip())
    return pieces


@pytest.mark.parametrize("text", [
    "", " ", "r0", "r0, r1", "r0, r1, #4", "r0,,r1", "r0, ", ",", " , r1",
    "r0, [r1, #4]", "{r0, r1}, r2", "r0), r1", "r0, #(1, 2)",
])
def test_operand_split_fast_path_matches_the_walk(text):
    assert Assembler()._split_operands(text) == _split_by_walking(text)
