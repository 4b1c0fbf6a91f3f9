"""The TCG frontend's IR stays op for op what it was.

Every data-processing op is lowered with S = 0 and S = 1 for each
operand-2 shape (immediate, rotated immediate, register, each
immediate shift kind with RRX, each register shift kind), with
``rd = pc`` and ``rn = pc``; multiplies with S, and one conditional
instruction per condition, are lowered too.  The text of each op's IR
is compared with a digest pinned from an earlier frontend: a change to
how the frontend states the ops must leave the IR, and so every tcg
cost figure, unchanged.
"""

import hashlib

import pytest

from repro.guest.isa import (COMPARE_OPS, DATA_PROCESSING_OPS, PC, ArmInsn,
                             Cond, Op, Operand2, ShiftKind)
from repro.miniqemu.frontend import TcgFrontend

SHAPES = (
    Operand2.immediate(5),
    Operand2.immediate(0xFF000000),
    Operand2.register(2),
    Operand2.register(2, ShiftKind.LSL, 3),
    Operand2.register(2, ShiftKind.LSR, 5),
    Operand2.register(2, ShiftKind.LSR, 32),
    Operand2.register(2, ShiftKind.ASR, 7),
    Operand2.register(2, ShiftKind.ASR, 32),
    Operand2.register(2, ShiftKind.ROR, 9),
    Operand2.register(2, ShiftKind.RRX),
    Operand2.register(2, ShiftKind.LSL, rs=3),
    Operand2.register(2, ShiftKind.LSR, rs=3),
    Operand2.register(2, ShiftKind.ASR, rs=3),
    Operand2.register(2, ShiftKind.ROR, rs=3),
)

#: op name -> sha256 of the IR text of all its cases.
GOLDEN = {
    "ADC": "d29aecefc434a8ec3aca6c63dabaa6f34a0122ff63f3c86926b022d99a576b8f",
    "ADD": "0902f9f59cee539855c0f14414cbe9e9a762dbdff6dce7711c09cef0c4f312b1",
    "AND": "c70e10c49710036efd4071a4ae0a10828e1f124fbe40e6e2f2cca233130248e2",
    "BIC": "f048ab803c1319af4f4dc0fa601eba1a97b33c34b2282a29f01db6630999f160",
    "CMN": "4c6eff23bde659ab7f4a997f5696ee3e2dca9da6313b0323edff08c8215558d8",
    "CMP": "bc99aa6ae7274f79e17a559cb3e5d54e72a6649d86641be2ee40b6a358bf6c82",
    "EOR": "0b20801735bcf0e449b6a336abe75915959eb31701ce43d11d77b81b42ee9e61",
    "MLA": "1fae056733c61230d19a7bdf6eda46eea9c49fac361b4654da1fb2cd50bb1fca",
    "MOV": "82b991c461a4992fc2eb43dc70c3081efbbb9968ee2e717014ce25ffd15de85e",
    "MUL": "53e16290f1afd8c50b7f1f2b1150629c89d2086a068fc8e0cbf5180d01f39377",
    "MVN": "6665d4e573017df8127a41ea73ee881abed00288520304b6143b8774dca5daed",
    "ORR": "b471d251ed2aa7c70f5c8ad3a5318823a15b138064f735d5ad80ec93b8f8d524",
    "RSB": "3f9746619c7a42a132289207475a33bfad5be490caff11f3dd5b23c76763e178",
    "RSC": "b2996fa99e4abff74b3b3d3a2f3e9467e69eda4902a3eddb9371b056aaaa9feb",
    "SBC": "de6edf1f2ea52a7157bb98d79037408160c9d46df377a33eafd5dc1d7193981c",
    "SUB": "a077c18e09e350d6c7367695501f23f9f10791c5308b950675161ce7b869708e",
    "TEQ": "e2d34763c571fe4b69cb600dec1053ed515793ad4f50a743ef83bc0126fc84ce",
    "TST": "5d6df5a77b9447ec9b7da6a2f9f883076d801b7f8685b726ac481867d8f4b480",
    "conditions":
        "3a7309bdacba950d9f6c002fa19222640f523181e5220036b8bb1a8735f1da36",
}


def _text(insn):
    ir_insns, ended = TcgFrontend(0).lower_body(insn)
    return "\n".join([str(insn), *map(str, ir_insns), f"ended={ended}"])


def _cases(op):
    if op in DATA_PROCESSING_OPS:
        for set_flags in (False, True):
            for op2 in SHAPES:
                yield ArmInsn(op, set_flags=set_flags, rd=0, rn=1, op2=op2,
                              addr=0x8000)
            if op not in COMPARE_OPS:
                yield ArmInsn(op, set_flags=set_flags, rd=PC, rn=1,
                              op2=SHAPES[2], addr=0x8000)
            yield ArmInsn(op, set_flags=set_flags, rd=0, rn=PC,
                          op2=SHAPES[0], addr=0x8000)
    else:
        for set_flags in (False, True):
            yield ArmInsn(op, set_flags=set_flags, rd=0, rn=1, rm=2, rs=3,
                          addr=0x8000)


def digest(op):
    text = "\n\n".join(_text(insn) for insn in _cases(op))
    return hashlib.sha256(text.encode()).hexdigest()


def _block_digest():
    """The IR of one conditional ``adds`` per condition, in a block."""
    texts = []
    for cond in Cond:
        insn = ArmInsn(Op.ADD, cond=cond, set_flags=True, rd=0, rn=1,
                       op2=Operand2.register(2), addr=0x8000)
        ir_insns, jmp_pcs = TcgFrontend(0).translate(0x8000, [insn])
        texts.append("\n".join([*map(str, ir_insns), str(jmp_pcs)]))
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ir_of_each_op_is_unchanged(name):
    if name == "conditions":
        assert _block_digest() == GOLDEN[name]
    else:
        assert digest(Op[name]) == GOLDEN[name]


def test_every_data_processing_op_is_pinned():
    assert {op.name for op in DATA_PROCESSING_OPS} <= set(GOLDEN)
