"""The generated Python of representative host blocks, pinned.

Compiled host code (``host/interp.py: _BodySource``) renders the op rows
of :mod:`repro.host.ops`, and the interpreter runs step functions
compiled from the same rows, so the interpreted-vs-compiled
differential cannot notice a row change that alters the code every hot
block runs.  A change to any expected text below changes the compiled
hot path and must be deliberate.
"""

import pytest

from repro.host import (EAX, EBP, EBX, ECX, EDX, ESP, Imm, Mem, Reg, X86Cond,
                        X86Insn, X86Op)
from repro.host.interp import _BodySource


def I(op, dst=None, src=None, cond=None):
    return X86Insn(op, dst, src, cond=cond)


ENV = Mem(EBP, 0x40)

#: name -> (block body, its generated source).
PINNED = {
    "add-flagged-mem-src": (
        [I(X86Op.ADD, Reg(EAX), ENV)],
        'def body():\n'
        ' global B0, E0, A0\n'
        ' a0 = (R[5] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' x = R[0]; y = U4(A0, a0 - B0)[0]; t = x + y\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' C.of = (~(x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[0] = r\n'),
    "add-carry-only-adc-flagless": (
        [I(X86Op.ADD, Reg(EAX), Reg(EBX)),
         I(X86Op.ADC, Reg(ECX), Imm(5)), I(X86Op.CMP, Reg(ECX), Imm(0))],
        'def body():\n'
        ' x = R[0]; y = R[3]; t = x + y\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' R[0] = r\n'
        ' R[1] = (R[1] + K0 + C.cf) & 4294967295\n'
        ' x = R[1]; y = K1\n'
        ' r = (x - (y)) & 4294967295\n'
        ' C.cf = 1 if y > x else 0\n'
        ' C.of = ((x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'),
    "add-flagless": (
        [I(X86Op.ADD, Reg(EAX), Imm(7)), I(X86Op.CMP, Reg(EAX), Reg(EBX))],
        'def body():\n'
        ' R[0] = (R[0] + K0) & 4294967295\n'
        ' x = R[0]; y = R[3]\n'
        ' r = (x - (y)) & 4294967295\n'
        ' C.cf = 1 if y > x else 0\n'
        ' C.of = ((x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'),
    # The ADC's memory read can raise, so every flag is live before it.
    "adc-flagged-mem-src": (
        [I(X86Op.ADD, Reg(EAX), Reg(EBX)),
         I(X86Op.ADC, Reg(ECX), Mem(EBP, 0x44))],
        'def body():\n'
        ' global B0, E0, A0\n'
        ' x = R[0]; y = R[3]; t = x + y\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' C.of = (~(x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[0] = r\n'
        ' a0 = (R[5] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' x = R[1]; y = U4(A0, a0 - B0)[0]; t = x + y + C.cf\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' C.of = (~(x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[1] = r\n'),
    "sub-sbb": (
        [I(X86Op.SUB, Reg(EAX), Reg(EBX)), I(X86Op.SBB, Reg(ECX), Reg(EDX))],
        'def body():\n'
        ' x = R[0]; y = R[3]\n'
        ' r = (x - (y)) & 4294967295\n'
        ' C.cf = 1 if y > x else 0\n'
        ' R[0] = r\n'
        ' x = R[1]; y = R[2]; t = y + C.cf\n'
        ' r = (x - (t)) & 4294967295\n'
        ' C.cf = 1 if t > x else 0\n'
        ' C.of = ((x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[1] = r\n'),
    "memory-rmw": (
        [I(X86Op.ADD, Mem(EBX, 8), Reg(EAX)),
         I(X86Op.NOT, Mem(EBX, 8, size=2))],
        'def body():\n'
        ' global B0, E0, A0, B1, E1, A1\n'
        ' a0 = (R[3] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' x = U4(A0, a0 - B0)[0]; y = R[0]; t = x + y\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' C.of = (~(x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' P4(A0, a0 - B0, (r))\n'
        ' a1 = (R[3] + K4) & 4294967295\n'
        ' if not B1 <= a1 <= E1: B1, E1, A1 = SITE(a1, 2)\n'
        ' P2(A1, a1 - B1, (U2(A1, a1 - B1)[0] ^ 4294967295) & 65535)\n'),
    "shifts-by-immediate": (
        [I(X86Op.SHL, Reg(EAX), Imm(3)), I(X86Op.SAR, Mem(EBX, 4), Imm(31)),
         I(X86Op.SHR, Reg(ECX), Imm(32))],
        'def body():\n'
        ' global B0, E0, A0\n'
        ' x = R[0]\n'
        ' r = (x << 3) & 4294967295\n'
        ' C.cf = (x >> 29) & 1\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[0] = r\n'
        ' a0 = (R[3] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' x = (U4(A0, a0 - B0)[0] ^ 2147483648) - 2147483648\n'
        ' r = (x >> 31) & 4294967295\n'
        ' C.cf = (x >> 30) & 1\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' P4(A0, a0 - B0, (r))\n'),
    "push-pop-esp-relative": (
        [I(X86Op.PUSH, src=Mem(ESP, 4)), I(X86Op.POP, Mem(ESP, 8))],
        'def body():\n'
        ' global B0, E0, A0, B1, E1, A1, B2, E2, A2, B3, E3, A3\n'
        ' R[4] = (R[4] - 4) & 4294967295\n'
        ' a0 = (R[4] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' a1 = R[4]\n'
        ' if not B1 <= a1 <= E1: B1, E1, A1 = SITE(a1, 4)\n'
        ' P4(A1, a1 - B1, U4(A0, a0 - B0)[0])\n'
        ' a2 = R[4]\n'
        ' if not B2 <= a2 <= E2: B2, E2, A2 = SITE(a2, 4)\n'
        ' a3 = (R[4] + K10) & 4294967295\n'
        ' if not B3 <= a3 <= E3: B3, E3, A3 = SITE(a3, 4)\n'
        ' P4(A3, a3 - B3, (U4(A2, a2 - B2)[0]))\n'
        ' R[4] = (R[4] + 4) & 4294967295\n'),
    "pushfd-popfd": (
        [I(X86Op.PUSHFD), I(X86Op.POPFD)],
        'def body():\n'
        ' global B0, E0, A0, B1, E1, A1\n'
        ' R[4] = (R[4] - 4) & 4294967295\n'
        ' a0 = R[4]\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' P4(A0, a0 - B0, C.cf | C.zf << 6 | C.sf << 7 | C.of << 11 | 2)\n'
        ' a1 = R[4]\n'
        ' if not B1 <= a1 <= E1: B1, E1, A1 = SITE(a1, 4)\n'
        ' v = U4(A1, a1 - B1)[0]\n'
        ' C.cf = v & 1\n'
        ' C.of = v >> 11 & 1\n'
        ' C.sf = v >> 7 & 1\n'
        ' C.zf = v >> 6 & 1\n'
        ' R[4] = (R[4] + 4) & 4294967295\n'),
    "setcc-reg-and-mem": (
        [I(X86Op.CMP, Reg(EAX), Reg(EBX)),
         I(X86Op.SETCC, Reg(ECX), cond=X86Cond.L),
         I(X86Op.SETCC, Mem(EBP, 0x10, size=1), cond=X86Cond.E)],
        'def body():\n'
        ' global B0, E0, A0\n'
        ' x = R[0]; y = R[3]\n'
        ' r = (x - (y)) & 4294967295\n'
        ' C.cf = 1 if y > x else 0\n'
        ' C.of = ((x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[1] = R[1] & 0xFFFFFF00 | (1 if C.sf != C.of else 0)\n'
        ' a0 = (R[5] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 1)\n'
        ' A0[a0 - B0] = ((1 if C.zf else 0)) & 255\n'),
    "stepped": (
        [I(X86Op.ADD, Reg(EAX), Imm(1)), I(X86Op.ROR, Reg(EAX), Imm(3)),
         I(X86Op.SHL, Reg(EDX), Reg(ECX)), I(X86Op.MOV, Reg(EBX), Reg(EAX))],
        'def body():\n'
        ' x = R[0]; y = K0; t = x + y\n'
        ' r = (t) & 4294967295\n'
        ' C.cf = t >> 32\n'
        ' C.of = (~(x ^ y) & (x ^ r)) >> 31\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[0] = r\n'
        ' STEP(I1)\n'
        ' STEP(I2)\n'
        ' R[3] = R[0]\n'),
    "moves-and-unary": (
        [I(X86Op.MOV, Reg(EAX), ENV), I(X86Op.MOVZX, Reg(ECX), Reg(EAX)),
         I(X86Op.MOVZX, Reg(EDX), Mem(EBX, 2, size=1)),
         I(X86Op.LEA, Reg(EDX), Mem(EAX, 8, ECX, 4)),
         I(X86Op.IMUL, Reg(EDX), Reg(ECX)), I(X86Op.NEG, Reg(EAX)),
         I(X86Op.INC, Reg(ECX)), I(X86Op.DEC, Reg(EDX)),
         I(X86Op.TEST, Reg(EAX), Reg(EDX)), I(X86Op.XOR, Reg(EAX), Reg(EAX)),
         I(X86Op.CMC), I(X86Op.STC), I(X86Op.CLC), I(X86Op.NOPSLOT)],
        'def body():\n'
        ' global B0, E0, A0, B1, E1, A1\n'
        ' a0 = (R[5] + K0) & 4294967295\n'
        ' if not B0 <= a0 <= E0: B0, E0, A0 = SITE(a0, 4)\n'
        ' R[0] = U4(A0, a0 - B0)[0]\n'
        ' R[1] = R[0] & 255\n'
        ' a1 = (R[3] + K4) & 4294967295\n'
        ' if not B1 <= a1 <= E1: B1, E1, A1 = SITE(a1, 1)\n'
        ' R[2] = A1[a1 - B1]\n'
        ' R[2] = (R[0] + R[1] * 4 + K8) & 4294967295\n'
        ' R[2] = R[2] * R[1] & 4294967295\n'
        ' x = R[0]\n'
        ' r = -x & 4294967295\n'
        ' C.cf = 1 if x else 0\n'
        ' R[0] = r\n'
        ' R[1] = (R[1] + 1) & 4294967295\n'
        ' r = (R[2] - 1) & 4294967295\n'
        ' C.of = 1 if r == 2147483647 else 0\n'
        ' R[2] = r\n'
        ' r = R[0] ^ R[0]\n'
        ' C.sf = r >> 31\n'
        ' C.zf = 0 if r else 1\n'
        ' R[0] = r\n'
        ' C.cf = 0\n'),
}


@pytest.mark.parametrize("name", PINNED)
def test_generated_body_source_is_pinned(name):
    insns, expected = PINNED[name]
    assert _BodySource(insns).text()[0] == expected
