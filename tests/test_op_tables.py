"""The two op tables: each ARM row follows the ARMv7 definition, and
every text of both tables means the same as Python and as the rule
verifier's expression nodes.

``guest/ops.py`` states each ARM data-processing op and condition once,
and ``host/ops.py`` each host op.  The reference interpreter runs the
texts as Python; the symbolic executors evaluate them over expression
nodes (``learning/symexec/exact.py``), exactly or not at all.
"""

import random
from types import SimpleNamespace

import pytest

from repro.common.errors import RuleVerificationError
from repro.guest.flags import add_with_carry, shift_with_carry
from repro.guest.isa import DATA_PROCESSING_OPS, Op, ShiftKind
from repro.guest.ops import COND_TEXTS, DP_ROWS, N_TEXT, STEPS, Z_TEXT
from repro.host import ops as host_ops
from repro.host.builder import CodeBuilder
from repro.host.cpu import COND_EXPRS
from repro.host.isa import EBX, ESI, Reg, X86Cond
from repro.learning.extract import CandidateRule
from repro.learning.symexec.exact import Value, value_of
from repro.learning.symexec.expr import MASK, Sym, evaluate
from repro.learning.symexec.x86_exec import X86SymExec
from repro.learning.verify import verify

from .support import _guest_fragment

CORNERS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _pairs(count, seed):
    rng = random.Random(seed)
    pairs = [(a, b) for a in CORNERS for b in CORNERS]
    return pairs + [(rng.getrandbits(32), rng.getrandbits(32))
                    for _ in range(count)]


# -- the ARM rows against ARMv7 AddWithCarry and Shift_C ---------------------

#: op -> the AddWithCarry operands of an arithmetic op over a, b and C.
ADD_WITH_CARRY = {
    Op.ADD: lambda a, b, c: (a, b, 0), Op.CMN: lambda a, b, c: (a, b, 0),
    Op.ADC: lambda a, b, c: (a, b, c),
    Op.SUB: lambda a, b, c: (a, ~b, 1), Op.CMP: lambda a, b, c: (a, ~b, 1),
    Op.SBC: lambda a, b, c: (a, ~b, c),
    Op.RSB: lambda a, b, c: (b, ~a, 1), Op.RSC: lambda a, b, c: (b, ~a, c),
}
LOGICAL = {
    Op.AND: lambda a, b: a & b, Op.TST: lambda a, b: a & b,
    Op.EOR: lambda a, b: a ^ b, Op.TEQ: lambda a, b: a ^ b,
    Op.ORR: lambda a, b: a | b, Op.MOV: lambda a, b: b,
    Op.BIC: lambda a, b: a & ~b & MASK, Op.MVN: lambda a, b: ~b & MASK,
}
SHIFTS = [(kind, amount) for kind in (ShiftKind.LSL, ShiftKind.LSR,
                                      ShiftKind.ASR, ShiftKind.ROR)
          for amount in (0, 1, 7, 31, 32, 33)] + [(ShiftKind.RRX, 0)]


def test_every_data_processing_op_has_one_row():
    assert set(DP_ROWS) == set(DATA_PROCESSING_OPS)
    assert set(ADD_WITH_CARRY) | set(LOGICAL) == set(DATA_PROCESSING_OPS)
    assert {op for op, row in DP_ROWS.items() if row.logical} == set(LOGICAL)


@pytest.mark.parametrize("op", sorted(DP_ROWS, key=lambda op: op.name),
                         ids=lambda op: op.name)
def test_arm_row_follows_the_armv7_definition(op):
    rng = random.Random(op.value)
    for a, m in _pairs(200, op.value):
        for c in (0, 1):
            kind, amount = SHIFTS[rng.randrange(len(SHIFTS))]
            b, s = shift_with_carry(m, kind, amount, c)
            v = rng.getrandbits(1)
            r, n, z, carry, overflow = STEPS[op](a, b, c, s, v)
            if op in ADD_WITH_CARRY:
                expected, carry_out, overflow_out = add_with_carry(
                    *ADD_WITH_CARRY[op](a, b, c))
            else:
                expected, carry_out, overflow_out = LOGICAL[op](a, b), s, v
            assert (r, n, z, carry, overflow) == (
                expected, expected >> 31, int(expected == 0), carry_out,
                overflow_out), (hex(a), hex(b), c, s, v)


# -- every text as expression nodes ------------------------------------------

#: (host op, flag) texts the verifier refuses: each reads bit 32 of a sum.
REFUSED = {("ADD", "c"), ("ADC", "c"), ("SBB", "c")}


def _same(text, exact_names, concrete_names, env):
    """Check *text* over expression nodes against Python; returns False
    when the exact evaluation refuses it."""
    try:
        value = value_of(text, exact_names)
    except RuleVerificationError:
        return False
    expected = eval(text, {}, concrete_names)
    assert value.lo <= expected <= value.hi, text
    assert evaluate(value.node, env) == expected & MASK, (text, env)
    return True


def _flags(bits, names):
    return dict(zip(names, ((bits >> index) & 1 for index in range(4))))


HOST_ROWS = [row for row in host_ops.TABLE if row.step is None]


@pytest.mark.parametrize("row", HOST_ROWS, ids=lambda row: row.op.name)
def test_host_texts_as_nodes_equal_their_python(row):
    flag_names = ("cf", "zf", "sf", "of")
    symbols = {name: Value(Sym(name)) for name in "xyv"}
    symbols["C"] = SimpleNamespace(**{
        name: Value(Sym(name), 0, 1) for name in flag_names})
    refused = set()
    for (x, y), n in zip(_pairs(40, 21), [1, 5, 31] * 100):
        for bits in (0, 0b1111, n & 15):
            flags = _flags(bits, flag_names)
            env = {"x": x, "y": y, "v": y ^ x, **flags}
            concrete = {"x": x, "y": y, "v": y ^ x,
                        "C": SimpleNamespace(**flags)}
            exact = dict(symbols)
            holes = {"n": n, "cond": bool(bits & 1)}
            for name, text in (("x", row.x), ("t", row.t),
                               ("r", row.result)):
                if text in (None, "x"):
                    continue
                text = host_ops.fill(text, {}, holes)
                assert _same(text, exact, concrete, env), text
                exact[name] = value_of(text, exact)
                concrete[name] = eval(text, {}, concrete)
            for letter, text in row.flag_texts.items():
                text = host_ops.fill(text, {}, holes)
                if not _same(text, exact, concrete, env):
                    refused.add((row.op.name, letter))
    assert refused == {key for key in REFUSED if key[0] == row.op.name}


@pytest.mark.parametrize("op", sorted(DP_ROWS, key=lambda op: op.name),
                         ids=lambda op: op.name)
def test_arm_texts_as_nodes_equal_their_python(op):
    row = DP_ROWS[op]
    for a, b in _pairs(40, op.value):
        for c in (0, 1):
            env = {"a": a, "b": b, "c": c}
            exact = {"a": Value(Sym("a")), "b": Value(Sym("b")),
                     "c": Value(Sym("c"), 0, 1)}
            concrete = dict(env)
            for name, text in (("t", row.t), ("r", row.result)):
                if text is not None:
                    assert _same(text, exact, concrete, env)
                    exact[name] = value_of(text, exact)
                    concrete[name] = eval(text, {}, concrete)
            for text in (N_TEXT, Z_TEXT, row.carry, row.overflow):
                if text is not None:
                    assert _same(text, exact, concrete, env), text


def test_condition_texts_as_nodes_equal_their_python():
    host_flags = ("cf", "zf", "sf", "of")
    host_exact = {"C": SimpleNamespace(**{
        name: Value(Sym(name), 0, 1) for name in host_flags})}
    arm_exact = {name: Value(Sym(name), 0, 1) for name in "nzcv"}
    for bits in range(16):
        host = _flags(bits, host_flags)
        arm = _flags(bits, "nzcv")
        for text in COND_EXPRS.values():
            assert _same(text, host_exact,
                         {"C": SimpleNamespace(**host)}, host)
        for text in COND_TEXTS.values():
            assert _same(text, arm_exact, arm, arm)


def test_an_add_carry_is_unmodelled_not_a_node():
    builder = CodeBuilder()
    builder.add(Reg(EBX), Reg(ESI))
    state = X86SymExec({"ebx": Sym("a"), "esi": Sym("b")}) \
        .execute(builder.insns)
    assert state.regs["ebx"] is not None        # the sum is modelled
    with pytest.raises(RuleVerificationError):
        state.flags.cf
    # A fragment whose branch reads it is unmodelled, never a rule.
    builder.jcc(X86Cond.B, "out")
    builder.bind("out")
    candidate = CandidateRule(
        function="__fixture_add_carry", line=1,
        guest=_guest_fragment("    adds r4, r4, r5\n    bcs 0"),
        host=builder.finish(), guest_vars={"a": "r4", "b": "r5"},
        host_vars={"a": EBX, "b": ESI})
    verdict = verify(candidate)
    assert verdict.reason.startswith("unmodelled") and not verdict.admitted
