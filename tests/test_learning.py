"""Tests for the rule-learning pipeline: toycc, extraction, verification."""

import pytest

from repro.guest.asm import assemble
from repro.guest.cpu import GuestCpu
from repro.guest.interp import Interpreter
from repro.host.cpu import HostCpu
from repro.host.interp import HostInterpreter
from repro.host.isa import EAX, EBX, ESI, REG_NAMES
from repro.host.memory import HostMemory
from repro.learning.corpus import TRAINING_SOURCE
from repro.learning.extract import extract_all
from repro.learning.learn import learn
from repro.learning.rules import LearnedRulebook, merge_rules, parameterize
from repro.learning.symexec.arm_exec import ArmSymExec
from repro.learning.symexec.expr import (App, Const, Sym, const, evaluate,
                                         normalize, proved_equal)
from repro.learning.symexec.x86_exec import X86SymExec
from repro.learning.toycc.codegen_arm import compile_arm
from repro.learning.toycc.codegen_x86 import compile_x86
from repro.learning.toycc.parser import ParseError, parse
from repro.learning.verify import (CLASS_PROVED, CLASS_REFUTED, CLASS_TESTED,
                                   classify_equiv, verify)
from tests.support import ALTERNATING_WITNESS, alternating_mask_fixture


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def test_parse_training_corpus():
    functions = parse(TRAINING_SOURCE)
    assert len(functions) >= 15
    names = {function.name for function in functions}
    assert {"poly", "dot", "sumto", "clamp"} <= names


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("func broken( {")


def test_parse_expression_precedence():
    (function,) = parse("func f(a, b) { return a + b * 4; }")
    ret = function.body[0]
    assert ret.value.op == "+"
    assert ret.value.right.op == "*"


# ---------------------------------------------------------------------------
# Differential execution: toycc's two back ends must agree with each
# other when actually executed on the two ISA simulators.
# ---------------------------------------------------------------------------

class _FlatBus:
    """Minimal flat memory for running toycc ARM output bare."""

    def __init__(self, size=0x10000):
        self.data = bytearray(size)

    def fetch(self, vaddr):
        return int.from_bytes(self.data[vaddr:vaddr + 4], "little")

    def load(self, vaddr, size):
        return int.from_bytes(self.data[vaddr:vaddr + size], "little")

    def store(self, vaddr, size, value):
        self.data[vaddr:vaddr + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def tlb_flush(self):
        pass


def run_arm_function(function, args, memory_words=None):
    output = compile_arm(function)
    bus = _FlatBus()
    program = assemble(output.asm, base=0x1000)
    bus.data[0x1000:0x1000 + program.size] = program.data
    if memory_words:
        for address, value in memory_words.items():
            bus.store(address, 4, value & 0xFFFFFFFF)
    cpu = GuestCpu()
    for index, value in enumerate(args):
        cpu.regs[index] = value & 0xFFFFFFFF
    cpu.regs[14] = 0xFFF0  # return sentinel
    cpu.regs[15] = 0x1000
    interp = Interpreter(cpu, bus)
    while cpu.regs[15] != 0xFFF0 and interp.icount < 100000:
        interp.step()
    assert cpu.regs[15] == 0xFFF0, "ARM function did not return"
    return cpu.regs[0], bus


def run_x86_function(function, args, memory_words=None):
    output = compile_x86(function)
    memory = HostMemory()
    data = bytearray(0x10000)
    memory.map_region(0, data, "flat")
    if memory_words:
        for address, value in memory_words.items():
            memory.write(address, value & 0xFFFFFFFF, 4)
    cpu = HostCpu(stack_top=0xFF00)
    for name, value in zip(function.params, args):
        cpu.regs[output.var_homes[name]] = value & 0xFFFFFFFF
    interp = HostInterpreter(cpu, memory)

    class FakeTb:
        pc = 0
        code = output.code
        jmp_target = [None, None]

    interp.execute(FakeTb())
    return cpu.regs[EAX], memory


CASES = [
    ("poly", [3, 5, 2], None),
    ("poly", [0xFFFFFFFF, 1, 7], None),
    ("bits", [0x1234, 0x56], None),
    ("maxdiff", [9, 4], None),
    ("maxdiff", [4, 9], None),
    ("sumto", [10], None),
    ("clamp", [5, 1, 10], None),
    ("clamp", [0, 1, 10], None),
    ("clamp", [99, 1, 10], None),
    ("mixer", [100, 3], None),
    ("cmpchain", [1, 1, 2], None),
    ("negate", [17], None),
    ("masks", [0xABCD], None),
    ("shifty", [5, 64], None),
    ("hashstep", [12345, 67], None),
    ("absval", [0xFFFFFF85], None),  # -123
    ("strideload", [0x2000, 3], {0x2000 + 4 * 7: 777}),
]


@pytest.mark.parametrize("name,args,memory", CASES)
def test_toycc_backends_agree(name, args, memory):
    functions = {function.name: function for function in
                 parse(TRAINING_SOURCE)}
    function = functions[name]
    arm_result, _ = run_arm_function(function, args, memory)
    x86_result, _ = run_x86_function(function, args, memory)
    assert arm_result == x86_result


def test_toycc_loops_and_stores_agree():
    functions = {function.name: function for function in
                 parse(TRAINING_SOURCE)}
    # fill writes memory on both sides; compare the written words.
    arm_result, arm_bus = run_arm_function(functions["fill"],
                                           [0x3000, 8, 100])
    x86_result, x86_memory = run_x86_function(functions["fill"],
                                              [0x3000, 8, 100])
    assert arm_result == x86_result == 8
    for index in range(8):
        address = 0x3000 + 4 * index
        assert arm_bus.load(address, 4) == x86_memory.read(address, 4) \
            == 100 + index


# ---------------------------------------------------------------------------
# Expression engine.
# ---------------------------------------------------------------------------

def test_normalize_shl_equals_mul():
    x = Sym("x")
    assert proved_equal(App("shl", (x, const(2))),
                        App("mulv", (const(4), x)))


def test_normalize_add_commutes():
    x, y = Sym("x"), Sym("y")
    assert proved_equal(App("add", (x, y)), App("add", (y, x)))


def test_normalize_sub_via_negative_coefficient():
    x, y = Sym("x"), Sym("y")
    a = App("add", (x, App("mulv", (const(0xFFFFFFFF), y))))
    b = App("add", (App("mulv", (const(0xFFFFFFFF), y)), x))
    assert proved_equal(a, b)


def test_normalize_xor_cancels():
    x = Sym("x")
    assert repr(normalize(App("xor", (x, x)))) == repr(const(0))


def test_equivalent_rejects_different():
    x, y = Sym("x"), Sym("y")
    classification, _ = classify_equiv(App("add", (x, y)),
                                       App("xor", (x, y)))
    assert classification == CLASS_REFUTED


def test_classify_equiv_catches_subtle_difference():
    x = Sym("x")
    classification, _ = classify_equiv(App("shr", (x, const(1))),
                                       App("sar", (x, const(1))))
    assert classification == CLASS_REFUTED


def test_classify_equiv_samples_past_the_bdd_budget():
    # Symbolic x symbolic multiplication exhausts the BDD node budget,
    # so the seeded sampler decides: no differing vector -> tested-only,
    # a differing one -> refuted with that vector as the witness.
    x, y = Sym("x"), Sym("y")
    product = App("mulv", (x, y))
    assert classify_equiv(product, App("mulv", (x, App("and", (y, y))))) \
        == (CLASS_TESTED, None)
    wrong = App("mulv", (x, App("or", (y, const(0x100)))))
    classification, witness = classify_equiv(product, wrong)
    assert classification == CLASS_REFUTED
    assert evaluate(product, witness) != evaluate(wrong, witness)


def test_evaluate_matches_semantics():
    env = {"x": 0x80000000}
    assert evaluate(App("sar", (Sym("x"), const(31))), env) == 0xFFFFFFFF
    assert evaluate(App("shr", (Sym("x"), const(31))), env) == 1


# ---------------------------------------------------------------------------
# Extraction + verification.
# ---------------------------------------------------------------------------

def test_extraction_pairs_lines():
    functions = parse(TRAINING_SOURCE)
    candidates = extract_all(functions)
    assert len(candidates) > 50
    for candidate in candidates:
        assert candidate.guest and candidate.host


def test_verification_accepts_good_fragments():
    functions = parse("func f(a, b) { var x; x = a + b * 2; return x; }")
    candidates = extract_all(functions)
    verdicts = [verify(candidate) for candidate in candidates]
    assert all(verdict.admitted for verdict in verdicts)
    assert all(verdict.classification == CLASS_PROVED
               for verdict in verdicts)


def test_verification_rejects_mispaired_fragments():
    good = extract_all(parse("func f(a, b) { var x; x = a + b; "
                             "return x; }"))
    bad = extract_all(parse("func g(a, b) { var x; x = a - b; "
                            "return x; }"))
    # Swap host fragments: a+b guest against a-b host must be rejected.
    frankenstein = good[0]
    frankenstein.host = bad[0].host
    assert not verify(frankenstein).admitted


def test_verification_refutes_rarely_wrong_fragment():
    # Wrong on 1 input in 4096, so sampling alone passes it; the BDD
    # rung finds the input and verify() keeps it out of the rulebook.
    candidate = alternating_mask_fixture()
    verdict = verify(candidate)
    assert verdict.refuted and not verdict.admitted
    assert verdict.reason == "variable y differs"
    assert verdict.witness["x"] & 0xFFF == ALTERNATING_WITNESS
    x, y = Sym("x"), Sym("y")
    guest = ArmSymExec({"r4": x, "r5": y}).execute(candidate.guest)
    host = X86SymExec({REG_NAMES[EBX]: x, REG_NAMES[ESI]: y}) \
        .execute(candidate.host)
    assert evaluate(guest.regs["r5"], verdict.witness) == 1
    assert evaluate(host.regs[REG_NAMES[ESI]], verdict.witness) == 0


def test_learn_end_to_end():
    result = learn()
    assert result.candidates >= 70
    assert result.verified >= 0.9 * result.candidates
    assert result.proved == result.verified  # normalizer or BDD
    assert len(result.verdicts) == result.candidates  # one per candidate
    assert len(result.rules) >= 30
    assert len(result.rules) < result.verified  # parameterization compresses
    assert isinstance(result.rulebook, LearnedRulebook)
    # Opcode parameterization must have merged at least one ALU family.
    assert any(rule.opcode_class for rule in result.rules)


def test_one_statement_at_two_offsets_is_one_rule():
    """Branch targets are placeholders on both sides, so a ``return``
    at different offsets of two functions (``b 0xc`` and ``jmp L2``
    against ``b 0x28`` and ``jmp L8``) makes one rule."""
    candidates = extract_all(parse("""
func short(a) {
    return a;
}

func long(a, b) {
    var x;
    x = a + b;
    x = x ^ a;
    return x;
}
"""))
    returns = [candidate for candidate in candidates
               if candidate.guest[-1].is_branch()]
    assert [candidate.site for candidate in returns] == \
        ["short:3", "long:10"]
    assert returns[0].guest[-1].target != returns[1].guest[-1].target
    rules = merge_rules([parameterize(candidate, proved=True)
                         for candidate in returns])
    assert [str(rule) for rule in rules] == \
        ["mov R0, R1; b T0  =>  mov R0, R1; jmp T0"]
    assert rules[0].origins == [("short", 3), ("long", 10)]


def test_learned_rulebook_covers_common_instructions():
    from repro.guest.asm import assemble as asm
    from repro.guest.decoder import decode as dec
    result = learn()
    rulebook = result.rulebook

    def covered(text):
        program = asm("    " + text, base=0)
        word = int.from_bytes(program.data[:4], "little")
        return rulebook.covers(dec(word, 0))

    assert covered("add r0, r1, r2")
    assert covered("sub r3, r4, #8")       # opcode parameterization
    assert covered("ldr r0, [r1, r2, lsl #2]")
    assert covered("str r0, [r1, r2, lsl #2]")
    assert covered("cmp r0, r1")
    assert covered("mul r0, r1, r2")
    # System instructions can never be learned from user-level code.
    assert not covered("mcr p15, 0, r0, c2, c0, 0")
    assert not covered("svc #0")


def test_learned_rulebook_dynamic_coverage():
    """The learned rules cover the bulk of user-level execution on SPEC
    analogs even though the training corpus is small (the paper's
    framework reaches higher coverage with a much larger corpus)."""
    from repro.core.config import OptLevel
    from repro.core.engine import make_rule_engine
    from repro.kernel.kernel import build_kernel, build_user_program
    from repro.miniqemu.machine import Machine
    from repro.workloads.spec import SPEC_WORKLOADS

    rulebook = learn().rulebook
    for name in ("sjeng", "mcf", "hmmer", "astar"):
        workload = SPEC_WORKLOADS[name]
        machine = Machine(engine="rules", rule_engine_factory=(
            make_rule_engine(OptLevel.FULL, rulebook=rulebook)))
        machine.memory.load_program(build_kernel(
            timer_reload=workload.timer_reload))
        machine.memory.load_program(build_user_program(workload.body))
        machine.cpu.regs[15] = 0
        machine.env.load_from_cpu(machine.cpu)
        machine.run(workload.max_insns)
        assert machine.exit_code == 0, name
        stats = machine.stats()
        covered = stats["engine.rule_covered_insns_dyn"]
        uncovered = stats["engine.rule_uncovered_insns_dyn"]
        assert covered / (covered + uncovered) > 0.5, name
