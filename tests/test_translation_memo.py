"""The translation-time memo: each guest block is decoded and analyzed
once per run, and a memoized fact is never used past a change of the
words or of rule coverage it was derived from.

The engine keeps two memos (docs/internals.md, "Translation-time
memo"): decoded instructions keyed by word and address, and per block
pc the block in emission order with its analysis.  A successor's
inter-TB live-in query and the successor's own translation read the
same block entry.
"""

import itertools

import pytest

from repro.analysis.dataflow import check_tb
from repro.analysis.findings import Severity
from repro.analysis.justify import J_INTER_TB, justifications_of
from repro.common.errors import InjectedFault
from repro.core.analysis import (F_ALL, _shifter_touches_carry,
                                 analyze_block, flags_written)
from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.guest.asm import assemble
from repro.guest.decoder import decode
from repro.guest.encoder import encode
from repro.guest.isa import (ArmInsn, BRANCH_OPS, COMPARE_OPS, Cond,
                             DATA_PROCESSING_OPS, LOAD_OPS, MEMORY_OPS, Op,
                             Operand2, PC, STORE_OPS, SYSTEM_OPS, ShiftKind)
from repro.guest.ops import DP_ROWS
from repro.harness.runner import ENGINE_SPECS, make_machine, run_workload
from repro.kernel.kernel import USER_ENTRY
from repro.miniqemu.machine import Machine
from repro.workloads import ALL_WORKLOADS
from repro.workloads.spec import Workload

BASE = 0x2000


def _rules_machine(source, base=BASE):
    machine = Machine(engine="rules",
                      rule_engine_factory=make_rule_engine(OptLevel.FULL))
    machine.memory.load_program(assemble(source, base=base))
    return machine


def _label(source, name, base=BASE):
    return assemble(source, base=base).symbols[name]


# ---------------------------------------------------------------------------
# Self-modifying code: a memoized successor fact is re-checked against
# guest memory before a translation uses it.
# ---------------------------------------------------------------------------

# blk_a's translation records live_in(succ) == 0 (succ starts with a
# cmp) through its never-taken beq.  The program then rewrites succ's
# cmp into "mov r5, r5", so succ reads the Z flag blk_b's cmp defines.
# blk_b is first translated after the patch: eliding its save on the
# pre-patch fact left succ reading stale flags (rules-full printed 0).
SMC_AFTER_PATCH = r"""
main:
    push {lr}
    mov r1, #0
    mov r3, #1
    bl blk_a
    ldr r6, =succ
    ldr r7, =0xE1A05005     @ mov r5, r5
    str r7, [r6]
    mov r0, #0
    mov r4, #7
    bl blk_b
    bl updec
    mov r0, #0
    bl uexit
blk_a:
    cmp r1, #5
    beq succ
    bx lr
blk_b:
    push {lr}
    cmp r4, #7
    bl succ
    pop {pc}
succ:
    cmp r3, #0
    moveq r0, #1
    bx lr
    .ltorg
"""

# The same patch, but blk_b is translated before it (its bleq is not
# taken on the first call, so succ itself is never translated early).
# blk_b's elision was right when it was made; only invalidating
# translated code on a code write would undo it.
SMC_BEFORE_PATCH = r"""
main:
    push {lr}
    mov r1, #0
    mov r3, #1
    bl blk_a
    mov r4, #0
    bl blk_b
    ldr r6, =succ
    ldr r7, =0xE1A05005     @ mov r5, r5
    str r7, [r6]
    mov r0, #0
    mov r4, #7
    bl blk_b
    bl updec
    mov r0, #0
    bl uexit
blk_a:
    cmp r1, #5
    beq succ
    bx lr
blk_b:
    push {lr}
    cmp r4, #7
    bleq succ
    pop {pc}
succ:
    cmp r3, #0
    moveq r0, #1
    bx lr
    .ltorg
"""


@pytest.mark.parametrize("engine,check", [
    ("interp", False), ("tcg", False), ("rules-full", False),
    ("interp", True), ("tcg", True), ("rules-full", True),
])
def test_successor_patched_after_analysis(engine, check):
    result = run_workload(Workload("smc-after", body=SMC_AFTER_PATCH),
                          engine, check=check)
    assert result.exit_code == 0
    assert result.output == "1\n"
    if check:
        assert result.stats.get("engine.check_rejected", 0) == 0


@pytest.mark.parametrize("engine", [
    "interp", "tcg",
    pytest.param("rules-full", marks=pytest.mark.xfail(
        strict=True, reason="no engine invalidates translated code on a "
                            "code write")),
])
def test_successor_patched_after_predecessor_translation(engine):
    result = run_workload(Workload("smc-before", body=SMC_BEFORE_PATCH),
                          engine)
    assert result.output == "1\n"


# The direct case: succ runs, is overwritten in place, and runs again.
# An engine that keeps succ's first translation prints 1 twice.
SMC_DIRECT_PATCH = r"""
main:
    push {lr}
    bl succ
    bl updec
    ldr r6, =succ
    ldr r7, =0xE3A00002     @ mov r0, #2
    str r7, [r6]
    bl succ
    bl updec
    mov r0, #0
    bl uexit
succ:
    mov r0, #1
    bx lr
    .ltorg
"""


@pytest.mark.parametrize("engine", [
    engine if engine == "interp" else pytest.param(
        engine, marks=pytest.mark.xfail(
            strict=True, reason="no engine invalidates translated code "
                                "on a code write"))
    for engine in ENGINE_SPECS])
def test_code_patched_after_it_ran(engine):
    result = run_workload(Workload("smc-direct", body=SMC_DIRECT_PATCH),
                          engine)
    assert result.exit_code == 0
    assert result.output == "1\n2\n"


def test_peek_reads_without_filling_the_tlb():
    machine = make_machine(Workload("smc-after", body=SMC_AFTER_PATCH),
                           "rules-full")
    assert machine.run(1_000_000) == 0
    engine = machine.engine
    bus = machine.bus
    pc = USER_ENTRY
    assert machine.cpu.cp15.mmu_enabled
    machine.tlb.flush()
    fills, data = machine.tlb.fill_count, bytes(machine.tlb.data)
    peeked = engine.peek_block(pc)
    assert machine.tlb.fill_count == fills
    assert bytes(machine.tlb.data) == data
    assert engine.fetch_block(pc) == peeked
    assert machine.tlb.fill_count == fills + 1
    assert [insn.raw for insn in peeked] == \
        [bus.peek(pc + 4 * index) for index in range(len(peeked))]


# ---------------------------------------------------------------------------
# The live-in a predecessor reads is the live-in of the block as it is
# translated (scheduled when scheduling is on).
# ---------------------------------------------------------------------------

def test_successor_live_in_is_the_translated_live_in():
    source = ("    cmp r0, r1\n"
              "    ldr r2, [r3]\n"
              "    beq done\n"
              "done:\n"
              "    bx lr\n")
    machine = _rules_machine(source)
    engine = machine.engine
    engine.ladder.quarantine_rule("LDR", "test")
    fetched = engine.fetch_block(BASE)
    # Fetch order: the cmp defines every flag before the uncovered ldr.
    assert analyze_block(fetched, engine.rulebook).live_in == 0
    # Emission order: the scheduler hoists the ldr above the cmp.
    live_in = engine.successor_live_in(BASE)
    assert live_in == F_ALL
    tb = engine.translate(BASE, engine.mmu_idx())
    assert tb.meta["tier"] == "rules"
    assert tb.guest_insns[0].op is Op.LDR
    assert tb.meta["live_in"] == live_in


# ---------------------------------------------------------------------------
# Quarantine between a successor's analysis and its translation.
# ---------------------------------------------------------------------------

QUARANTINE_SOURCE = ("pred:\n"
                     "    adds r0, r0, r1\n"
                     "    bne succ\n"
                     "    bx lr\n"
                     "succ:\n"
                     "    adds r2, r2, #1\n"
                     "    bx lr\n")


def _inter_tb_targets(tb):
    return [record["target_pc"] for record in justifications_of(tb.meta)
            if record["kind"] == J_INTER_TB]


def test_quarantine_between_analysis_and_translation():
    machine = _rules_machine(QUARANTINE_SOURCE)
    engine = machine.engine
    mmu_idx = engine.mmu_idx()
    succ = _label(QUARANTINE_SOURCE, "succ")

    pred = engine.get_tb(BASE, mmu_idx)
    before = engine._blocks[succ]
    assert before.info.live_in == 0
    assert _inter_tb_targets(pred) == [succ]     # elided on live_in 0

    assert engine.ladder.quarantine_rule("ADD", "test")
    engine.cache.invalidate_rules(["ADD"])
    assert engine.cache.lookup(BASE, mmu_idx) is None
    assert engine._blocks == {}

    tb = engine.get_tb(succ, mmu_idx)
    after = engine._blocks[succ]
    assert after is not before                   # analyzed again
    assert not after.info.insns[0].covered       # under the new coverage
    assert after.info.live_in == F_ALL
    assert tb.meta["n_uncovered"] == 1
    assert tb.meta["live_in"] == F_ALL

    pred = engine.get_tb(BASE, mmu_idx)
    assert _inter_tb_targets(pred) == []         # no elision on the old 0
    errors = [finding for finding in
              check_tb(pred, engine.config,
                       live_in_of=engine.successor_live_in)
              if finding.severity is Severity.ERROR]
    assert errors == []


def test_translation_reuses_the_successor_analysis(monkeypatch):
    import repro.core.analysis as analysis

    machine = _rules_machine(QUARANTINE_SOURCE)
    engine = machine.engine
    mmu_idx = engine.mmu_idx()
    succ = _label(QUARANTINE_SOURCE, "succ")
    calls = []
    original = analysis.analyze_block
    monkeypatch.setattr(analysis, "analyze_block",
                        lambda insns, rulebook=None:
                        calls.append(insns[0].addr) or
                        original(insns, rulebook))
    engine.get_tb(BASE, mmu_idx)
    assert succ in calls
    entry = engine._blocks[succ]
    calls.clear()
    tb = engine.get_tb(succ, mmu_idx)
    assert calls == []                           # the memo served it
    assert engine._blocks[succ] is entry
    assert tb.guest_insns == entry.insns
    # A repeated query re-checks the words but does not re-analyze.
    assert engine.successor_live_in(succ) == entry.info.live_in
    assert calls == []


def test_successor_reads_through_bus_fetch_once_per_entry():
    """``fetch_block`` runs where it ran before the memo, so TLB fills
    and fault-seed sequences do not move; an injected fetch fault marks
    nothing, so the retried query fetches again."""
    machine = _rules_machine(QUARANTINE_SOURCE)
    engine = machine.engine
    fetch_block = engine.fetch_block
    calls = []
    faults = [InjectedFault("fetch", "test")]

    def flaky_fetch_block(pc):
        calls.append(pc)
        if faults:
            raise faults.pop()
        return fetch_block(pc)

    engine.fetch_block = flaky_fetch_block
    with pytest.raises(InjectedFault):
        engine.successor_live_in(BASE)
    engine.successor_live_in(BASE)
    engine.successor_live_in(BASE)               # peeked, not fetched
    assert calls == [BASE, BASE]
    calls.clear()
    tb = engine.get_tb(BASE, engine.mmu_idx())   # a translation fetches
    assert calls[0] == BASE and BASE not in calls[1:]
    calls.clear()
    engine.cache.invalidate(tb)                  # drops the entry
    engine.successor_live_in(BASE)
    engine.successor_live_in(BASE)
    assert calls == [BASE]


# ---------------------------------------------------------------------------
# Memoized instructions are shared and stay read-only.
# ---------------------------------------------------------------------------

#: Injector edits that reach translated code: a wrong rule (quarantined
#: by the self-check) and removed sync saves.
INJECTED = "seed=1,rule-wrong=SUB,drop-save=0.5"


def _assert_memo_intact(engine):
    assert engine._decoded
    for key, insn in engine._decoded.items():
        word, addr = key & 0xFFFFFFFF, key >> 32
        assert insn.raw == word and insn.addr == addr
        assert encode(insn) == word
        assert insn == decode(word, addr)


def test_memoized_insns_stay_read_only(tmp_path):
    workload = ALL_WORKLOADS["cpu-prime"]
    store = str(tmp_path / "store")
    runs = [make_machine(workload, "rules-full", cache_dir=store,
                         inject=INJECTED),
            None,
            make_machine(workload, "rules-full", check=True)]
    cold = runs[0]
    assert cold.run(workload.max_insns) == 0
    cold.engine.persistent.save()
    runs[1] = make_machine(workload, "rules-full", cache_dir=store,
                           inject=INJECTED)
    assert runs[1].run(workload.max_insns) == 0
    assert runs[1].engine.persistent.loaded > 0
    assert runs[2].run(workload.max_insns) == 0
    stats = cold.stats()
    for site in ("rule_wrong", "drop_save"):
        assert stats[f"robust.inj_{site}"] > 0, site
    assert len({machine.uart.text for machine in runs}) == 1
    for machine in runs:
        _assert_memo_intact(machine.engine)


def test_exception_return_never_writes_the_insn(monkeypatch):
    from repro.miniqemu.frontend import TcgFrontend

    insn = decode(0xE1B0F00E, 0x3000)            # movs pc, lr
    assert insn.is_system() and insn.set_flags
    seen = []
    shifter = TcgFrontend._shifter

    def spy(self, op2, operand_insn, want_carry):
        seen.append(operand_insn.set_flags)
        return shifter(self, op2, operand_insn, want_carry)

    monkeypatch.setattr(TcgFrontend, "_shifter", spy)
    TcgFrontend(0).translate(0x3000, [insn])
    assert seen == [True]
    assert insn == decode(0xE1B0F00E, 0x3000)


def test_fetch_block_shares_decoded_insns():
    machine = _rules_machine(QUARANTINE_SOURCE)
    engine = machine.engine
    first = engine.fetch_block(BASE)
    second = engine.fetch_block(BASE)
    assert all(a is b for a, b in zip(first, second))
    assert len(first) == len(second) == 2
    # A new word at the same address decodes afresh.
    machine.memory.write(BASE, 4, 0xE0900002)    # adds r0, r0, r2
    third = engine.fetch_block(BASE)
    assert third[0] is not first[0] and third[1] is first[1]
    assert third[0].op2.rm == 2


# ---------------------------------------------------------------------------
# Classification once per opcode: the per-opcode attributes agree with
# the operation sets they replace.
# ---------------------------------------------------------------------------

def _variants():
    operands = (None, Operand2.immediate(5), Operand2.immediate(0x3FC),
                Operand2.register(2), Operand2.register(2, ShiftKind.LSL, 3),
                Operand2.register(2, ShiftKind.RRX),
                Operand2.register(2, ShiftKind.ASR, rs=4))
    for op, set_flags, rd, op2, reglist, spsr, imm in itertools.product(
            Op, (False, True), (0, PC), operands, ([], [0, PC]),
            (False, True), (0, 0x8)):
        yield ArmInsn(op=op, set_flags=set_flags, rd=rd, op2=op2,
                      reglist=list(reglist), spsr=spsr, imm=imm,
                      cond=Cond.AL)


def _reference_flags_written(insn):
    op = insn.op
    carry = 4 if _shifter_touches_carry(insn) else 0
    if op in (Op.CMP, Op.CMN):
        return F_ALL
    if op in COMPARE_OPS:
        return 3 | carry
    if op in DATA_PROCESSING_OPS and insn.set_flags:
        return 3 | carry if DP_ROWS[op].logical else F_ALL
    if op in (Op.MUL, Op.MLA) and insn.set_flags:
        return 3
    if op is Op.MSR and not insn.spsr and insn.imm & 0x8:
        return F_ALL
    if op is Op.VMRS and insn.rd == PC:
        return F_ALL
    return 0


def test_classification_matches_the_operation_sets():
    checked = 0
    for insn in _variants():
        op = insn.op
        assert insn.is_memory() == (op in MEMORY_OPS)
        assert insn.is_branch() == (op in BRANCH_OPS)
        assert insn.is_load() == (op in LOAD_OPS or op in (Op.LDM, Op.VLDR))
        assert insn.is_store() == (op in STORE_OPS or
                                   op in (Op.STM, Op.VSTR))
        assert insn.is_system() == (
            op in SYSTEM_OPS or op is Op.SVC or
            (op in DATA_PROCESSING_OPS and insn.set_flags and
             insn.rd == PC and op not in COMPARE_OPS))
        assert insn.writes_pc() == (
            op in BRANCH_OPS or op is Op.SVC or
            (op in DATA_PROCESSING_OPS and op not in COMPARE_OPS and
             insn.rd == PC) or
            (op in LOAD_OPS and insn.rd == PC) or
            (op is Op.LDM and PC in insn.reglist))
        assert flags_written(insn) == _reference_flags_written(insn)
        checked += 1
    assert checked > 5000
