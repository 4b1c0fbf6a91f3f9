"""The translation soundness checker (``repro check`` / ``--check``).

Three claims are pinned here:

1. **Clean builds verify**: the dataflow checker reports zero findings
   on everything the translator emits, at every optimization level.
2. **Injected violations are caught**: every analysis-level fault the
   injector plants (dropped sync-save, forged elision justification)
   and every hand tamper (forged inter-TB claim, illegal or undeclared
   reorder, stripped TB-end re-pack, refuted rule) produces an
   ERROR finding — and the ``--check`` engine mode degrades the block
   before it can execute.
3. **Satellite regressions**: the may/definite flag-def split in
   ``core.analysis`` (conditional flag-setters are may-defs only), the
   inter-TB negative path (a successor that only *partially* defines
   the flags keeps the end-of-block save), and the carry-convention
   instructions (ADC/SBC/RRX) stay architecturally exact.
"""

import itertools

import pytest

from repro.analysis.dataflow import (_CLOBBERS_EFLAGS, _WRITES_DST_REG,
                                     check_tb)
from repro.analysis.findings import Report, Severity
from repro.analysis.justify import (AUDIT_KEY, EV_FALLBACK, EV_RESTORE,
                                    EV_SAVE, J_INTER_TB, J_REORDER,
                                    JUSTIFY_KEY, audit_of,
                                    inter_tb_justification,
                                    justifications_of, shift_indices,
                                    sync_counts)
from repro.core.analysis import (F_ALL, F_C, F_N, F_V, F_Z,
                                 flags_written_definite, flags_written_may)
from repro.core.config import OptConfig, OptLevel
from repro.core.engine import RuleEngine, make_rule_engine
from repro.guest.asm import assemble
from repro.guest.decoder import decode
from repro.host.cpu import HostCpu
from repro.host.interp import HostInterpreter
from repro.host.isa import (EAX, EBX, ECX, ENV_REG, Imm, Mem, Reg, X86Cond,
                            X86Insn, X86Op, Xmm)
from repro.host.memory import HostMemory
from repro.host.ops import ROWS
from repro.miniqemu.env import ENV_REGS
from repro.miniqemu.machine import Machine
from repro.robustness.faultinject import FaultInjector, parse_inject_spec
from tests.support import refutable_fixture

BASE_ADDR = 0x40000

ALL_LEVELS = (OptLevel.BASE, OptLevel.REDUCTION, OptLevel.ELIMINATION,
              OptLevel.FULL)
PACKED_LEVELS = ALL_LEVELS[1:]

#: Representative translation sources: flag producers around memory
#: sites (coordination), conditional runs (restore paths), inter-TB
#: edges, scheduling fodder, and a flags-live-across-everything block.
CLEAN_SOURCES = {
    "mem-coordination": """
    cmp r1, #10
    str r2, [r3]
    str r2, [r3, #4]
    bne target
target:
    nop
""",
    "conditional-run": """
    cmp r1, #10
    addeq r2, r2, #1
    addeq r3, r3, #1
    bx lr
""",
    "inter-tb": """
    cmp r1, r2
    b next
next:
    cmp r3, r4
    bne elsewhere
elsewhere:
    nop
""",
    "schedule": """
    cmp r1, r2
    ldr r3, [r4]
    bne target
target:
    nop
""",
    "carry-chain": """
    adds r1, r1, r2
    adc r3, r3, r4
    sbcs r5, r5, r6
    str r1, [r7]
    bx lr
""",
}

#: A flag-producer feeding a memory site feeding a flag consumer: the
#: flags are architecturally LIVE across the coordination point, so a
#: dropped sync-save here is always a detectable soundness violation.
LIVE_ACROSS_SITE = """
    adds r1, r1, r2
    str r3, [r4]
    adds r1, r1, r2
    bx lr
"""


def make_engine(source, level=OptLevel.FULL, inject=None, check=False,
                config=None):
    kwargs = {}
    if inject is not None:
        kwargs["fault_injector"] = FaultInjector(parse_inject_spec(inject))
    machine = Machine(engine="tcg", **kwargs)
    machine.memory.load_program(assemble(source, base=BASE_ADDR))
    return RuleEngine(machine, level=level, config=config, check=check)


def findings_of(engine, tb, **kw):
    return check_tb(tb, engine.config,
                    live_in_of=engine.successor_live_in, **kw)


def errors_of(findings):
    return [f for f in findings if f.severity is Severity.ERROR]


# ---------------------------------------------------------------------------
# 1. Clean builds verify.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", ALL_LEVELS,
                         ids=[level.name for level in ALL_LEVELS])
@pytest.mark.parametrize("name", sorted(CLEAN_SOURCES))
def test_clean_translation_has_zero_findings(name, level):
    engine = make_engine(CLEAN_SOURCES[name], level)
    tb = engine.translate(BASE_ADDR, 0)
    assert findings_of(engine, tb) == []


#: N and V are dead after ``addlt``: ``cmp`` redefines every flag before
#: ``bls`` reads one, so the docs/soundness.md "Stale-dead windows" rule
#: says the unsaved clobber at ``str`` is benign.  The checker keeps the
#: ``ands`` producer's ``live_after`` mask until the next producer and
#: reports lost-ccr/env-stale-handoff, so ``--check`` demotes this sound
#: TB to TCG.  Point-wise flag liveness in the checker would fix it.
STALE_DEAD_AFTER_CONDITIONAL = """
    ands r12, r0, r4
    addlt r8, r0, #208
    eor r3, r4, #67
    str r5, [r11, #376]
    cmp r10, #1
    bls target
target:
    nop
"""


@pytest.mark.xfail(strict=True, reason="checker false positive: flag "
                   "liveness is tracked per producer, not per point")
@pytest.mark.parametrize("level", (OptLevel.ELIMINATION, OptLevel.FULL),
                         ids=["ELIMINATION", "FULL"])
def test_stale_dead_window_after_conditional_is_clean(level):
    engine = make_engine(STALE_DEAD_AFTER_CONDITIONAL, level)
    tb = engine.translate(BASE_ADDR, 0)
    assert findings_of(engine, tb) == []


def test_clean_translation_emits_audit_records():
    engine = make_engine(CLEAN_SOURCES["mem-coordination"], OptLevel.FULL)
    tb = engine.translate(BASE_ADDR, 0)
    kinds = {event["kind"] for event in audit_of(tb.meta)}
    assert "save" in kinds and "produce" in kinds


def test_waivers_reported_only_on_request():
    engine = make_engine(CLEAN_SOURCES["inter-tb"], OptLevel.ELIMINATION)
    tb = engine.translate(BASE_ADDR, 0)
    assert findings_of(engine, tb) == []
    waived = findings_of(engine, tb, include_waivers=True)
    assert all(f.severity is Severity.INFO for f in waived)


# ---------------------------------------------------------------------------
# 2. Injected violations are caught.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", (OptLevel.BASE, OptLevel.FULL),
                         ids=["BASE", "FULL"])
def test_dropped_save_is_flagged(level):
    engine = make_engine(LIVE_ACROSS_SITE, level, inject="drop-save=1.0")
    tb = engine.translate(BASE_ADDR, 0)
    engine.machine.injector.instrument_tb(tb)
    assert tb.meta.get("injected") == "drop-save"
    errors = errors_of(findings_of(engine, tb))
    assert errors, "dropped sync-save not detected"
    assert {f.code for f in errors} & {"lost-ccr", "env-stale-handoff"}


@pytest.mark.parametrize("level", (OptLevel.BASE, OptLevel.FULL),
                         ids=["BASE", "FULL"])
def test_forged_elision_is_flagged(level):
    engine = make_engine(LIVE_ACROSS_SITE, level, inject="forge-elide=1.0")
    tb = engine.translate(BASE_ADDR, 0)
    engine.machine.injector.instrument_tb(tb)
    assert tb.meta.get("injected") == "forge-elide"
    errors = errors_of(findings_of(engine, tb))
    assert "bad-elide-justification" in {f.code for f in errors}


def _strip_host_range(tb, start, end):
    """Delete host insns ``[start, end)`` and the audit events inside,
    keeping every other record pointing at the same instructions."""
    delta = end - start
    del tb.code[start:end]
    for insn in tb.code:
        if insn.target_index >= end:
            insn.target_index -= delta
    kept = [e for e in audit_of(tb.meta) if not start <= e["start"] < end]
    tb.meta[AUDIT_KEY] = shift_indices(kept, end, -delta)
    tb.meta[JUSTIFY_KEY] = shift_indices(justifications_of(tb.meta), end,
                                         -delta)


def test_forged_inter_tb_claim_is_flagged():
    """A forged Sec III-C-3 record claiming the live successor is dead."""
    engine = make_engine(CLEAN_SOURCES["inter-tb"], OptLevel.ELIMINATION)
    # The middle block's successor (`elsewhere`) only partially defines
    # the flags, so the translator KEEPS the end-of-block save.  Forge
    # the elision by hand: delete the save, plant live_in=0.
    tb = engine.translate(BASE_ADDR + 8, 0)
    save = next(e for e in audit_of(tb.meta) if e["kind"] == EV_SAVE)
    _strip_host_range(tb, save["start"], save["end"])
    goto = next(i for i, insn in enumerate(tb.code)
                if insn.op.name == "GOTO_TB")
    tb.meta[JUSTIFY_KEY].append(
        inter_tb_justification(goto, tb.jmp_pc[0], live_in=0))
    errors = errors_of(findings_of(engine, tb))
    assert "bad-inter-tb-justification" in {f.code for f in errors}
    witness = next(f.witness for f in errors
                   if f.code == "bad-inter-tb-justification")
    assert witness["recomputed"] != 0


#: ``adds ... rrx`` is not covered by the rulebook: its inline TCG
#: fallback writes the per-bit flag fields and leaves env.packed stale,
#: and the successor reads the carry.
STALE_PACKED_AT_EXIT = """
    cmp r0, #0
    adds r0, r0, r0, rrx
    b next
next:
    movcs r0, r1
    bx lr
"""


@pytest.mark.parametrize("level", PACKED_LEVELS,
                         ids=[level.name for level in PACKED_LEVELS])
def test_stripped_tb_end_repack_is_flagged(level):
    """The TB-end re-pack after a flag-writing fallback is load-bearing:
    the successor's entry restore reads env.packed unconditionally."""
    engine = make_engine(STALE_PACKED_AT_EXIT, level)
    tb = engine.translate(BASE_ADDR, 0)
    assert findings_of(engine, tb) == []
    events = audit_of(tb.meta)
    fallback = next(i for i, e in enumerate(events)
                    if e["kind"] == EV_FALLBACK and e["writes"])
    restore, save = events[fallback + 1:]
    assert (restore["kind"], restore["mode"]) == (EV_RESTORE, "parsed")
    assert (save["kind"], save["mode"]) == (EV_SAVE, "packed")
    _strip_host_range(tb, restore["start"], save["end"])
    errors = errors_of(findings_of(engine, tb))
    assert "stale-packed-exit" in {f.code for f in errors}


def _scheduled_tb(engine):
    tb = engine.translate(BASE_ADDR, 0)
    (record,) = [r for r in justifications_of(tb.meta)
                 if r["kind"] == J_REORDER]
    assert record["scheduled"] != record["original"], \
        "scheduling should have reordered this block"
    assert [insn.addr for insn in tb.guest_insns] == record["scheduled"]
    assert findings_of(engine, tb) == []
    return tb, record


def test_tampered_reorder_is_flagged():
    """An illegal permutation with a matching record: the dependence
    replay rejects it."""
    engine = make_engine(CLEAN_SOURCES["schedule"], OptLevel.FULL)
    tb, record = _scheduled_tb(engine)
    ldr, cmp, bne = tb.guest_insns
    # Hoist the branch above the producer it reads: a barrier crossing.
    tb.guest_insns = [ldr, bne, cmp]
    record["scheduled"] = [insn.addr for insn in tb.guest_insns]
    codes = {f.code for f in errors_of(findings_of(engine, tb))}
    assert codes and all(code.startswith("reorder-") for code in codes)


def test_missing_reorder_record_is_flagged():
    engine = make_engine(CLEAN_SOURCES["schedule"], OptLevel.FULL)
    tb, _ = _scheduled_tb(engine)
    tb.meta[JUSTIFY_KEY] = [r for r in justifications_of(tb.meta)
                            if r["kind"] != J_REORDER]
    errors = errors_of(findings_of(engine, tb))
    assert "undeclared-reorder" in {f.code for f in errors}


def test_mismatched_reorder_record_is_flagged():
    """A record that disagrees with the emitted order is never trusted."""
    engine = make_engine(CLEAN_SOURCES["schedule"], OptLevel.FULL)
    tb, record = _scheduled_tb(engine)
    record["scheduled"] = record["scheduled"][::-1]
    errors = errors_of(findings_of(engine, tb))
    assert "bad-reorder-justification" in {f.code for f in errors}


def test_refuted_fixture_rule_is_quarantined():
    from repro.analysis.checker import quarantine_refuted
    from repro.core.rulebook import MatureRulebook, QuarantineFilter
    from repro.learning.verify import verify

    candidate = refutable_fixture()
    verdict = verify(candidate)
    assert verdict.refuted
    assert verdict.witness is not None  # concrete, validated witness
    a, b = verdict.witness["a"], verdict.witness["b"]
    assert (a + b) & 0xFFFFFFFF != (a - b) & 0xFFFFFFFF
    quarantine = QuarantineFilter(MatureRulebook())
    keys = quarantine_refuted([candidate], {
        "__fixture_wrong_add:1": verdict}, quarantine)
    assert "ADD" in keys
    assert not quarantine.covers(candidate.guest[0])


def test_rulebook_phase_is_clean_and_quarantines_fixture():
    from repro.analysis.checker import check_rulebook
    from repro.core.rulebook import MatureRulebook, QuarantineFilter

    quarantine = QuarantineFilter(MatureRulebook())
    report = Report()
    check_rulebook(report, quarantine=quarantine,
                   extra_candidates=[refutable_fixture()])
    # Every *shipped* rule is proved or tested-only; only the fixture
    # is refuted, and it got quarantined.
    refuted = [f for f in report.findings if f.code == "rule-refuted"]
    assert len(refuted) == 1
    assert refuted[0].rule == "__fixture_wrong_add:1"
    assert report.meta["candidates_refuted"] == 1
    assert report.meta.get("rules_quarantined") == "ADD"
    fixture = refutable_fixture()
    assert not quarantine.covers(fixture.guest[0])


def test_check_mode_degrades_unsound_tb_before_entry():
    engine = make_engine(LIVE_ACROSS_SITE, OptLevel.FULL,
                         inject="drop-save=1.0", check=True)
    tb = engine.get_tb(BASE_ADDR, 0)
    assert tb.meta["tier"] == "tcg"
    assert engine.check_rejected == 1
    assert engine.cache.lookup(BASE_ADDR, 0) is tb


def test_check_mode_accepts_clean_tb():
    engine = make_engine(LIVE_ACROSS_SITE, OptLevel.FULL, check=True)
    tb = engine.get_tb(BASE_ADDR, 0)
    assert tb.meta["tier"] == "rules"
    assert engine.check_tbs == 1
    assert engine.check_rejected == 0


def test_check_mode_run_recovers_full_workload():
    """End to end: every rules TB is corrupted, --check degrades them
    all pre-entry, and the workload still produces its exact output."""
    from repro.harness.runner import run_workload
    from repro.workloads import ALL_WORKLOADS

    result = run_workload(ALL_WORKLOADS["cpu-prime"], "rules-full",
                          inject="seed=3,drop-save=1.0", check=True)
    assert result.exit_code == 0
    assert result.stats["engine.check_rejected"] > 0
    assert result.stats["robust.tier_tcg_tbs"] == \
        result.stats["engine.check_rejected"]


# ---------------------------------------------------------------------------
# 3a. Satellite: may/definite flag-def split (core.analysis).
# ---------------------------------------------------------------------------


def _decode_one(text):
    program = assemble("    " + text, base=0)
    return decode(int.from_bytes(program.data[:4], "little"), 0)


def test_conditional_flag_setter_is_may_def_only():
    insn = _decode_one("addeqs r1, r1, r2")
    assert flags_written_may(insn) == F_ALL
    assert flags_written_definite(insn) == 0


def test_unconditional_flag_setter_is_definite():
    insn = _decode_one("adds r1, r1, r2")
    assert flags_written_may(insn) == flags_written_definite(insn) == F_ALL


def test_logical_s_writes_nz_and_shifter_carry():
    assert flags_written_definite(_decode_one("ands r1, r1, r2")) == \
        F_N | F_Z
    assert flags_written_definite(_decode_one("ands r1, r1, r2, lsl #1")) \
        == F_N | F_Z | F_C


def test_partially_defining_successor_keeps_inter_tb_save():
    """Satellite 3: `movs` defines only N/Z — C|V flow through, so the
    predecessor's end-of-block save must stay (live_in != 0)."""
    source = """
    cmp r1, r2
    b next
next:
    movs r3, r4
    bx lr
"""
    engine = make_engine(source, OptLevel.ELIMINATION)
    live_in = engine.successor_live_in(BASE_ADDR + 8)
    assert live_in & (F_C | F_V)
    tb = engine.translate(BASE_ADDR, 0)
    assert sync_counts(tb.meta).saves == 1
    assert not [r for r in justifications_of(tb.meta)
                if r["kind"] == J_INTER_TB]
    assert findings_of(engine, tb) == []


def test_fully_defining_successor_elides_inter_tb_save():
    engine = make_engine(CLEAN_SOURCES["inter-tb"], OptLevel.ELIMINATION)
    tb = engine.translate(BASE_ADDR, 0)
    assert [r for r in justifications_of(tb.meta)
            if r["kind"] == J_INTER_TB]
    assert findings_of(engine, tb) == []


# ---------------------------------------------------------------------------
# 3b. Satellite: ADC/SBC/RRX carry-convention regressions.
# ---------------------------------------------------------------------------

_CARRY_HEADER = """
    ldr r1, =0xFFFFFFFF
    mov r2, #1
    ldr r3, =0x80000001
    mov r4, #7
    mov r5, #0
    mov r6, #3
"""

_CARRY_FOOTER = """
    mrs r8, cpsr
    ldr r9, =0xF0000000
    and r8, r8, r9
    add r0, r1, r2
    eor r0, r0, r3
    add r0, r0, r4
    eor r0, r0, r5
    add r0, r0, r8
    ldr r10, =0x10000000
    str r0, [r10]
    mov r0, r0, lsr #8
    str r0, [r10]
    ldr r10, =0x100F0000
    mov r1, #0
    str r1, [r10]
"""

CARRY_BODIES = {
    "adc-chain": """
    adds r1, r1, r2      @ sets C
    adcs r3, r3, r4      @ consumes + produces C
    adc r5, r5, r5
""",
    "sbc-chain": """
    subs r1, r1, r2      @ C = NOT borrow (inverted on x86)
    sbcs r3, r3, r4
    sbc r5, r5, r2
""",
    "rrx": """
    adds r1, r1, r1      @ put a 1 in C
    mov r3, r3, rrx      @ rotate C into bit 31
    movs r4, r4, rrx     @ and through the flags
    mov r5, r5, rrx
""",
    "rrx-after-borrow": """
    subs r1, r2, r1      @ borrow: C clear
    movs r3, r3, rrx
    adcs r4, r4, r5
""",
}


def _run_carry(source, engine, factory=None):
    machine = Machine(engine=engine, rule_engine_factory=factory)
    machine.memory.load_program(assemble(source, base=0x1000))
    machine.cpu.regs[15] = 0x1000
    machine.env.load_from_cpu(machine.cpu)
    code = machine.run(100000)
    return code, bytes(machine.uart.output)


@pytest.mark.parametrize("name", sorted(CARRY_BODIES))
def test_carry_convention_matches_interpreter(name):
    source = _CARRY_HEADER + CARRY_BODIES[name] + _CARRY_FOOTER
    reference = _run_carry(source, "interp")
    for level in ALL_LEVELS:
        factory = make_rule_engine(level)
        assert _run_carry(source, "rules", factory) == reference, \
            f"rules-{level.name} diverged on {name}"


@pytest.mark.parametrize("name", sorted(CARRY_BODIES))
def test_carry_sources_verify_clean(name):
    source = _CARRY_HEADER + CARRY_BODIES[name] + _CARRY_FOOTER
    engine = make_engine(source, OptLevel.FULL)
    tb = engine.translate(BASE_ADDR, 0)
    assert findings_of(engine, tb) == []


# ---------------------------------------------------------------------------
# 3c. Satellite: the checker's op sets derive from the host op rows.
# ---------------------------------------------------------------------------

#: Ops that transfer control: the checker models each one on its own.
_CONTROL_OPS = {X86Op.JMP, X86Op.JCC, X86Op.CALL_HELPER, X86Op.EXIT_TB,
                X86Op.GOTO_TB}
_SSE_OPS = {X86Op.MOVSS, X86Op.ADDSS, X86Op.SUBSS, X86Op.MULSS}
_VALUES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
_FLAGS = ("cf", "zf", "sf", "of")


def _insns_of(op):
    """Instructions of *op* over the operand shapes the emitters use."""
    if op in _SSE_OPS:
        return [X86Insn(op, Xmm(0), Xmm(1))]
    if op is X86Op.SETCC:
        return [X86Insn(op, Reg(EAX), cond=cond) for cond in X86Cond]
    if op is X86Op.LEA:
        return [X86Insn(op, Reg(EAX), Mem(EBX, 4))]
    if op is X86Op.PUSH:
        return [X86Insn(op, src=Reg(EAX))]
    if op in (X86Op.MOVZX, X86Op.MOVSX):
        return [X86Insn(op, Reg(EAX), src)
                for src in (Reg(EBX), Mem(disp=0x40, size=2))]
    return [X86Insn(op, Reg(EAX), src)
            for src in (Reg(EBX), Reg(ECX), Imm(1), Imm(4), Imm(31))]


def _dst_value(cpu, insn):
    if isinstance(insn.dst, Reg):
        return cpu.regs[insn.dst.number]
    if isinstance(insn.dst, Xmm):
        return cpu.xmm[insn.dst.number]
    return None


def _observed_writes(insn):
    """``(flags, dst)``: the flags *insn* changes from some fixed state,
    and whether it changes its destination from one."""
    flags, dst = set(), False
    for value, other, bit in itertools.product(_VALUES, _VALUES, (0, 1)):
        data = bytearray(0x100)
        memory = HostMemory()
        memory.map_region(0, data, "flat")
        cpu = HostCpu(stack_top=0x80)
        cpu.regs[EAX], cpu.regs[EBX], cpu.regs[ECX] = value, other, other
        cpu.xmm[0], cpu.xmm[1] = value, other
        # The stacked word POPFD loads: every flag flipped.
        data[0x80:0x84] = (0xFFFFFFFF * (1 - bit)).to_bytes(4, "little")
        for flag in _FLAGS:
            setattr(cpu, flag, bit)
        before = _dst_value(cpu, insn)
        HostInterpreter(cpu, memory).step(insn)
        flags.update(flag[0] for flag in _FLAGS
                     if getattr(cpu, flag) != bit)
        dst = dst or _dst_value(cpu, insn) != before
    return flags, dst


@pytest.mark.parametrize("op", [op for op in X86Op
                                if op not in _CONTROL_OPS],
                         ids=lambda op: op.name)
def test_flag_writers_are_clobbers_for_the_checker(op):
    """Each op's row declares the flags it writes and whether it writes
    its destination, and the step run from the row does just that.  The
    checker derives from the row which ops destroy a live guest CCR
    (``lost-ccr``; CMC is modelled as a carry-convention flip instead)
    and which drop a host register's env mapping (``stale-writeback``)."""
    row = ROWS[op]
    observed = [_observed_writes(insn) for insn in _insns_of(op)]
    assert set().union(*(flags for flags, _ in observed)) == set(row.writes)
    assert any(dst for _, dst in observed) == row.writes_dst
    assert (op in _CLOBBERS_EFLAGS) == (bool(row.writes)
                                        and op is not X86Op.CMC)
    assert (op in _WRITES_DST_REG) == row.writes_dst


def _helper(runtime):
    pass


#: Host instructions between a helper call and the write-back of a
#: register loaded from env r1 before it: a compare keeps the stale
#: value, a partial or whole rewrite replaces it.
_BETWEEN = {
    "cmp": (X86Insn(X86Op.CMP, Reg(EAX), Imm(0)), {"stale-writeback"}),
    "test": (X86Insn(X86Op.TEST, Reg(EAX), Reg(EAX)), {"stale-writeback"}),
    "setcc": (X86Insn(X86Op.SETCC, Reg(EAX), cond=X86Cond.E), set()),
    "add": (X86Insn(X86Op.ADD, Reg(EAX), Imm(1)), set()),
}


@pytest.mark.parametrize("between", _BETWEEN)
def test_stale_writeback_after_helper(between):
    """``mov eax, [env.r1]; call; <insn>; mov [env.r1], eax`` writes back
    a value the helper may have made stale unless <insn> rewrote EAX."""
    insn, expected = _BETWEEN[between]
    slot = Mem(ENV_REG, ENV_REGS + 4)
    code = [X86Insn(X86Op.MOV, Reg(EAX), slot),
            X86Insn(X86Op.CALL_HELPER, helper=_helper), insn,
            X86Insn(X86Op.MOV, slot, Reg(EAX)), X86Insn(X86Op.EXIT_TB)]
    tb = type("Tb", (), {"code": code, "meta": {}, "pc": 0x8000,
                         "mmu_idx": 0, "guest_insns": ()})()
    findings = check_tb(tb, OptConfig.from_level(OptLevel.FULL))
    assert {f.code for f in errors_of(findings)} == expected


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------


def test_report_exit_codes_and_json():
    import json

    from repro.analysis.findings import Finding

    report = Report()
    assert report.exit_code() == 0
    report.findings.append(Finding(
        severity=Severity.INFO, code="waiver", message="m"))
    assert report.exit_code(Severity.INFO) == 0
    report.findings.append(Finding(
        severity=Severity.ERROR, code="lost-ccr", message="m",
        tb_pc=0x8000, host_index=3))
    assert report.exit_code(Severity.INFO) == 1
    assert report.exit_code(Severity.ERROR) == 0
    data = json.loads(report.to_json())
    assert data["counts"]["error"] == 1
    assert any(f["code"] == "lost-ccr" and f["tb_pc"] == "0x8000"
               for f in data["findings"])
    assert "lost-ccr" in report.render_table()
