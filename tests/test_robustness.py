"""Robustness subsystem tests: fault injection, degradation, watchdog.

Covers the tiered degradation ladder (rules -> tcg -> interp), rule
quarantine and TB invalidation, the execution watchdog, wakeup-deadlock
detection, the online differential self-check, and the seeded
fault-injection matrix (every scenario must still produce the correct
guest output and exit code).
"""

import pytest

from repro.common.errors import (DiagContext, InjectedFault, ReproError,
                                 RuleApplicationError, WakeupDeadlock,
                                 WatchdogTimeout)
from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.core.rulebook import (EmptyRulebook, MatureRulebook,
                                 QuarantineFilter, rule_key)
from repro.guest.cpu import MODE_USR
from repro.guest.decoder import decode
from repro.host.isa import X86Insn, X86Op
from repro.kernel.kernel import USER_ENTRY
from repro.miniqemu.env import ENV_CPSR_REST, Env
from repro.miniqemu.tb import CodeCache, TranslationBlock
from repro.robustness.degrade import SelfCheck
from repro.robustness.faultinject import (FaultInjector, FaultPlan,
                                          NullInjector, parse_inject_spec)
from repro.robustness.guard import (ExecutionWatchdog, MachineSnapshot,
                                    fast_forward_halt)
from tests.support import boot_machine, run_workload

RULES_KW = {"engine": "rules",
            "rule_engine_factory": make_rule_engine(OptLevel.FULL)}

ADD_INSN = decode(0xE0810002, 0)    # add r0, r1, r2
SUB_INSN = decode(0xE0410002, 0)    # sub r0, r1, r2


# ---------------------------------------------------------------------------
# --inject spec parsing.
# ---------------------------------------------------------------------------

def test_parse_inject_spec_full():
    plan = parse_inject_spec("seed=7, mem=0.01, fetch=0.5,"
                             "rule-corrupt=eor, rule-wrong=SUB,"
                             "irq-storm=0.001")
    assert plan.seed == 7
    assert plan.rates == {"mem": 0.01, "fetch": 0.5, "irq-storm": 0.001}
    assert plan.corrupt_rules == frozenset({"EOR"})
    assert plan.wrong_rules == frozenset({"SUB"})
    # describe() round-trips through the parser.
    assert parse_inject_spec(plan.describe()) == plan


def test_parse_inject_spec_rejects_unknown_site():
    with pytest.raises(ReproError, match="unknown --inject site"):
        parse_inject_spec("seed=1,frobnicate=0.5")


def test_parse_inject_spec_rejects_bad_rate():
    with pytest.raises(ReproError, match="out of"):
        parse_inject_spec("mem=1.5")
    with pytest.raises(ReproError, match="key=value"):
        parse_inject_spec("mem")


def test_parse_inject_spec_empty_is_noop_plan():
    plan = parse_inject_spec("")
    assert plan == FaultPlan()


# ---------------------------------------------------------------------------
# Deterministic injection streams.
# ---------------------------------------------------------------------------

def test_injector_is_deterministic_per_seed():
    plan = parse_inject_spec("seed=42,mem=0.3,fetch=0.3")
    first = [FaultInjector(plan).fires("mem") for _ in range(1)]
    a = FaultInjector(plan)
    b = FaultInjector(plan)
    assert [a.fires("mem") for _ in range(200)] == \
        [b.fires("mem") for _ in range(200)]
    assert first  # a 0.3 rate fires within 200 draws for this seed
    other = FaultInjector(parse_inject_spec("seed=43,mem=0.3,fetch=0.3"))
    assert [a.fires("mem") for _ in range(200)] != \
        [other.fires("mem") for _ in range(200)]


def test_injector_sites_draw_independent_streams():
    """Consulting one site must not perturb another site's pattern."""
    plan = parse_inject_spec("seed=5,mem=0.2,fetch=0.2")
    a = FaultInjector(plan)
    b = FaultInjector(plan)
    pattern_a = [a.fires("mem") for _ in range(100)]
    for _ in range(57):                 # interleave fetch consultations
        b.fires("fetch")
    pattern_b = [b.fires("mem") for _ in range(100)]
    assert pattern_a == pattern_b


def test_injector_maybe_fault_raises_and_counts():
    plan = parse_inject_spec("seed=1,mem=1.0")
    injector = FaultInjector(plan)
    with pytest.raises(InjectedFault) as info:
        injector.maybe_fault("mem", "test detail")
    assert info.value.site == "mem"
    assert injector.counts_by_site() == {"mem": 1}
    injector.maybe_fault("fetch")       # rate 0: never raises
    assert injector.counts_by_site() == {"mem": 1}


def test_null_injector_is_inert():
    injector = NullInjector()
    assert not injector.enabled
    assert not injector.fires("mem")
    injector.maybe_fault("mem")
    injector.instrument_tb(TranslationBlock(pc=0, mmu_idx=0))
    assert injector.counts_by_site() == {}


# ---------------------------------------------------------------------------
# Rule quarantine.
# ---------------------------------------------------------------------------

def test_quarantine_filter_stops_covering():
    book = QuarantineFilter(MatureRulebook())
    assert book.covers(ADD_INSN)
    assert book.quarantine(rule_key(ADD_INSN), "test")
    assert not book.covers(ADD_INSN)
    assert book.covers(SUB_INSN)        # other rules unaffected
    # Re-quarantining is idempotent and reports "already out".
    assert not book.quarantine(rule_key(ADD_INSN), "again")
    assert book.quarantined == {"ADD": "test"}


def test_quarantine_filter_wraps_any_rulebook():
    book = QuarantineFilter(EmptyRulebook())
    assert not book.covers(ADD_INSN)
    assert book.name == "quarantine(empty)"


# ---------------------------------------------------------------------------
# Code-cache invalidation.
# ---------------------------------------------------------------------------

def _tb(pc, rules=()):
    tb = TranslationBlock(pc=pc, mmu_idx=0)
    tb.meta["rules_used"] = list(rules)
    return tb


def test_cache_invalidate_unlinks_chains():
    cache = CodeCache()
    a, b = _tb(0x100), _tb(0x200)
    cache.insert(a)
    cache.insert(b)
    a.jmp_target[0] = b                 # a is chained into b
    a.jmp_pc[0] = 0x200
    cache.invalidate(b)
    assert cache.lookup(0x200, 0) is None
    assert a.jmp_target[0] is None      # the chain was severed
    assert cache.invalidated == 1


def test_cache_invalidate_unknown_tb_raises_with_context():
    cache = CodeCache()
    stray = _tb(0x300)
    context = DiagContext(guest_pc=0x300, engine="rules")
    with pytest.raises(ReproError, match="cannot invalidate") as info:
        cache.invalidate(stray, context)
    assert info.value.context is context
    assert "engine=rules" in str(info.value)


def test_cache_invalidate_rules_evicts_by_rule_key():
    cache = CodeCache()
    a = _tb(0x100, rules=["ADD", "EOR"])
    b = _tb(0x200, rules=["SUB"])
    c = _tb(0x300)                      # no rule metadata at all
    for tb in (a, b, c):
        cache.insert(tb)
    c.jmp_target[1] = a
    assert cache.invalidate_rules(["EOR"]) == 1
    assert cache.lookup(0x100, 0) is None
    assert cache.lookup(0x200, 0) is b
    assert c.jmp_target[1] is None
    assert cache.invalidate_rules(["MUL"]) == 0


# ---------------------------------------------------------------------------
# Machine snapshots (rollback).
# ---------------------------------------------------------------------------

def test_machine_snapshot_roundtrip():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n")
    machine.cpu.regs[3] = 0xAAAA
    machine.env.set_reg(3, 0xAAAA)
    machine.timer.enabled = True
    machine.timer.reload = 100
    machine.timer.value = 60
    snapshot = MachineSnapshot(machine)
    # Perturb everything the snapshot covers.
    machine.cpu.regs[3] = 0xBBBB
    machine.env.set_reg(3, 0xBBBB)
    machine.cpu.halted = True
    machine.guest_icount += 999
    machine.timer.value = 1
    machine.intc.pending |= 0b10
    machine.cpu.cp15.ttbr0 = 0xDEAD
    snapshot.restore(machine)
    assert machine.cpu.regs[3] == 0xAAAA
    assert machine.env.get_reg(3) == 0xAAAA
    assert not machine.cpu.halted
    assert machine.guest_icount == snapshot.guest_icount
    assert machine.timer.value == 60
    assert machine.intc.pending == 0
    assert machine.cpu.cp15.ttbr0 == 0


# ---------------------------------------------------------------------------
# Execution watchdog.
# ---------------------------------------------------------------------------

def test_watchdog_stops_synthetic_runaway_tb():
    """An infinite host loop must raise a structured WatchdogTimeout."""
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_host_insns=500))
    runaway = TranslationBlock(pc=0x1234, mmu_idx=0)
    runaway.code = [X86Insn(X86Op.JMP, target_index=0)]
    with pytest.raises(WatchdogTimeout) as info:
        machine.host.execute(runaway)
    error = info.value
    assert error.limit == 500
    assert error.executed > 500
    assert error.tb_pc == 0x1234
    assert machine.watchdog.trips == 1
    assert "watchdog" in str(error)


def test_engine_recovers_from_runaway_tb():
    """A runaway rules-tier TB is rolled back and the block demoted."""
    machine = boot_machine("main:\n  mov r0, #42\n  bl updec\n"
                           "  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_host_insns=20_000),
                           **RULES_KW)
    engine = machine.engine
    original = engine._translate_tier
    armed = {"on": True}

    def sabotage(tier, pc, mmu_idx):
        tb = original(tier, pc, mmu_idx)
        if armed["on"] and tier == "rules" and pc == USER_ENTRY:
            armed["on"] = False
            tb.code = [X86Insn(X86Op.JMP, target_index=0)]
        return tb

    engine._translate_tier = sabotage
    code = machine.run(5_000_000)
    assert code == 0
    assert machine.uart.text == "42\n"
    stats = machine.stats()
    assert stats["robust.watchdog_trips"] >= 1
    assert stats["robust.tier_demotions"] >= 1
    assert stats["robust.recovered_faults"] >= 1
    assert stats["engine.tb_invalidated"] >= 1
    # The demoted block was retranslated one tier down.
    assert stats["robust.tier_tcg_tbs"] >= 1


def test_engine_recovers_from_host_crash_tb():
    """A TB that crashes the host interpreter degrades the same way."""
    machine = boot_machine("main:\n  mov r0, #7\n  bl updec\n"
                           "  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(),
                           **RULES_KW)
    engine = machine.engine
    original = engine._translate_tier
    armed = {"on": True}

    def sabotage(tier, pc, mmu_idx):
        tb = original(tier, pc, mmu_idx)
        if armed["on"] and tier == "rules" and pc == USER_ENTRY:
            armed["on"] = False
            tb.code = []                # falls off the end immediately
        return tb

    engine._translate_tier = sabotage
    code = machine.run(5_000_000)
    assert code == 0
    assert machine.uart.text == "7\n"
    assert machine.stats()["robust.tier_demotions"] >= 1


# ---------------------------------------------------------------------------
# Wakeup-deadlock detection (the shared halt fast-forward).
# ---------------------------------------------------------------------------

def test_fast_forward_halt_no_wakeup_source():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n")
    machine.timer.enabled = False
    with pytest.raises(WakeupDeadlock) as info:
        fast_forward_halt(machine, lambda: False)
    error = info.value
    assert "no wakeup source" in error.reason
    assert error.timer_enabled is False
    assert error.context is not None       # machine diagnostics attached
    assert "engine=" in str(error)


def test_fast_forward_halt_timer_dies_while_waiting():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n")
    machine.timer.enabled = True
    machine.timer.reload = 50
    machine.timer.value = 50
    calls = {"n": 0}

    def advance(_insns):
        calls["n"] += 1
        machine.timer.enabled = False      # wakeup source vanishes

    machine.advance_time = advance
    with pytest.raises(WakeupDeadlock, match="cannot wake up"):
        fast_forward_halt(machine, lambda: False)
    assert calls["n"] == 1


def test_fast_forward_halt_iteration_bound():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_halt_iterations=3))
    machine.timer.enabled = True
    machine.timer.reload = 50
    machine.timer.value = 50
    machine.advance_time = lambda _insns: None  # time never raises the IRQ
    with pytest.raises(WakeupDeadlock, match="did not wake"):
        fast_forward_halt(machine, lambda: False)


def test_dbt_fast_forward_raises_structured_deadlock():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n", engine="tcg")
    machine.timer.enabled = False
    with pytest.raises(WakeupDeadlock):
        machine.engine._fast_forward_halt()


# ---------------------------------------------------------------------------
# Diagnostic context on errors.
# ---------------------------------------------------------------------------

def test_attach_context_is_chainable_and_sticky():
    error = ReproError("boom").attach_context(DiagContext(guest_pc=0x40000))
    assert "pc=0x00040000" in str(error)
    # The first context wins; later attaches are ignored.
    error.attach_context(DiagContext(guest_pc=0x999))
    assert "pc=0x00040000" in str(error)
    error.attach_context(None)
    assert error.context.guest_pc == 0x40000


def test_machine_diag_context_reports_live_state():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n", engine="tcg")
    machine.env.pc = 0x40010
    context = machine.diag_context(phase="test")
    assert context.guest_pc == 0x40010
    assert context.engine == "tcg"
    assert context.extra == {"phase": "test"}


def test_run_timeout_error_carries_context():
    machine = boot_machine("main:\nspin:\n  b spin\n", engine="tcg")
    with pytest.raises(ReproError, match="did not halt") as info:
        machine.run(20_000)
    assert info.value.context is not None
    assert info.value.context.icount >= 20_000


# ---------------------------------------------------------------------------
# Translation-time guest fault paths (prefetch abort / undef) — all engines.
# ---------------------------------------------------------------------------

ENGINE_KWARGS = [
    pytest.param({"engine": "interp"}, id="interp"),
    pytest.param({"engine": "tcg"}, id="tcg"),
    pytest.param(dict(RULES_KW), id="rules"),
]


@pytest.mark.parametrize("kwargs", ENGINE_KWARGS)
def test_jump_to_unmapped_address_is_prefetch_abort(kwargs):
    """get_tb's fetch fault must surface as a guest prefetch abort."""
    code, text, _ = run_workload(r"""
main:
    ldr r0, =0x900000    @ MiB 9: never mapped by the kernel
    bx r0
""", **kwargs)
    assert code == 125
    assert "P" in text


@pytest.mark.parametrize("kwargs", ENGINE_KWARGS)
def test_jump_into_undecodable_bytes_is_undef(kwargs):
    """A first-instruction decode failure must surface as an undef."""
    code, text, _ = run_workload(r"""
main:
    b junk
junk:
    .word 0xFFFFFFFF
""", **kwargs)
    assert code == 126
    assert "U" in text


# ---------------------------------------------------------------------------
# The degradation ladder end to end.
# ---------------------------------------------------------------------------

COUNT_BODY = r"""
main:
    mov r4, #0              @ accumulator
    mov r5, #0              @ i
loop:
    add r6, r5, r5, lsl #2  @ 5*i
    sub r6, r6, #3
    eor r6, r6, r5, lsr #1
    add r4, r4, r6
    add r5, r5, #1
    cmp r5, #200
    blt loop
    mov r0, r4
    bl updec
    mov r0, #0
    bl uexit
"""
COUNT_OUTPUT = "99284\n"


def _run_injected(spec, body=COUNT_BODY, **extra):
    plan = parse_inject_spec(spec)
    kwargs = {
        "fault_injector": FaultInjector(plan),
        "watchdog": ExecutionWatchdog(),
        "selfcheck": bool(plan.wrong_rules),
    }
    kwargs.update(RULES_KW)
    kwargs.update(extra)
    code, text, machine = run_workload(body, **kwargs)
    return code, text, machine


def test_reference_output_without_injection():
    code, text, _ = run_workload(COUNT_BODY, **RULES_KW)
    assert (code, text) == (0, COUNT_OUTPUT)


@pytest.mark.parametrize("spec", [
    "seed=3,fetch=0.2",
    "seed=3,mem=0.2",
    "seed=5,helper=0.2",
    "seed=3,irq-storm=0.001",
    "seed=3,rule-crash=0.05",
])
def test_transient_fault_matrix_preserves_correctness(spec):
    code, text, machine = _run_injected(spec)
    assert (code, text) == (0, COUNT_OUTPUT)
    stats = machine.stats()
    injected = sum(count for key, count in stats.items()
                   if key.startswith("robust.inj_"))
    assert injected >= 1, f"scenario {spec} never fired"


def test_corrupted_rule_is_quarantined_and_run_completes():
    code, text, machine = _run_injected("seed=1,rule-corrupt=EOR")
    assert (code, text) == (0, COUNT_OUTPUT)
    stats = machine.stats()
    assert stats["robust.inj_rule_corrupt"] >= 1
    assert stats["robust.quarantined_rules"] >= 1
    assert stats["robust.recovered_faults"] >= 1
    assert stats["engine.tb_invalidated"] >= 1
    assert "EOR" in machine.engine.ladder.quarantined_rules


def test_wrong_result_rule_is_caught_by_selfcheck():
    """A silently-wrong rule never corrupts live architectural state."""
    code, text, machine = _run_injected("seed=1,rule-wrong=EOR")
    assert (code, text) == (0, COUNT_OUTPUT)
    stats = machine.stats()
    assert stats["robust.inj_rule_wrong"] >= 1
    assert stats["robust.selfcheck_failures"] >= 1
    assert stats["robust.quarantined_rules"] >= 1


def test_selfcheck_reference_of_an_interrupted_run_is_the_prestate():
    """A run that left at the TB-entry interrupt check ran none of the
    block's instructions, so any changed register is a mismatch."""
    tb = TranslationBlock(pc=0, mmu_idx=0, guest_insns=[ADD_INSN])
    before = Env()
    before.write(ENV_CPSR_REST, MODE_USR)
    before.set_reg(1, 5)
    before.set_reg(2, 7)
    after = Env()
    after.data[:] = before.data
    after.set_reg(0, 12)
    after.pc = 4
    check = SelfCheck(enabled=True)
    assert check.verify(tb, bytes(before.data), after, interrupted=False)
    assert not check.verify(tb, bytes(before.data), after, interrupted=True)
    assert check.verify(tb, bytes(before.data), before, interrupted=True)
    assert (check.checks, check.failures, check.inconclusive) == (3, 1, 0)


def test_translate_time_rule_crash_quarantines_and_retries():
    code, text, machine = _run_injected("seed=2,rule-crash=1.0")
    assert (code, text) == (0, COUNT_OUTPUT)
    stats = machine.stats()
    # Every covered rule the workload needed ended up quarantined, yet
    # the run still completed through the fallback translations.
    assert stats["robust.quarantined_rules"] >= 3
    assert stats["robust.inj_rule_crash"] >= 3


def test_transient_budget_exhaustion_propagates():
    """A *persistent* 'transient' fault eventually escapes with context."""
    code_err = None
    plan = parse_inject_spec("seed=1,fetch=1.0")
    machine = boot_machine(COUNT_BODY, fault_injector=FaultInjector(plan),
                           watchdog=ExecutionWatchdog(), **RULES_KW)
    with pytest.raises(InjectedFault) as info:
        machine.run(5_000_000)
    code_err = info.value
    assert code_err.site == "fetch"
    assert code_err.context is not None


def test_interp_tier_runs_whole_workload():
    """Force every block to the last tier: pure interp execution."""
    machine = boot_machine(COUNT_BODY, engine="tcg")
    engine = machine.engine
    last = len(engine.tiers) - 1
    engine.ladder.start_tier = lambda pc, mmu_idx: last
    code = machine.run(5_000_000)
    assert code == 0
    assert machine.uart.text == COUNT_OUTPUT
    stats = machine.stats()
    assert stats["robust.tier_interp_tbs"] >= 1
    assert stats["robust.tier_tcg_tbs"] == 0
    assert stats["engine.tag_interp_tier"] > 0


def test_rules_engine_reports_ladder_stats():
    code, text, machine = run_workload(COUNT_BODY, **RULES_KW)
    stats = machine.stats()
    for key in ("robust.quarantined_rules", "robust.tier_demotions",
                "robust.recovered_faults", "robust.tier_rules_tbs",
                "robust.tier_tcg_tbs", "robust.tier_interp_tbs",
                "engine.tb_invalidated"):
        assert key in stats
    assert stats["robust.tier_rules_tbs"] > 0
    assert stats["robust.quarantined_rules"] == 0


# ---------------------------------------------------------------------------
# Structured error types.
# ---------------------------------------------------------------------------

def test_rule_application_error_carries_rule_key():
    error = RuleApplicationError("EOR", phase="translate", detail="boom")
    assert error.rule == "EOR"
    assert "translate" in str(error) and "boom" in str(error)


def test_watchdog_timeout_fields():
    error = WatchdogTimeout(1001, 1000, tb_pc=0x40)
    assert (error.executed, error.limit, error.tb_pc) == (1001, 1000, 0x40)


def test_wakeup_deadlock_reports_device_state():
    error = WakeupDeadlock("idle forever", timer_enabled=True,
                           timer_reload=7, intc_pending=0x2)
    assert "timer enabled=True" in str(error)
    assert "pending=0x2" in str(error)


def test_faultsmoke_reruns_scenarios_on_a_warm_store(monkeypatch, capsys):
    import repro.__main__ as cli

    monkeypatch.setattr(cli, "SMOKE_WORKLOADS", ("cpu-prime",))
    monkeypatch.setattr(cli, "SMOKE_SCENARIOS",
                        (("extra-sync", "seed={seed},extra-sync=0.5"),))
    assert cli.main(["faultsmoke", "--seeds", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    cold = [row for row in rows if row[:2] == ["extra-sync", "1"]]
    warm = [row for row in rows if row[:2] == ["extra-sync", "(warm)"]]
    assert len(cold) == 1 and "loaded=" not in " ".join(cold[0])
    assert len(warm) == 1 and warm[0][4] == "ok"
    assert int(warm[0][-1].split("=")[1]) > 0
