"""Persistent translation cache: cold vs warm differential tests.

A warm-started run must be *bit-identical* to a cold one in everything
that matters — final CPU and memory state, guest output, and every
deterministic ``Machine.stats()`` metric (cost model, coordination
breakdown) — because warm loading only skips real translation work,
never modelled work.  Only the ``cache.*`` stats group may differ.

The store is also hostile territory: entries whose guest bytes no
longer match memory (self-modified or re-patched code), tampered
entries, and entries built from since-quarantined rules must all be
detected at load, evicted from the persisted store, and replaced by
fresh translation — never executed.
"""

import hashlib
import json
import os
import random
import struct

import pytest

from repro.analysis.dataflow import check_tb
from repro.analysis.justify import J_REORDER, justifications_of
from repro.cache import attach_cache, iter_store_dirs, verify_store
from repro.core import OptLevel, make_rule_engine
from repro.guest.asm import assemble
from repro.harness.runner import run_workload
from repro.miniqemu.machine import Machine
from repro.miniqemu.tb import TranslationBlock
from repro.robustness import FaultInjector, parse_inject_spec
from repro.workloads import ALL_WORKLOADS

BASE = 0x1000
UART_DR = 0x10000000
SYSCON_EXIT = 0x100F0000

# The patch region: a straight-line run of data-processing instructions
# the SMC tests overwrite.  It starts at BASE + 4 (right after the
# opening branch), so its addresses are known without assembling.
PATCH_SLOTS = 12
PATCH_BASE = BASE + 4

PROGRAM = ("    b main\n"
           "patch:\n"
           + "    add r6, r6, #1\n" * PATCH_SLOTS +
           "    bx lr\n"
           """
main:
    mov r6, #0
    ldr r0, =0x12345678
    ldr r1, =0x9ABCDEF0
    mov r2, #0
loop:
    adds r2, r2, #1
    add r0, r0, r1
    eor r1, r1, r0
    cmp r2, #6
    bne loop
    bl patch
    @ fold state + flags into r0 and dump it
    mrs r8, cpsr
    ldr r9, =0xF0000000
    and r8, r8, r9
    add r0, r0, r1
    eor r0, r0, r6
    add r0, r0, r8
    ldr r10, =0x10000000
    str r0, [r10]
    mov r0, r0, lsr #8
    str r0, [r10]
    mov r0, r0, lsr #8
    str r0, [r10]
    ldr r10, =0x100F0000
    mov r1, #0
    str r1, [r10]
"""
)

#: A loop whose ``cmp; ldr; bne`` head define-before-use scheduling
#: reorders, so the store persists reordered TBs.
SCHEDULED_PROGRAM = """
    ldr r4, =value
    mov r5, #40
    mov r6, #0
    mov r9, #0
loop:
    cmp r5, r9
    ldr r3, [r4]
    bne cont
cont:
    add r6, r6, r3
    subs r5, r5, #1
    bne loop
    ldr r10, =0x10000000
    str r6, [r10]
    ldr r10, =0x100F0000
    mov r1, #0
    str r1, [r10]
value:
    .word 0x11
"""


def _machine(cache_dir=None, inject=None, program=PROGRAM):
    kwargs = {}
    if inject is not None:
        kwargs["fault_injector"] = FaultInjector(parse_inject_spec(inject))
    machine = Machine(engine="rules",
                      rule_engine_factory=make_rule_engine(OptLevel.FULL),
                      **kwargs)
    machine.memory.load_program(assemble(program, base=BASE))
    machine.cpu.regs[15] = BASE
    machine.env.load_from_cpu(machine.cpu)
    loader = attach_cache(machine, str(cache_dir)) if cache_dir else None
    return machine, loader


def _patch(machine, addr, word):
    machine.ram.data[addr:addr + 4] = struct.pack("<I", word)


def _run(machine, loader):
    code = machine.run(200_000)
    if loader is not None:
        loader.save()
    return code


def _final_state(machine):
    return (
        bytes(machine.uart.output),
        tuple(machine.cpu.regs),
        machine.cpu.cpsr,
        tuple(machine.env.get_reg(i) for i in range(16)),
        hashlib.sha256(bytes(machine.ram.data)).hexdigest(),
    )


def _deterministic_stats(machine):
    """Everything except the cache.* group, which differs by design."""
    return {key: value for key, value in machine.stats().items()
            if not key.startswith("cache.")}


# ---------------------------------------------------------------------------
# Cold vs warm: the core differential.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("program", [PROGRAM, SCHEDULED_PROGRAM],
                         ids=["plain", "scheduled"])
def test_cold_then_warm_is_bit_identical(tmp_path, program):
    cold, cold_loader = _machine(tmp_path, program=program)
    code = _run(cold, cold_loader)
    assert code == 0
    assert cold_loader.loaded == 0
    assert cold_loader.saved > 0          # the store was populated
    assert iter_store_dirs(str(tmp_path))

    warm, warm_loader = _machine(tmp_path, program=program)
    assert len(warm_loader) == cold_loader.saved
    assert _run(warm, warm_loader) == 0

    # Every persisted rules-tier TB warm-started; nothing re-translated.
    assert warm_loader.loaded == cold_loader.saved
    assert warm_loader.fresh == 0
    assert warm_loader.stale == warm_loader.corrupt == 0

    # Final architectural state, output, and every deterministic metric
    # (cost model, sync/coordination breakdown) are bit-identical.
    assert _final_state(warm) == _final_state(cold)
    assert _deterministic_stats(warm) == _deterministic_stats(cold)

    # The cache group tells the two runs apart.
    assert warm.stats()["cache.tb_loaded"] == cold_loader.saved
    assert cold.stats()["cache.tb_loaded"] == 0

    # Revived TBs keep the cold run's emitted order, which for a
    # scheduled block comes from its persisted reorder record, and
    # verify clean.
    cold_order = {(tb.pc, tb.mmu_idx): [insn.addr for insn in tb.guest_insns]
                  for tb in cold.engine.cache.all_tbs()}
    revived = [tb for tb in warm.engine.cache.all_tbs()
               if tb.meta.get("provenance") == "cached"]
    reordered = 0
    for tb in revived:
        order = [insn.addr for insn in tb.guest_insns]
        assert order == cold_order[(tb.pc, tb.mmu_idx)]
        records = [r for r in justifications_of(tb.meta)
                   if r["kind"] == J_REORDER]
        if order != sorted(order):
            assert [r["scheduled"] for r in records] == [order]
            reordered += 1
        assert check_tb(tb, warm.engine.config,
                        live_in_of=warm.engine.successor_live_in) == []
    assert (reordered > 0) == (program is SCHEDULED_PROGRAM)


def test_warm_tbs_carry_cached_provenance(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    for tb in cold.engine.cache.all_tbs():
        if tb.meta.get("tier") == "rules":
            assert tb.meta.get("provenance") == "fresh"

    warm, warm_loader = _machine(tmp_path)
    _run(warm, warm_loader)
    cached = [tb for tb in warm.engine.cache.all_tbs()
              if tb.meta.get("provenance") == "cached"]
    assert len(cached) == warm_loader.loaded > 0


def test_save_is_idempotent_when_nothing_changed(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    store_dir = iter_store_dirs(str(tmp_path))[0]
    entries = os.path.join(store_dir, "entries.json")
    before = os.path.getmtime(entries), open(entries).read()

    warm, warm_loader = _machine(tmp_path)
    _run(warm, warm_loader)
    assert warm_loader.saved == 0
    assert open(entries).read() == before[1]    # store not rewritten


# ---------------------------------------------------------------------------
# SMC: guest code that changed since the store was built must be
# detected stale, evicted from the persisted store, and re-translated.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_smc_evicts_stale_entries(tmp_path, seed):
    rng = random.Random(seed)
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)

    # Patch a random slot in the patch region with a different
    # data-processing instruction (code changed since persist).
    slot = rng.randrange(PATCH_SLOTS)
    amount = rng.randrange(2, 200)
    addr = PATCH_BASE + 4 * slot
    word = struct.unpack(
        "<I", assemble(f"    add r6, r6, #{amount}\n", base=addr).data)[0]

    warm, warm_loader = _machine(tmp_path)
    _patch(warm, addr, word)
    assert _run(warm, warm_loader) == 0

    # Reference: a cache-less machine with the identical patch.
    fresh, _ = _machine()
    _patch(fresh, addr, word)
    assert _run(fresh, None) == 0

    assert _final_state(warm) == _final_state(fresh)
    assert warm_loader.stale >= 1          # the patched block was caught
    assert warm_loader.evicted >= 1
    assert warm_loader.fresh >= 1          # ...and re-translated

    # The re-translated block was re-persisted: a third run with the
    # same patch warm-starts everything again.
    third, third_loader = _machine(tmp_path)
    _patch(third, addr, word)
    assert _run(third, third_loader) == 0
    assert _final_state(third) == _final_state(fresh)
    assert third_loader.stale == 0
    assert third_loader.fresh == 0 and third_loader.loaded > 0


def test_smc_inside_one_run_matches_reference(tmp_path):
    """A program that patches its own code before first execution runs
    identically cold, warm, and on the reference interpreter."""
    source = """
    b main
target:
    mov r0, #1          @ overwritten before it ever executes
    bx lr
main:
    ldr r1, =target
    ldr r2, =word
    ldr r2, [r2]
    str r2, [r1]        @ patch: mov r0, #1  ->  mov r0, #42
    bl target
    ldr r10, =0x10000000
    str r0, [r10]
    ldr r10, =0x100F0000
    mov r1, #0
    str r1, [r10]
word:
    .word 0xE3A0002A    @ mov r0, #42
"""

    def build(engine, factory=None, cache=None):
        machine = Machine(engine=engine, rule_engine_factory=factory)
        machine.memory.load_program(assemble(source, base=BASE))
        machine.cpu.regs[15] = BASE
        machine.env.load_from_cpu(machine.cpu)
        loader = attach_cache(machine, str(cache)) if cache else None
        return machine, loader

    reference, _ = build("interp")
    assert _run(reference, None) == 0
    assert bytes(reference.uart.output) == b"\x2a"

    cache = tmp_path / "store"
    cold, cold_loader = build("rules", make_rule_engine(OptLevel.FULL), cache)
    assert _run(cold, cold_loader) == 0
    warm, warm_loader = build("rules", make_rule_engine(OptLevel.FULL), cache)
    assert _run(warm, warm_loader) == 0
    assert bytes(cold.uart.output) == bytes(warm.uart.output) == b"\x2a"
    # The patched block was persisted post-patch, so its bytes validate.
    assert warm_loader.loaded > 0 and warm_loader.stale == 0


# ---------------------------------------------------------------------------
# Tampered stores: detected, quarantined from reuse, never executed.
# ---------------------------------------------------------------------------

def _tamper_first_entry(root):
    """Flip a guest word in the store without fixing its checksum."""
    store_dir = iter_store_dirs(str(root))[0]
    path = os.path.join(store_dir, "entries.json")
    with open(path) as handle:
        payload = json.load(handle)
    payload["entries"][0]["words"][0] ^= 4
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return store_dir


def test_tampered_store_is_rejected_not_executed(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    store_dir = _tamper_first_entry(tmp_path)

    # Deep verification sees both the payload and the entry damage.
    problems = verify_store(store_dir)
    assert any("tampered" in problem for problem in problems)
    assert any("checksum mismatch" in problem for problem in problems)

    # The warm run detects the bad entry at fetch, evicts it from the
    # persisted store, and translates fresh — the result is identical.
    warm, warm_loader = _machine(tmp_path)
    assert _run(warm, warm_loader) == 0
    assert warm_loader.corrupt == 1
    assert warm_loader.evicted >= 1
    assert warm_loader.loaded == cold_loader.saved - 1
    assert _final_state(warm) == _final_state(cold)
    assert _deterministic_stats(warm) == _deterministic_stats(cold)


def test_quarantined_rule_evicts_persisted_entries(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)

    warm, warm_loader = _machine(tmp_path)
    rules = sorted({rule
                    for entry in warm_loader._entries.values()
                    for rule in (entry.get("meta") or {}).get("rules_used",
                                                              ())})
    assert rules, "expected persisted entries with rule provenance"
    victim = rules[0]
    # The runtime quarantine path: ladder + code-cache invalidation.
    # The cache's eviction listener must drop persisted entries too.
    warm.engine.ladder.quarantine_rule(victim, "test")
    warm.engine.cache.invalidate_rules([victim])
    assert warm_loader.evicted >= 1
    assert all(victim not in (entry.get("meta") or {}).get("rules_used", ())
               for entry in warm_loader._entries.values())

    # The run still completes with identical output (fallback covers
    # the quarantined rule's instructions).
    assert _run(warm, warm_loader) == 0
    assert bytes(warm.uart.output) == bytes(cold.uart.output)


# ---------------------------------------------------------------------------
# Fault-injection sites: the loader's validation paths under test.
# ---------------------------------------------------------------------------

def test_inject_cache_corrupt_forces_fresh_translation(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)

    warm, warm_loader = _machine(tmp_path, inject="seed=5,cache-corrupt=1.0")
    assert _run(warm, warm_loader) == 0
    stats = warm.stats()
    assert stats["robust.inj_cache_corrupt"] >= 1
    assert warm_loader.loaded == 0         # every entry refused...
    assert warm_loader.corrupt >= 1
    assert bytes(warm.uart.output) == bytes(cold.uart.output)


def test_inject_cache_stale_bytes_forces_fresh_translation(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)

    warm, warm_loader = _machine(tmp_path,
                                 inject="seed=5,cache-stale-bytes=1.0")
    assert _run(warm, warm_loader) == 0
    stats = warm.stats()
    assert stats["robust.inj_cache_stale_bytes"] >= 1
    assert warm_loader.loaded == 0
    assert warm_loader.stale >= 1
    assert bytes(warm.uart.output) == bytes(cold.uart.output)


def test_extra_sync_store_does_not_poison_clean_runs(tmp_path):
    """``extra-sync`` pads TBs without marking them ``injected`` (that
    would stop chaining into them); the store must refuse them anyway,
    so a clean warm run costs exactly what a clean cold run does."""
    workload = ALL_WORKLOADS["cpu-prime"]
    clean = run_workload(workload, "rules-full")
    padded = run_workload(workload, "rules-full", cache_dir=str(tmp_path),
                          inject="seed=1,extra-sync=1.0")
    assert padded.stats["robust.inj_extra_sync"] > 0
    assert padded.stats["cache.tb_saved"] == 0
    assert padded.stats["cache.tb_unpersistable"] > 0

    warm = run_workload(workload, "rules-full", cache_dir=str(tmp_path))
    assert warm.stats["cache.tb_loaded"] == 0
    assert warm.host_instructions == clean.host_instructions
    assert warm.output == clean.output


def test_parse_inject_spec_accepts_cache_sites():
    plan = parse_inject_spec("seed=1,cache-corrupt=0.5,cache-stale-bytes=0.25")
    assert plan.rates == {"cache-corrupt": 0.5, "cache-stale-bytes": 0.25}


# ---------------------------------------------------------------------------
# Regression: the block memo (which holds successor live-in facts) must
# not outlive coverage changes (quarantine) or code-cache invalidation.
# ---------------------------------------------------------------------------

def _bare_rules_machine(source, base=0x2000):
    machine = Machine(engine="rules",
                      rule_engine_factory=make_rule_engine(OptLevel.FULL))
    machine.memory.load_program(assemble(source, base=base))
    return machine


def test_live_in_cache_cleared_on_rule_quarantine():
    """Reproduces the stale-elision bug: quarantining a rule turns its
    instructions uncovered, which changes a successor block's live-in
    from "flags dead" to "flags needed".  A cached pre-quarantine fact
    would let a predecessor elide a flag sync the successor now needs.
    """
    from repro.core.rulebook import rule_key
    from repro.guest.decoder import decode

    pc = 0x2000
    machine = _bare_rules_machine("    adds r0, r0, r1\n    bx lr\n",
                                  base=pc)
    engine = machine.engine
    before = engine.successor_live_in(pc)
    assert pc in engine._blocks

    adds = decode(int.from_bytes(machine.ram.data[pc:pc + 4], "little"), pc)
    key = rule_key(adds)
    assert engine.rulebook.covers(adds)
    engine.ladder.quarantine_rule(key, "test")
    engine.cache.invalidate_rules([key])

    # The fix: coverage changed, so every memoized analysis is gone.
    assert engine._blocks == {}
    after = engine.successor_live_in(pc)
    assert not engine.rulebook.covers(adds)
    # The block's live-in genuinely changed — serving the cached value
    # would have produced a wrong (stale) elision decision.
    assert after != before


def test_live_in_cache_dropped_per_victim_on_invalidation():
    machine = _bare_rules_machine("    adds r0, r0, r1\n    bx lr\n")
    engine = machine.engine
    engine.successor_live_in(0x2000)
    engine.successor_live_in(0x2004)     # an unrelated block: bx lr
    other = engine._blocks[0x2004]
    tb = TranslationBlock(pc=0x2000, mmu_idx=0)
    engine.cache.insert(tb)
    engine.cache.invalidate(tb)
    assert 0x2000 not in engine._blocks
    assert engine._blocks.get(0x2004) is other   # others survive
