"""Unit tests for the core package: analysis, condmap, coordination,
register cache, rulebooks, optimization config."""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.core.analysis import (F_ALL, F_C, F_N, F_V, F_Z, analyze_block,
                                 flags_read, flags_written,
                                 schedule_define_before_use)
from repro.core.condmap import CarryKind, map_condition, negate, skip_sequence
from repro.core.config import OptConfig, OptLevel
from repro.core.coordination import FlagsState
from repro.core.regcache import CACHE_REGS, RegCache
from repro.core.rulebook import EmptyRulebook, MatureRulebook, StructuralFilter
from repro.guest.asm import assemble
from repro.guest.decoder import decode
from repro.guest.isa import Cond, Op
from repro.guest.ops import COND_TESTS as GUEST_COND_TESTS
from repro.host.builder import CodeBuilder
from repro.host.cpu import COND_TESTS as HOST_COND_TESTS
from repro.host.isa import X86Cond, X86Op


def insns_of(source):
    program = assemble(source, base=0)
    out = []
    for offset in range(0, program.size, 4):
        word = int.from_bytes(program.data[offset:offset + 4], "little")
        out.append(decode(word, offset))
    return out


# ---------------------------------------------------------------------------
# Flag read/write analysis.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("cmp r0, r1", F_ALL),
    ("adds r0, r0, r1", F_ALL),
    ("ands r0, r0, r1", F_N | F_Z),
    ("ands r0, r0, r1, lsr #3", F_N | F_Z | F_C),
    ("tst r0, #0xF000000F", F_N | F_Z | F_C),
    ("tst r0, #1", F_N | F_Z),
    ("muls r0, r1, r2", F_N | F_Z),
    ("add r0, r0, r1", 0),
])
def test_flags_written(text, expected):
    (insn,) = insns_of("    " + text)
    assert flags_written(insn) == expected


@pytest.mark.parametrize("text,expected", [
    ("addeq r0, r0, r1", F_Z),
    ("addhi r0, r0, r1", F_C | F_Z),
    ("addge r0, r0, r1", F_N | F_V),
    ("adc r0, r0, r1", F_C),
    ("add r0, r0, r1, rrx", F_C),
    ("add r0, r0, r1", 0),
    ("mrs r0, cpsr", F_ALL),
])
def test_flags_read(text, expected):
    (insn,) = insns_of("    " + text)
    assert flags_read(insn) == expected


def test_liveness_backward():
    info = analyze_block(insns_of("""
    cmp r0, r1
    addeq r2, r2, #1
    cmp r3, r4
    bne somewhere
somewhere:
"""))
    # After the first cmp, only Z is live (addeq reads it); after the
    # addeq nothing is live because the second cmp redefines all four.
    assert info.insns[0].live_after == F_Z
    assert info.insns[1].live_after == 0


def test_live_in_def_before_use():
    info = analyze_block(insns_of("""
    cmp r0, r1
    beq target
target:
"""))
    assert info.live_in == 0  # cmp defines all four before any read
    info = analyze_block(insns_of("""
    addeq r0, r0, #1
    cmp r0, r1
"""))
    assert info.live_in & F_Z  # reads Z at entry


def test_live_in_stops_at_helper():
    info = analyze_block(insns_of("""
    mcr p15, 0, r0, c2, c0, 0
    cmp r0, r1
"""))
    assert info.live_in == F_ALL  # the helper may read the CPSR


# ---------------------------------------------------------------------------
# Define-before-use scheduling.
# ---------------------------------------------------------------------------

def test_scheduler_hoists_independent_load():
    insns = insns_of("""
    cmp r0, r1
    ldr r2, [r3]
    bne target
target:
""")
    scheduled = schedule_define_before_use(insns)
    assert scheduled[0].op is Op.LDR
    assert scheduled[1].op is Op.CMP


def test_scheduler_respects_data_dependence():
    insns = insns_of("""
    cmp r0, r1
    ldr r0, [r3]
    bne target
target:
""")
    # The load writes r0, which cmp reads: no reorder.
    assert schedule_define_before_use(insns)[0].op is Op.CMP


def test_scheduler_keeps_conditional_memory_in_place():
    insns = insns_of("""
    cmp r0, r1
    ldreq r2, [r3]
    bne target
target:
""")
    assert schedule_define_before_use(insns)[0].op is Op.CMP


# ---------------------------------------------------------------------------
# Condition mapping.
# ---------------------------------------------------------------------------

def test_carry_free_conditions_are_kind_independent():
    for kind in CarryKind:
        assert map_condition(Cond.EQ, kind) == X86Cond.E
        assert map_condition(Cond.GT, kind) == X86Cond.G


def test_carry_conditions_flip_with_kind():
    assert map_condition(Cond.CS, CarryKind.INVERTED) == X86Cond.AE
    assert map_condition(Cond.CS, CarryKind.DIRECT) == X86Cond.B
    assert map_condition(Cond.HI, CarryKind.INVERTED) == X86Cond.A
    assert map_condition(Cond.HI, CarryKind.DIRECT) is None  # two-branch


def test_skip_sequences_for_two_branch_conditions():
    sequence = skip_sequence(Cond.HI, CarryKind.DIRECT)
    assert len(sequence) == 2
    assert all(target == "skip" for _, target in sequence)
    sequence = skip_sequence(Cond.LS, CarryKind.DIRECT)
    assert ("exec" in {target for _, target in sequence})


def _host_flags(nzcv, kind):
    """The x86 flags that hold ARM *nzcv* under carry convention *kind*."""
    n, z, c, v = ((nzcv >> shift) & 1 for shift in (3, 2, 1, 0))
    cf = c ^ 1 if kind is CarryKind.INVERTED else c
    return SimpleNamespace(cf=cf, zf=z, sf=n, of=v), (n, z, c, v)


@pytest.mark.parametrize("kind", list(CarryKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize("cond", [cond for cond in Cond if cond != Cond.AL],
                         ids=lambda cond: cond.name)
def test_condition_mapping_agrees_with_both_condition_tables(cond, kind):
    # AL is never skipped, so it has no mapping.
    for nzcv in range(16):
        host, flags = _host_flags(nzcv, kind)
        passes = bool(GUEST_COND_TESTS[cond](*flags))
        single = map_condition(cond, kind)
        if single is not None:
            assert bool(HOST_COND_TESTS[single](host)) == passes, nzcv
        for host_cond, target in skip_sequence(cond, kind):
            if HOST_COND_TESTS[host_cond](host):
                skipped = target == "skip"
                break
        else:       # a sequence ending in an "exec" test then skips
            skipped = target == "exec"
        assert skipped == (not passes), nzcv


def test_negate_is_involution():
    for cond in X86Cond:
        assert negate(negate(cond)) == cond


# ---------------------------------------------------------------------------
# Coordination sequences.
# ---------------------------------------------------------------------------

def sequence_lengths(packed):
    builder = CodeBuilder()
    state = FlagsState(builder, packed=packed)
    state.in_eflags = True
    state.packed_ok = False
    state.parsed_ok = False
    state.kind = CarryKind.DIRECT
    before = len(builder.insns)
    state.emit_save()
    save_length = len(builder.insns) - before
    before = len(builder.insns)
    state.emit_restore()
    restore_length = len(builder.insns) - before
    return save_length, restore_length


def test_packed_sync_is_three_instructions():
    save, restore = sequence_lengths(packed=True)
    assert save == 3      # pushfd; pop [env.packed]; mov [env.valid],1
    assert restore == 2   # push [env.packed]; popfd


def test_parsed_sync_is_much_longer():
    save, restore = sequence_lengths(packed=False)
    assert save >= 4
    assert restore >= 10  # rebuild the FLAGS word bit by bit


def test_inverted_carry_costs_one_cmc():
    builder = CodeBuilder()
    state = FlagsState(builder, packed=True)
    state.in_eflags = True
    state.packed_ok = False
    state.kind = CarryKind.INVERTED
    state.emit_save()
    assert builder.insns[0].op is X86Op.CMC
    assert state.kind == CarryKind.DIRECT


def test_ensure_parsed_from_packed():
    builder = CodeBuilder()
    state = FlagsState(builder, packed=True)
    # env holds the CCR in the packed slot only.
    assert state.packed_ok and not state.parsed_ok
    state.ensure_parsed()
    assert state.parsed_ok
    ops = [insn.op for insn in builder.insns]
    assert X86Op.POPFD in ops     # reload from packed
    assert X86Op.SETCC in ops     # parse into per-bit fields


# ---------------------------------------------------------------------------
# Register cache.
# ---------------------------------------------------------------------------

def test_regcache_read_loads_once():
    builder = CodeBuilder()
    cache = RegCache(builder)
    first = cache.read(3)
    count = len(builder.insns)
    assert cache.read(3) == first
    assert len(builder.insns) == count  # cached: no new load


def test_regcache_evicts_lru_with_writeback():
    builder = CodeBuilder()
    cache = RegCache(builder)
    for guest in range(len(CACHE_REGS)):
        cache.write(guest)
    emitted = len(builder.insns)
    cache.read(10)  # evicts the least recently used dirty register
    stores = [insn for insn in builder.insns[emitted:]
              if insn.op is X86Op.MOV and hasattr(insn.dst, "disp")]
    assert len(stores) == 1
    assert stores[0].dst.disp == 0  # guest r0's env slot


def test_regcache_flush_dirty_counts():
    builder = CodeBuilder()
    cache = RegCache(builder)
    cache.write(1)
    cache.write(2)
    cache.read(3)
    assert cache.flush_dirty() == 2
    assert cache.flush_dirty() == 0  # now clean


# ---------------------------------------------------------------------------
# Rulebooks and config.
# ---------------------------------------------------------------------------

def test_mature_rulebook_excludes_system():
    book = MatureRulebook()
    (add,) = insns_of("    add r0, r1, r2")
    (mcr,) = insns_of("    mcr p15, 0, r0, c2, c0, 0")
    assert book.covers(add)
    assert not book.covers(mcr)


def test_structural_filter_rejects_carry_consuming_shift():
    book = StructuralFilter(MatureRulebook())
    (adc_shift,) = insns_of("    adc r0, r1, r2, lsl #3")
    (adc_plain,) = insns_of("    adc r0, r1, r2")
    assert not book.covers(adc_shift)
    assert book.covers(adc_plain)


def test_opt_config_levels_are_cumulative():
    base = OptConfig.from_level(OptLevel.BASE)
    assert not any([base.packed_sync, base.eliminate_redundant,
                    base.inter_tb, base.scheduling])
    full = OptConfig.from_level(OptLevel.FULL)
    assert all([full.packed_sync, full.eliminate_redundant, full.inter_tb,
                full.scheduling])
    # One switch per implemented Sec III mechanism.
    assert [field.name for field in fields(OptConfig)] == [
        "packed_sync", "eliminate_redundant", "inter_tb", "scheduling"]


def test_empty_rulebook_covers_nothing():
    (add,) = insns_of("    add r0, r1, r2")
    assert not EmptyRulebook().covers(add)
