"""Guest code is read a page at a time, with the effects of word-by-word
reads.

``fetch_block``, ``peek_block`` and the warm loader's word check read
through ``GuestBus.code_words``: each code page is translated once and
its words are read straight from the RAM region's bytes.  Each test
compares them with the word-at-a-time ``bus.fetch``/``bus.peek`` reads
they replace, from the same TLB state: the same instructions, the same
fault, the same TLB bytes and ``fill_count``.  A peek fills nothing.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DecodingError, MemoryFault
from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.guest.cpu import MODE_SVC, MODE_USR
from repro.harness.runner import make_machine
from repro.kernel.kernel import DEMAND_BASE, USER_HEAP
from repro.miniqemu.machine import Machine
from repro.miniqemu.tb import MAX_TB_INSNS
from repro.softmmu.pagetable import PAGE_SIZE
from repro.softmmu.tlb import MMU_IDX_USER
from repro.workloads.spec import Workload
from tests.support import cold_code_body

NOP = 0xE1A00000        # mov r0, r0
BX_LR = 0xE12FFF1E      # bx lr
TIMER_BASE = 0x10010000


def _word_at_a_time(engine, pc: int, fill: bool):
    """The block at *pc* read one ``bus.fetch`` (*fill*) or
    ``bus.peek`` per word."""
    read = engine.machine.bus.fetch if fill else engine.machine.bus.peek
    insns = []
    addr = pc
    while len(insns) < MAX_TB_INSNS:
        try:
            word = read(addr)
        except MemoryFault:
            if insns:
                break
            raise
        try:
            insn = engine.decode(word, addr)
        except DecodingError:
            if insns:
                break
            raise
        insns.append(insn)
        if insn.writes_pc() or insn.is_system():
            break
        addr += 4
    return insns


def _outcome(machine, read):
    """What *read* returns or raises, and the TLB it leaves."""
    tlb = machine.tlb
    try:
        result = read()
    except (MemoryFault, DecodingError) as error:
        result = (type(error).__name__, str(error))
    return result, bytes(tlb.data), tlb.fill_count


def check_block(machine, pc: int):
    """Check ``peek_block`` and ``fetch_block`` at *pc* against
    word-at-a-time reads from the same TLB state; returns what
    ``fetch_block`` gave (instructions, or the fault's name and text)."""
    engine, tlb = machine.engine, machine.tlb
    for fill, read in ((False, engine.peek_block),
                       (True, engine.fetch_block)):
        before = bytes(tlb.data), tlb.fill_count
        expected = _outcome(machine,
                            lambda: _word_at_a_time(engine, pc, fill))
        tlb.data[:], tlb.fill_count = before
        got = _outcome(machine, lambda: read(pc))
        assert got == expected, (hex(pc), fill)
        if not fill:
            assert got[1:] == before
    return got[0]


def _set_mode(machine, mmu_idx: int) -> None:
    machine.cpu.switch_mode(MODE_USR if mmu_idx == MMU_IDX_USER
                            else MODE_SVC)


def _crosses_page(pc: int, count: int) -> bool:
    return pc // PAGE_SIZE != (pc + 4 * count - 4) // PAGE_SIZE


@pytest.fixture(scope="module")
def cold_code_machine():
    workload = Workload("gen0", category="generated",
                        body=cold_code_body(1, 0))
    machine = make_machine(workload, "rules-full")
    assert machine.run(workload.max_insns) == 0
    return machine


@pytest.fixture
def booted():
    """A machine whose kernel has turned the MMU on, stopped in SVC."""
    workload = Workload("tiny", body="main:\n    mov r0, #0\n    bl uexit\n")
    machine = make_machine(workload, "rules-full")
    assert machine.run(workload.max_insns) == 0
    assert machine.cpu.cp15.mmu_enabled
    return machine


def _write_words(machine, addr: int, words) -> None:
    """Store *words* at identity-mapped *addr*."""
    for index, word in enumerate(words):
        machine.memory.write(addr + 4 * index, 4, word)


@pytest.mark.parametrize("flush", [True, False], ids=["flushed", "warm"])
def test_every_tb_of_a_cold_code_program(cold_code_machine, flush):
    """Every TB pc, in its TB's MMU mode, from a flushed TLB (each read
    fills) and from the TLB the previous reads left."""
    machine = cold_code_machine
    tbs = sorted(machine.engine.cache.all_tbs(),
                 key=lambda tb: (tb.mmu_idx, tb.pc))
    assert len(tbs) > 600
    crossing = 0
    fills = machine.tlb.fill_count
    for tb in tbs:
        _set_mode(machine, tb.mmu_idx)
        if flush:
            machine.tlb.flush()
        insns = check_block(machine, tb.pc)
        assert sorted(insn.addr for insn in insns) == \
            sorted(insn.addr for insn in tb.guest_insns)
        crossing += _crosses_page(tb.pc, len(insns))
    assert crossing >= 2
    assert (machine.tlb.fill_count > fills + len(tbs)) == flush


@pytest.mark.parametrize("mode", [MODE_USR, MODE_SVC])
@pytest.mark.parametrize("flush", [True, False], ids=["flushed", "warm"])
def test_block_across_a_page_boundary(booted, mode, flush):
    pc = USER_HEAP + PAGE_SIZE - 8
    _write_words(booted, pc, [NOP, NOP, NOP, BX_LR])
    booted.cpu.switch_mode(mode)
    if flush:
        booted.tlb.flush()
    else:
        booted.engine.fetch_block(pc)
    fills = booted.tlb.fill_count
    insns = check_block(booted, pc)
    assert [insn.raw for insn in insns] == [NOP, NOP, NOP, BX_LR]
    assert booted.tlb.fill_count == fills + (2 if flush else 0)


@pytest.mark.parametrize("mode", [MODE_USR, MODE_SVC])
def test_block_into_an_unmapped_page(booted, mode):
    """MiB 4 is demand-paged and untouched: the block ends at its first
    word, and a block that starts there faults."""
    pc = DEMAND_BASE - 8
    _write_words(booted, pc, [NOP, NOP])
    booted.cpu.switch_mode(mode)
    booted.tlb.flush()
    assert [insn.raw for insn in check_block(booted, pc)] == [NOP, NOP]
    name, _ = check_block(booted, DEMAND_BASE)
    assert name == "MemoryFault"


def test_user_block_on_a_kernel_page(booted):
    """A user-mode read of a privileged page faults at its first word."""
    booted.cpu.switch_mode(MODE_USR)
    booted.tlb.flush()
    name, _ = check_block(booted, 0x8000)       # kernel code
    assert name == "MemoryFault"


@pytest.mark.parametrize("booted_mmu", [True, False], ids=["mmu", "no-mmu"])
def test_block_on_a_device_page(booted, booted_mmu):
    """A page that is not RAM is fetched word by word (device reads and
    all) and never peeked."""
    machine = booted if booted_mmu else Machine(
        engine="rules", rule_engine_factory=make_rule_engine(OptLevel.FULL))
    machine.cpu.switch_mode(MODE_SVC)
    reads = []
    timer = machine.timer
    read = timer.mmio_read
    timer.mmio_read = lambda offset, size: reads.append(offset) or read(
        offset, size)
    insns = check_block(machine, TIMER_BASE)
    assert len(insns) == MAX_TB_INSNS
    assert reads == [4 * index for index in range(MAX_TB_INSNS)] * 2
    with pytest.raises(MemoryFault):
        machine.engine.peek_block(TIMER_BASE)


def test_words_up_to_a_region_end_that_is_not_a_page_end():
    """RAM that ends mid-page: whole words are read from its bytes, and
    the word that straddles the end is read as ``bus.fetch`` reads it."""
    end = 0x10006
    machine = Machine(engine="rules", ram_size=end,
                      rule_engine_factory=make_rule_engine(OptLevel.FULL))
    pc = end - 14
    _write_words(machine, pc, [NOP, NOP, NOP])
    insns = check_block(machine, pc)
    # The last word is the region's last two bytes, zero-extended (as
    # bus.fetch reads it); the word after it is off the region.
    assert [insn.raw for insn in insns] == [NOP, NOP, NOP, 0]


def test_code_words_stay_on_the_page(booted):
    bus = booted.bus
    booted.cpu.switch_mode(MODE_SVC)
    pc = USER_HEAP + PAGE_SIZE - 8
    _write_words(booted, pc, [NOP, NOP, NOP, BX_LR])
    assert tuple(bus.code_words(pc, 10, fill=False)) == (NOP, NOP)
    assert tuple(bus.code_words(pc, 1, fill=False)) == (NOP,)
    words = bus.code_words(pc + 8, 10, fill=False)
    assert tuple(words) == (NOP, BX_LR) + (0,) * 8


# ---------------------------------------------------------------------------
# The warm loader's word check reads the same way.
# ---------------------------------------------------------------------------

def test_loader_catches_a_stale_word_on_a_blocks_second_page(tmp_path):
    workload = Workload("gen0", category="generated",
                        body=cold_code_body(1, 0))
    cold = make_machine(workload, "rules-full", cache_dir=str(tmp_path))
    assert cold.run(workload.max_insns) == 0
    cold.engine.persistent.save()
    warm = make_machine(workload, "rules-full", cache_dir=str(tmp_path))
    assert warm.run(workload.max_insns) == 0
    loader = warm.engine.persistent
    crossing = sorted(key for key, entry in loader._entries.items()
                      if _crosses_page(key[0], len(entry["words"])))
    assert len(crossing) >= 2
    tlb = warm.tlb

    def fetch(key):
        """Revive *key* from a flushed TLB; returns (tb, fills)."""
        _set_mode(warm, key[1])
        tlb.flush()
        fills = tlb.fill_count
        return loader.fetch(*key), tlb.fill_count - fills

    (pc, mmu_idx), other = crossing[0], crossing[1]
    tb, fills = fetch((pc, mmu_idx))
    assert tb is not None and fills == 2
    # A changed word on the second page: both pages are read.
    words = loader._entries[(pc, mmu_idx)]["words"]
    second = (pc // PAGE_SIZE + 1) * PAGE_SIZE
    assert second < pc + 4 * len(words)
    warm.memory.write(second, 4, words[(second - pc) // 4] ^ 1)
    stale = loader.stale
    tb, fills = fetch((pc, mmu_idx))
    assert tb is None and fills == 2
    assert loader.stale == stale + 1
    assert (pc, mmu_idx) not in loader._entries
    # A changed first word: the check stops before the second page.
    warm.memory.write(other[0], 4, loader._entries[other]["words"][0] ^ 1)
    tb, fills = fetch(other)
    assert tb is None and fills == 1
    assert loader.stale == stale + 2
