"""Unit tests: physical memory map, TLB, page-table walker, guest bus."""

import pytest

from repro.common.errors import BusError, MemoryFault
from repro.guest.cpu import GuestCpu, MODE_SVC, MODE_USR
from repro.softmmu.bus import GuestBus
from repro.softmmu.memory import PhysicalMemoryMap
from repro.softmmu.pagetable import (PAGE_SIZE, PERM_EXEC, PERM_READ,
                                     PERM_USER, PERM_WRITE, PageWalker,
                                     Translation)
from repro.softmmu.tlb import (ACCESS_CODE, ACCESS_READ, ACCESS_WRITE,
                               MMU_IDX_KERNEL, MMU_IDX_USER, SoftTlb)

RAM_HOST_BASE = 0x40000000


@pytest.fixture
def memory():
    memory = PhysicalMemoryMap()
    memory.add_ram(0, 1 << 20)
    return memory


class _Dev:
    def __init__(self):
        self.last = None

    def mmio_read(self, offset, size):
        return 0xDEAD0000 | offset

    def mmio_write(self, offset, size, value):
        self.last = (offset, size, value)


# ---------------------------------------------------------------------------
# Physical map.
# ---------------------------------------------------------------------------

def test_ram_read_write(memory):
    memory.write(0x100, 4, 0x12345678)
    assert memory.read(0x100, 4) == 0x12345678
    assert memory.read(0x100, 1) == 0x78
    assert memory.read(0x103, 1) == 0x12


def test_unmapped_access_raises(memory):
    with pytest.raises(BusError):
        memory.read(0x90000000, 4)


def test_overlapping_regions_rejected(memory):
    with pytest.raises(ValueError):
        memory.add_ram(0x1000, 0x1000)


def test_device_dispatch(memory):
    device = _Dev()
    memory.add_device(0x10000000, 0x1000, device, "dev")
    assert memory.read(0x10000004, 4) == 0xDEAD0004
    memory.write(0x10000008, 4, 99)
    assert device.last == (8, 4, 99)


def test_bulk_rejects_mmio(memory):
    memory.add_device(0x10000000, 0x1000, _Dev(), "dev")
    with pytest.raises(BusError):
        memory.read_bytes(0x10000000, 16)


# ---------------------------------------------------------------------------
# TLB.
# ---------------------------------------------------------------------------

def test_tlb_miss_then_hit():
    tlb = SoftTlb(RAM_HOST_BASE)
    assert tlb.lookup(MMU_IDX_KERNEL, 0x1234, ACCESS_READ) is None
    tlb.fill(MMU_IDX_KERNEL, Translation(0x1000, 0x5000,
                                         PERM_READ | PERM_WRITE | PERM_EXEC))
    assert tlb.lookup(MMU_IDX_KERNEL, 0x1234, ACCESS_READ) == 0x5234
    assert tlb.lookup(MMU_IDX_KERNEL, 0x1234, ACCESS_WRITE) == 0x5234
    # A different page mapping to the same set misses.
    assert tlb.lookup(MMU_IDX_KERNEL, 0x101234, ACCESS_READ) is None


def test_tlb_user_permission_split():
    tlb = SoftTlb(RAM_HOST_BASE)
    tlb.fill(MMU_IDX_USER, Translation(0x2000, 0x2000,
                                       PERM_READ | PERM_WRITE | PERM_EXEC))
    # Privileged-only page: invisible to the user index.
    assert tlb.lookup(MMU_IDX_USER, 0x2100, ACCESS_READ) is None
    tlb.fill(MMU_IDX_USER, Translation(0x2000, 0x2000,
                                       PERM_READ | PERM_WRITE | PERM_EXEC |
                                       PERM_USER))
    assert tlb.lookup(MMU_IDX_USER, 0x2100, ACCESS_READ) == 0x2100


def test_tlb_flush():
    tlb = SoftTlb(RAM_HOST_BASE)
    tlb.fill(MMU_IDX_KERNEL, Translation(0x3000, 0x3000,
                                         PERM_READ | PERM_WRITE | PERM_EXEC |
                                         PERM_USER))
    tlb.flush()
    assert tlb.lookup(MMU_IDX_KERNEL, 0x3000, ACCESS_READ) is None


def test_tlb_packed_layout_matches_api():
    """Generated code reads the packed bytes; the API must agree."""
    tlb = SoftTlb(RAM_HOST_BASE)
    tlb.fill(MMU_IDX_KERNEL, Translation(0x7000, 0x9000,
                                         PERM_READ | PERM_EXEC))
    offset = tlb.entry_offset(MMU_IDX_KERNEL, 0x7000)
    addr_read = int.from_bytes(tlb.data[offset:offset + 4], "little")
    addr_write = int.from_bytes(tlb.data[offset + 4:offset + 8], "little")
    addend = int.from_bytes(tlb.data[offset + 12:offset + 16], "little")
    assert addr_read == 0x7000
    assert addr_write == 0xFFFFFFFF  # not writable
    assert (0x7000 + addend) & 0xFFFFFFFF == RAM_HOST_BASE + 0x9000


# ---------------------------------------------------------------------------
# Page walker: build short-descriptor tables by hand.
# ---------------------------------------------------------------------------

def _build_tables(memory, l1_base=0x20000, l2_base=0x24000):
    # Section for MiB 1 (user RW).
    memory.write(l1_base + 4 * 1, 4, (1 << 20) | 0xC00 | 0b10)
    # Section for MiB 2 (privileged only).
    memory.write(l1_base + 4 * 2, 4, (2 << 20) | 0x400 | 0b10)
    # L2 table for MiB 0.
    memory.write(l1_base, 4, l2_base | 0b01)
    # Page 3 of MiB 0 -> physical page 8, user ok.
    memory.write(l2_base + 4 * 3, 4, (8 << 12) | 0x30 | 0b10)
    return l1_base


def test_walker_section(memory):
    walker = PageWalker(memory)
    ttbr = _build_tables(memory)
    translation = walker.walk(ttbr, 0x112345, is_write=True, is_user=True)
    assert translation.paddr_page == 0x112000
    assert translation.perms & PERM_USER


def test_walker_small_page(memory):
    walker = PageWalker(memory)
    ttbr = _build_tables(memory)
    translation = walker.walk(ttbr, 0x3ABC, is_write=False, is_user=True)
    assert translation.paddr_page == 0x8000
    assert translation.vaddr_page == 0x3000


def test_walker_translation_fault(memory):
    walker = PageWalker(memory)
    ttbr = _build_tables(memory)
    with pytest.raises(MemoryFault):
        walker.walk(ttbr, 0x300000, is_write=False, is_user=False)
    with pytest.raises(MemoryFault):
        walker.walk(ttbr, 0x5000, is_write=False, is_user=False)


def test_walker_permission_fault(memory):
    walker = PageWalker(memory)
    ttbr = _build_tables(memory)
    with pytest.raises(MemoryFault) as excinfo:
        walker.walk(ttbr, 0x212345, is_write=False, is_user=True)
    assert excinfo.value.reason == "permission"
    # Privileged access is fine.
    walker.walk(ttbr, 0x212345, is_write=True, is_user=False)


# ---------------------------------------------------------------------------
# GuestBus end to end.
# ---------------------------------------------------------------------------

def test_bus_mmu_disabled_is_identity(memory):
    cpu = GuestCpu()
    bus = GuestBus(cpu, memory, SoftTlb(RAM_HOST_BASE))
    bus.store(0x500, 4, 0xCAFEBABE)
    assert bus.load(0x500, 4) == 0xCAFEBABE
    assert memory.read(0x500, 4) == 0xCAFEBABE


def test_bus_translates_and_fills_tlb(memory):
    cpu = GuestCpu()
    tlb = SoftTlb(RAM_HOST_BASE)
    bus = GuestBus(cpu, memory, tlb)
    ttbr = _build_tables(memory)
    cpu.cp15.ttbr0 = ttbr
    cpu.cp15.sctlr = 1
    # Virtual page 3 maps to physical page 8.
    memory.write(0x8010, 4, 77)
    assert bus.load(0x3010, 4) == 77
    assert tlb.lookup(0, 0x3010, ACCESS_READ) == 0x8010
    fills = tlb.fill_count
    bus.load(0x3014, 4)  # now a TLB hit
    assert tlb.fill_count == fills


def test_bus_user_mode_fault(memory):
    cpu = GuestCpu()
    bus = GuestBus(cpu, memory, SoftTlb(RAM_HOST_BASE))
    cpu.cp15.ttbr0 = _build_tables(memory)
    cpu.cp15.sctlr = 1
    cpu.write_cpsr((cpu.cpsr & ~0x1F) | MODE_USR)
    with pytest.raises(MemoryFault):
        bus.load(0x212000, 4)  # privileged section


def test_bus_cross_page_access(memory):
    cpu = GuestCpu()
    bus = GuestBus(cpu, memory, SoftTlb(RAM_HOST_BASE))
    boundary = PAGE_SIZE - 2
    bus.store(boundary, 4, 0x11223344)
    assert bus.load(boundary, 4) == 0x11223344
