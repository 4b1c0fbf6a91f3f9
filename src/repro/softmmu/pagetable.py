"""ARMv7 short-descriptor page-table walker (sections + small pages).

This is the softmmu *slow path*: it is invoked by the TLB-miss helper of
both DBT engines and directly by the reference interpreter's bus.  The
format is the ARMv7-A short-descriptor subset the mini-kernel emits:

Level 1 (16 KiB at TTBR0, 4096 word entries, one per MiB):
  bits[1:0] == 0b10 : 1 MiB section; base = entry[31:20], AP = entry[11:10]
  bits[1:0] == 0b01 : page-table pointer; L2 base = entry[31:10]
  bits[1:0] == 0b00 : translation fault

Level 2 (1 KiB, 256 word entries, one per 4 KiB page):
  bits[1:0] == 0b10 : 4 KiB small page; base = entry[31:12], AP = entry[5:4]
  bits[1:0] == 0b00 : translation fault

AP encoding (simplified AP[1:0]): 0b01 = privileged read/write only,
0b10 = privileged RW + user read-only, 0b11 = read/write for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = ~(PAGE_SIZE - 1) & 0xFFFFFFFF

SECTION_SHIFT = 20
SECTION_SIZE = 1 << SECTION_SHIFT

# Permission bits used throughout the softmmu.
PERM_READ = 1
PERM_WRITE = 2
PERM_EXEC = 4
PERM_USER = 8


@dataclass
class Translation:
    """Result of a successful page walk (page-aligned)."""

    vaddr_page: int
    paddr_page: int
    perms: int


def _ap_to_perms(ap: int) -> int:
    """Map the AP[1:0] field to our permission bits."""
    if ap == 0b01:
        return PERM_READ | PERM_WRITE | PERM_EXEC
    if ap == 0b10:
        return PERM_READ | PERM_WRITE | PERM_EXEC | PERM_USER
    if ap == 0b11:
        return PERM_READ | PERM_WRITE | PERM_EXEC | PERM_USER
    return 0


class PageWalker:
    """Walks guest page tables held in guest physical memory."""

    def __init__(self, physical_memory):
        self.memory = physical_memory

    def walk(self, ttbr0: int, vaddr: int, is_write: bool,
             is_user: bool) -> Translation:
        """Translate *vaddr*; raises :class:`MemoryFault` on any fault.

        Reads the tables and nothing else: the walk has no side effects.
        """
        l1_index = vaddr >> SECTION_SHIFT
        l1_entry = self.memory.read((ttbr0 & ~0x3FFF) + l1_index * 4, 4)
        descriptor_type = l1_entry & 0b11

        if descriptor_type == 0b10:  # 1 MiB section
            perms = _ap_to_perms((l1_entry >> 10) & 0b11)
            self._check(perms, vaddr, is_write, is_user)
            base = l1_entry & 0xFFF00000
            paddr_page = base | (vaddr & 0x000FF000)
            return Translation(vaddr & PAGE_MASK, paddr_page, perms)

        if descriptor_type == 0b01:  # points to an L2 table
            l2_base = l1_entry & 0xFFFFFC00
            l2_index = (vaddr >> PAGE_SHIFT) & 0xFF
            l2_entry = self.memory.read(l2_base + l2_index * 4, 4)
            if l2_entry & 0b10 == 0:
                raise MemoryFault(vaddr, is_write, "translation")
            perms = _ap_to_perms((l2_entry >> 4) & 0b11)
            self._check(perms, vaddr, is_write, is_user)
            return Translation(vaddr & PAGE_MASK, l2_entry & 0xFFFFF000,
                               perms)

        raise MemoryFault(vaddr, is_write, "translation")

    @staticmethod
    def _check(perms: int, vaddr: int, is_write: bool, is_user: bool) -> None:
        if perms == 0:
            raise MemoryFault(vaddr, is_write, "translation")
        if is_user and not perms & PERM_USER:
            raise MemoryFault(vaddr, is_write, "permission")
        if is_write and not perms & PERM_WRITE:
            raise MemoryFault(vaddr, is_write, "permission")
