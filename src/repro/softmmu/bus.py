"""The guest bus: virtual-address accesses with MMU + TLB + physical map.

This object implements the access path used by the reference interpreter
and by the DBT slow-path helpers: TLB lookup, page walk on miss, TLB
refill for RAM pages, direct dispatch for MMIO pages.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..common.errors import BusError, MemoryFault
from ..guest.cpu import GuestCpu, MODE_USR
from .pagetable import PAGE_SIZE, PageWalker
from .tlb import (ACCESS_CODE, ACCESS_READ, ACCESS_WRITE, MMU_IDX_KERNEL,
                  MMU_IDX_USER, SoftTlb)


class GuestBus:
    """Virtual-address load/store/fetch path for one guest CPU."""

    def __init__(self, cpu: GuestCpu, memory, tlb: SoftTlb):
        self.cpu = cpu
        self.memory = memory
        self.tlb = tlb
        self.walker = PageWalker(memory)

    # -- translation -----------------------------------------------------------

    def mmu_index(self) -> int:
        return MMU_IDX_USER if self.cpu.mode == MODE_USR else MMU_IDX_KERNEL

    def translate(self, vaddr: int, access: int) -> int:
        """Translate a guest virtual address to a guest physical address."""
        paddr, walked = self._resolve(vaddr, access)
        if walked is not None:
            region = self.memory.find(walked.paddr_page)
            if region is not None and region.is_ram:
                self.tlb.fill(self.mmu_index(), walked)
        return paddr

    def _resolve(self, vaddr: int, access: int):
        """``(paddr, translation)``, without side effects: the TLB's
        answer (translation None), else the page walk's."""
        if not self.cpu.cp15.mmu_enabled:
            return vaddr, None
        mmu_idx = self.mmu_index()
        paddr = self.tlb.lookup(mmu_idx, vaddr, access)
        if paddr is not None:
            return paddr, None
        translation = self.walker.walk(self.cpu.cp15.ttbr0, vaddr,
                                       access == ACCESS_WRITE,
                                       mmu_idx == MMU_IDX_USER)
        return translation.paddr_page | (vaddr & (PAGE_SIZE - 1)), \
            translation

    # -- access ---------------------------------------------------------------

    def _crosses_page(self, vaddr: int, size: int) -> bool:
        return (vaddr & (PAGE_SIZE - 1)) + size > PAGE_SIZE

    def load(self, vaddr: int, size: int) -> int:
        if self._crosses_page(vaddr, size):
            value = 0
            for i in range(size):
                value |= self.load(vaddr + i, 1) << (8 * i)
            return value
        paddr = self.translate(vaddr, ACCESS_READ)
        try:
            return self.memory.read(paddr, size)
        except BusError:
            raise MemoryFault(vaddr, False, "bus") from None

    def store(self, vaddr: int, size: int, value: int) -> None:
        if self._crosses_page(vaddr, size):
            for i in range(size):
                self.store(vaddr + i, 1, (value >> (8 * i)) & 0xFF)
            return
        paddr = self.translate(vaddr, ACCESS_WRITE)
        try:
            self.memory.write(paddr, size, value)
        except BusError:
            raise MemoryFault(vaddr, True, "bus") from None

    def fetch(self, vaddr: int) -> int:
        paddr = self.translate(vaddr, ACCESS_CODE)
        try:
            return self.memory.read(paddr, 4)
        except BusError:
            raise MemoryFault(vaddr, False, "bus") from None

    def peek(self, vaddr: int) -> int:
        """The code word :meth:`fetch` would return, read without side
        effects: a TLB lookup, else a page walk that fills nothing.

        Raises :class:`MemoryFault` where a fetch would fault, and for a
        word outside RAM, whose device read could have side effects.
        """
        paddr, _ = self._resolve(vaddr, ACCESS_CODE)
        region = self.memory.find(paddr)
        if region is None or not region.is_ram:
            raise MemoryFault(vaddr, False, "bus")
        return region.read(paddr - region.base, 4)

    def code_words(self, vaddr: int, limit: int,
                   fill: bool = True) -> Sequence[int]:
        """The code words at *vaddr* on, up to *limit* and all on its
        page: what :meth:`fetch` (*fill*) or :meth:`peek` would return
        word by word, with the same faults and side effects.

        The page is translated once.  When that has no side effect (a
        TLB hit, the MMU off, or a peek), the words are read straight
        from the RAM region's bytes, as far as its page and region go:
        a fetch of each of them would hit the same TLB entry and read
        the same bytes.  Otherwise (a fetch that fills the TLB, a page
        that is not RAM, a word past its region's end) only the word at
        *vaddr* is read, by :meth:`fetch` or :meth:`peek` itself, and
        the caller asks again for the next one.  Returns at least one
        word; raises :class:`MemoryFault` where that word's read would.
        """
        paddr, walked = self._resolve(vaddr, ACCESS_CODE)
        if walked is None or not fill:
            region = self.memory.find(paddr)
            if region is not None and region.is_ram:
                offset = paddr - region.base
                count = min(limit,
                            (PAGE_SIZE - (vaddr & (PAGE_SIZE - 1))) >> 2,
                            (region.size - offset) >> 2)
                if count > 0:
                    return struct.unpack_from(f"<{count}I", region.data,
                                              offset)
        return (self.fetch(vaddr) if fill else self.peek(vaddr),)

    def tlb_flush(self) -> None:
        self.tlb.flush()
