"""Software TLB shared by all execution engines.

The TLB is stored *packed in a bytearray* because the DBT engines' generated
host code performs the TLB fast path with ordinary host loads/compares
against this memory (the machine maps it into the host address space at
``TLB_BASE``).  The Python-side API here is used by the reference
interpreter and by the slow-path refill helper.

Layout (QEMU-style): ``NUM_MMU_IDX`` direct-mapped tables of ``SIZE``
16-byte entries::

    +0   addr_read  : vaddr page if readable, else INVALID
    +4   addr_write : vaddr page if writable, else INVALID
    +8   addr_code  : vaddr page if executable, else INVALID
    +12  addend     : host_address_of_page - vaddr_page (RAM pages only)

MMIO pages are never cached, so every device access takes the slow path —
exactly like QEMU's ``io_readx``/``io_writex``.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..common.bitops import u32
from .pagetable import (PAGE_MASK, PERM_EXEC, PERM_READ, PERM_USER,
                        PERM_WRITE, Translation)

MMU_IDX_KERNEL = 0
MMU_IDX_USER = 1
NUM_MMU_IDX = 2

INVALID = 0xFFFFFFFF

ACCESS_READ = 0
ACCESS_WRITE = 1
ACCESS_CODE = 2

#: One packed entry: addr_read, addr_write, addr_code, addend.
_ENTRY = struct.Struct("<4I")


class SoftTlb:
    """Direct-mapped software TLB with a packed in-memory representation."""

    SIZE = 256
    ENTRY_SIZE = 16

    def __init__(self, ram_host_base: int):
        self.ram_host_base = ram_host_base
        self.data = bytearray(NUM_MMU_IDX * self.SIZE * self.ENTRY_SIZE)
        self.flush()
        # Statistics for the experiment harness.
        self.fill_count = 0
        self.flush_count = 0

    # -- layout helpers -------------------------------------------------------

    @classmethod
    def entry_offset(cls, mmu_idx: int, vaddr: int) -> int:
        index = (vaddr >> 12) & (cls.SIZE - 1)
        return (mmu_idx * cls.SIZE + index) * cls.ENTRY_SIZE

    # -- operations ------------------------------------------------------------

    def flush(self) -> None:
        """Invalidate every entry (TLBIALL, TTBR/SCTLR writes)."""
        self.data[:] = b"\xff" * len(self.data)
        self.flush_count = getattr(self, "flush_count", 0) + 1

    def lookup(self, mmu_idx: int, vaddr: int,
               access: int) -> Optional[int]:
        """Fast-path lookup; returns the guest physical address or None."""
        entry = _ENTRY.unpack_from(self.data,
                                   self.entry_offset(mmu_idx, vaddr))
        if entry[access] != vaddr & PAGE_MASK:
            return None
        return u32(vaddr + entry[3]) - self.ram_host_base

    def fill(self, mmu_idx: int, translation: Translation) -> None:
        """Install a RAM translation produced by the page walker."""
        self.fill_count += 1
        offset = self.entry_offset(mmu_idx, translation.vaddr_page)
        perms = translation.perms
        user_ok = bool(perms & PERM_USER)
        visible = user_ok or mmu_idx == MMU_IDX_KERNEL
        readable = visible and perms & PERM_READ
        writable = visible and perms & PERM_WRITE
        executable = visible and perms & PERM_EXEC
        page = translation.vaddr_page
        _ENTRY.pack_into(self.data, offset,
                         page if readable else INVALID,
                         page if writable else INVALID,
                         page if executable else INVALID,
                         u32(self.ram_host_base + translation.paddr_page
                             - page))
