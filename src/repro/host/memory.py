"""The host (emulator-process) address space.

Generated host code addresses the DBT's own data — the ``env`` CPU-state
structure, the packed softmmu TLB, the host stack, and guest RAM — through
this flat little-endian address space.  Regions *alias* the live
bytearrays owned by other components (the TLB's packed table, the
machine's guest RAM), so a host store through this object is immediately
visible to the Python-side models and vice versa.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..common.errors import HostExecutionError

#: Access size -> unpack_from / pack_into for the sizes host code uses;
#: they read and write the region in place, without a per-access slice.
_UNPACK = {2: struct.Struct("<H").unpack_from,
           4: struct.Struct("<I").unpack_from}
_PACK = {2: struct.Struct("<H").pack_into,
         4: struct.Struct("<I").pack_into}


class HostMemory:
    """Sparse flat memory built from aliased bytearray regions."""

    def __init__(self):
        self._regions: List = []  # (base, end, bytearray, name)
        #: (base, end, bytearray) of the region the last access hit:
        #: consecutive accesses almost always stay in one region.  The
        #: empty start value sends the first access to _find.
        self._last: Tuple[int, int, bytearray] = (0, -1, bytearray())

    def map_region(self, base: int, data: bytearray, name: str = "") -> None:
        end = base + len(data)
        for other_base, other_end, _, other_name in self._regions:
            if base < other_end and other_base < end:
                raise ValueError(f"host region {name} overlaps {other_name}")
        self._regions.append((base, end, data, name))
        self._regions.sort(key=lambda region: region[0])

    def _find(self, addr: int, size: int) -> Tuple[int, int, bytearray]:
        for base, end, data, _ in self._regions:
            if base <= addr and addr + size <= end:
                self._last = (base, end, data)
                return self._last
        raise HostExecutionError(
            f"host access outside mapped regions: 0x{addr:08x} ({size} bytes)")

    def read(self, addr: int, size: int = 4) -> int:
        base, end, data = self._last
        if addr < base or addr + size > end:
            base, end, data = self._find(addr, size)
        offset = addr - base
        if size == 1:
            return data[offset]
        unpack = _UNPACK.get(size)
        if unpack is None:
            return int.from_bytes(data[offset:offset + size], "little")
        return unpack(data, offset)[0]

    def write(self, addr: int, value: int, size: int = 4) -> None:
        base, end, data = self._last
        if addr < base or addr + size > end:
            base, end, data = self._find(addr, size)
        offset = addr - base
        if size == 1:
            data[offset] = value & 0xFF
            return
        pack = _PACK.get(size)
        value &= (1 << (8 * size)) - 1
        if pack is None:
            data[offset:offset + size] = value.to_bytes(size, "little")
        else:
            pack(data, offset, value)
