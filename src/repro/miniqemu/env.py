"""The in-memory guest CPU state structure ("env") and host address map.

QEMU keeps the guest CPU state in a C struct in memory; generated code
addresses it relative to a reserved host register (EBP here, as in TCG's
x86 backend).  Crucially for this paper, the four guest condition codes
are kept in *separate word-sized fields* (``NF``/``ZF``/``CF``/``VF``) —
exactly like QEMU's ARM target — which is what makes the host FLAGS
register a "one-to-many" CPU state during coordination (Sec III-B).

The lazy coordination optimization adds two more fields: a single slot
for the packed host FLAGS word (``PACKED_FLAGS``, always stored in the
ARM carry convention — sync-saves canonicalize with ``cmc``) and a
validity marker (``PACKED_VALID``) that tells helpers whether the packed
word or the per-bit fields hold the live condition codes.
"""

from __future__ import annotations

import struct

from ..common.bitops import MASK32
from ..host.isa import FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF

# --- host virtual address map of the emulator process ----------------------

ENV_BASE = 0x01000000        # the env structure
TLB_BASE = 0x01100000        # packed softmmu TLB (SoftTlb.data)
STACK_BASE = 0x01200000      # host stack (pushfd/popfd live here)
STACK_SIZE = 0x10000
RAM_HOST_BASE = 0x40000000   # guest physical RAM, host-visible

# --- env field offsets -------------------------------------------------------

ENV_REGS = 0x00                      # r0..r15, 4 bytes each
ENV_NF = 0x40                        # guest N flag (0/1)
ENV_ZF = 0x44                        # guest Z flag
ENV_CF = 0x48                        # guest C flag (ARM convention)
ENV_VF = 0x4C                        # guest V flag
ENV_CPSR_REST = 0x50                 # CPSR without NZCV (mode, I bit, ...)
ENV_PACKED_FLAGS = 0x54              # lazily-saved host EFLAGS word
ENV_PACKED_KIND = 0x58               # reserved (kind is tracked statically)
ENV_PACKED_VALID = 0x5C              # 1 -> PACKED_FLAGS holds the live CCR
ENV_IRQ = 0x60                       # deliverable-interrupt request flag
ENV_SPILL = 0x64                     # 8 spill slots for the code generators
ENV_VFP = 0x84                       # s0..s31 (binary32 bit patterns)
ENV_FPSCR = 0x104
ENV_SIZE = 0x108

def env_reg(index: int) -> int:
    """Env offset of guest register r<index>."""
    return ENV_REGS + 4 * index


def env_vfp(index: int) -> int:
    """Env offset of VFP single-precision register s<index>."""
    return ENV_VFP + 4 * index


#: Flag field by the flag's name in the condition texts (guest/ops.py).
ENV_FLAG_OFFSETS = {"n": ENV_NF, "z": ENV_ZF, "c": ENV_CF, "v": ENV_VF}

#: One env word, r0..r15 and s0..s31, packed and unpacked in place.
_WORD = struct.Struct("<I")
_REGS = struct.Struct("<16I")
_VFP = struct.Struct("<32I")


class Env:
    """Python-side accessor over the env bytearray (aliased into host memory)."""

    def __init__(self):
        self.data = bytearray(ENV_SIZE)

    # -- raw field access ---------------------------------------------------

    def read(self, offset: int) -> int:
        return _WORD.unpack_from(self.data, offset)[0]

    def write(self, offset: int, value: int) -> None:
        _WORD.pack_into(self.data, offset, value & MASK32)

    # -- named accessors ------------------------------------------------------

    def get_reg(self, index: int) -> int:
        return self.read(env_reg(index))

    def set_reg(self, index: int, value: int) -> None:
        self.write(env_reg(index), value)

    @property
    def pc(self) -> int:
        return self.get_reg(15)

    @pc.setter
    def pc(self, value: int) -> None:
        self.set_reg(15, value)

    def unpack_flags(self) -> bool:
        """Parse a pending packed CCR save into the per-bit fields;
        returns False when the per-bit fields already hold the live
        condition codes."""
        if not self.read(ENV_PACKED_VALID):
            return False
        packed = self.read(ENV_PACKED_FLAGS)
        self.write(ENV_NF, (packed >> FLAG_SF) & 1)
        self.write(ENV_ZF, (packed >> FLAG_ZF) & 1)
        self.write(ENV_CF, (packed >> FLAG_CF) & 1)
        self.write(ENV_VF, (packed >> FLAG_OF) & 1)
        self.write(ENV_PACKED_VALID, 0)
        return True

    # -- synchronization with the architectural GuestCpu object ----------------

    def load_from_cpu(self, cpu) -> None:
        """Copy the architectural state into env (QEMU-visible form)."""
        _REGS.pack_into(self.data, ENV_REGS,
                        *[value & MASK32 for value in cpu.regs])
        self.write(ENV_NF, (cpu.cpsr >> 31) & 1)
        self.write(ENV_ZF, (cpu.cpsr >> 30) & 1)
        self.write(ENV_CF, (cpu.cpsr >> 29) & 1)
        self.write(ENV_VF, (cpu.cpsr >> 28) & 1)
        self.write(ENV_CPSR_REST, cpu.cpsr & 0x0FFFFFFF)
        self.write(ENV_PACKED_VALID, 0)
        _VFP.pack_into(self.data, ENV_VFP,
                       *[value & MASK32 for value in cpu.vfp])
        self.write(ENV_FPSCR, cpu.fpscr)

    def store_to_cpu(self, cpu) -> None:
        """Copy env back into the architectural state object.

        On a (defensive) mode change the switch happens BEFORE the
        register copy, so the old mode's banked sp/lr keep their previous
        values and env's registers land in the new mode's view.
        """
        nzcv = ((self.read(ENV_NF) & 1) << 31) | \
               ((self.read(ENV_ZF) & 1) << 30) | \
               ((self.read(ENV_CF) & 1) << 29) | \
               ((self.read(ENV_VF) & 1) << 28)
        new_cpsr = (self.read(ENV_CPSR_REST) & 0x0FFFFFFF) | nzcv
        if (new_cpsr & 0x1F) != cpu.mode:
            cpu.switch_mode(new_cpsr & 0x1F)
        cpu.regs[:] = _REGS.unpack_from(self.data, ENV_REGS)
        cpu.cpsr = new_cpsr
        cpu.vfp[:] = _VFP.unpack_from(self.data, ENV_VFP)
        cpu.fpscr = self.read(ENV_FPSCR)
