"""Bit-manipulation helpers shared by the guest and host ISA models.

All arithmetic in the emulator is performed on Python integers and then
normalized to 32-bit two's-complement values with these helpers.  Keeping
the normalization in one place makes the ISA semantics auditable.
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000


def u32(value: int) -> int:
    """Truncate *value* to an unsigned 32-bit integer."""
    return value & MASK32


def s32(value: int) -> int:
    """Interpret the low 32 bits of *value* as a signed integer."""
    value &= MASK32
    return value - 0x100000000 if value & SIGN_BIT else value


def bit(value: int, index: int) -> int:
    """Return bit *index* of *value* (0 or 1)."""
    return (value >> index) & 1


def bits(value: int, hi: int, lo: int) -> int:
    """Return the bit-field value[hi:lo] inclusive."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def sign_extend(value: int, width: int) -> int:
    """Sign-extend a *width*-bit value to a Python int."""
    sign = 1 << (width - 1)
    return (value & (sign - 1)) - (value & sign)


def ror32(value: int, amount: int) -> int:
    """Rotate a 32-bit value right by *amount* (mod 32)."""
    amount &= 31
    value &= MASK32
    if amount == 0:
        return value
    return ((value >> amount) | (value << (32 - amount))) & MASK32


def align(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of *alignment* (a power of two)."""
    return value & ~(alignment - 1) & MASK32


def encode_arm_imm(value: int):
    """Encode *value* as an ARM modified-immediate (rotated 8-bit) if possible.

    Returns ``(rotation, imm8)`` such that ``ror32(imm8, rotation * 2)``
    equals *value*, or ``None`` when the value is not encodable.
    """
    value = u32(value)
    for rotation in range(16):
        imm8 = ror32(value, 32 - rotation * 2) if rotation else value
        # Undo the rotation: left-rotating value by rotation*2 must fit 8 bits.
        candidate = ((value << (rotation * 2)) | (value >> (32 - rotation * 2))) & MASK32 if rotation else value
        if candidate <= 0xFF:
            return rotation, candidate
    return None


def decode_arm_imm(rotation: int, imm8: int) -> int:
    """Decode an ARM modified-immediate field back to its 32-bit value."""
    return ror32(imm8 & 0xFF, (rotation & 0xF) * 2)
