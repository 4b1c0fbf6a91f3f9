"""ARM condition-code arithmetic as the ARMv7 pseudo-code states it.

``shift_with_carry`` (``Shift_C``) is the reference interpreter's
barrel shifter; ``add_with_carry`` (``AddWithCarry``) is the definition
the data-processing table (:mod:`repro.guest.ops`) is tested against.
Note the ARM carry convention for
subtraction: C is *NOT borrow* (1 when no borrow occurred), which is the
inverse of the x86 CF convention — the rule-based DBT's carry-tag machinery
in :mod:`repro.core.coordination` exists precisely because of this.
"""

from __future__ import annotations

from typing import Tuple

from ..common.bitops import MASK32, SIGN_BIT, bit, ror32, u32
from .isa import ShiftKind


def add_with_carry(a: int, b: int, carry_in: int) -> Tuple[int, int, int]:
    """ARM AddWithCarry: returns (result, carry_out, overflow)."""
    unsigned_sum = (a & MASK32) + (b & MASK32) + carry_in
    result = unsigned_sum & MASK32
    carry_out = 1 if unsigned_sum > MASK32 else 0
    overflow = 1 if (~(a ^ b) & (a ^ result)) & SIGN_BIT else 0
    return result, carry_out, overflow


def shift_with_carry(value: int, kind: ShiftKind, amount: int,
                     carry_in: int) -> Tuple[int, int]:
    """Apply a barrel-shifter operation, returning (result, carry_out).

    *amount* is the effective shift amount (already fetched from a register
    for register-specified shifts); it may exceed 32.  The carry-out rules
    follow the ARMv7 ARM Shift_C pseudo-code.
    """
    value = u32(value)
    if kind == ShiftKind.RRX:
        return ((value >> 1) | (carry_in << 31)) & MASK32, value & 1
    if amount == 0:
        return value, carry_in
    if kind == ShiftKind.LSL:
        if amount > 32:
            return 0, 0
        if amount == 32:
            return 0, value & 1
        return u32(value << amount), bit(value, 32 - amount)
    if kind == ShiftKind.LSR:
        if amount > 32:
            return 0, 0
        if amount == 32:
            return 0, bit(value, 31)
        return value >> amount, bit(value, amount - 1)
    if kind == ShiftKind.ASR:
        if amount >= 32:
            filled = MASK32 if value & SIGN_BIT else 0
            return filled, bit(value, 31)
        signed = value - 0x100000000 if value & SIGN_BIT else value
        return u32(signed >> amount), bit(value, amount - 1)
    if kind == ShiftKind.ROR:
        amount %= 32
        if amount == 0:
            return value, bit(value, 31)
        result = ror32(value, amount)
        return result, bit(result, 31)
    raise ValueError(f"unknown shift kind {kind}")
