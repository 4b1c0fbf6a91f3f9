"""ARM condition -> host condition mapping under the two carry conventions.

Rule-translated code keeps the guest condition codes live in the host
FLAGS register.  N, Z and V always coincide with the x86 SF/ZF/OF bits;
the carry differs by the *producer kind*:

- ``DIRECT``: CF holds the ARM C flag (after add-family producers, and
  after any sync-restore, which always reloads ARM-convention flags).
- ``INVERTED``: CF holds NOT(ARM C) — the state after a translated
  subtraction/compare, because x86 defines CF as *borrow* while ARM
  defines C as *not borrow*.

Most conditions map to a single host jcc; the two exceptions are HI/LS
under ``DIRECT``, which need a two-branch sequence (handled by the
emitter).  A sync-save canonicalizes ``INVERTED`` flags with one ``cmc``.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..guest.isa import Cond
from ..host.isa import X86Cond


class CarryKind(enum.Enum):
    # Hash by identity, in C, not by Enum.__hash__'s Python-level
    # hash(name): members key the per-instruction dicts and memos
    # (docs/internals.md, "Per-instruction Python costs").
    __hash__ = object.__hash__

    DIRECT = "direct"      # CF == ARM C
    INVERTED = "inverted"  # CF == NOT ARM C


# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_COND_HI = Cond.HI
_COND_LS = Cond.LS
_CARRY_INVERTED = CarryKind.INVERTED
_X86_AE = X86Cond.AE
_X86_E = X86Cond.E
_X86_NE = X86Cond.NE


#: Conditions that do not involve the carry: identical under both kinds.
_CARRY_FREE = {
    Cond.EQ: X86Cond.E, Cond.NE: X86Cond.NE,
    Cond.MI: X86Cond.S, Cond.PL: X86Cond.NS,
    Cond.VS: X86Cond.O, Cond.VC: X86Cond.NO,
    Cond.GE: X86Cond.GE, Cond.LT: X86Cond.L,
    Cond.GT: X86Cond.G, Cond.LE: X86Cond.LE,
}

#: Carry-involving conditions under INVERTED flags (the natural state
#: after a translated cmp/sub) — all single host conditions.
_INVERTED = {
    Cond.CS: X86Cond.AE, Cond.CC: X86Cond.B,
    Cond.HI: X86Cond.A, Cond.LS: X86Cond.BE,
}

#: Carry-involving conditions under DIRECT flags.  HI/LS have no single
#: host condition (x86 cannot test CF==1 && ZF==0 in one jcc).
_DIRECT = {
    Cond.CS: X86Cond.B, Cond.CC: X86Cond.AE,
}

_NEGATE = {
    X86Cond.E: X86Cond.NE, X86Cond.NE: X86Cond.E,
    X86Cond.B: X86Cond.AE, X86Cond.AE: X86Cond.B,
    X86Cond.BE: X86Cond.A, X86Cond.A: X86Cond.BE,
    X86Cond.S: X86Cond.NS, X86Cond.NS: X86Cond.S,
    X86Cond.O: X86Cond.NO, X86Cond.NO: X86Cond.O,
    X86Cond.L: X86Cond.GE, X86Cond.GE: X86Cond.L,
    X86Cond.LE: X86Cond.G, X86Cond.G: X86Cond.LE,
}


def negate(cond: X86Cond) -> X86Cond:
    return _NEGATE[cond]


def map_condition(cond: Cond, kind: CarryKind) -> Optional[X86Cond]:
    """Single host condition equivalent to *cond*, or None if two-branch."""
    if cond in _CARRY_FREE:
        return _CARRY_FREE[cond]
    table = _INVERTED if kind == _CARRY_INVERTED else _DIRECT
    return table.get(cond)


def skip_sequence(cond: Cond, kind: CarryKind) -> List[Tuple[X86Cond, str]]:
    """Jump sequence to SKIP a body when *cond* fails.

    Returns a list of (host_cond, target) pairs where target is "skip" or
    "exec"; a trailing unconditional jump to "skip" is implied when the
    last entry targets "exec".
    """
    single = map_condition(cond, kind)
    if single is not None:
        return [(negate(single), "skip")]
    # DIRECT HI/LS.
    if cond == _COND_HI:   # pass iff CF==1 && ZF==0 -> skip if CF==0 or ZF==1
        return [(_X86_AE, "skip"), (_X86_E, "skip")]
    if cond == _COND_LS:   # pass iff CF==0 || ZF==1 -> skip if CF==1 && ZF==0
        return [(_X86_AE, "exec"), (_X86_NE, "skip")]
    raise ValueError(f"unmapped condition {cond}")
