"""Rulebook interface: which guest instructions have translation rules.

The learning pipeline (:mod:`repro.learning`) produces a rulebook of
parameterized, formally-verified guest->host translation rules.  The
rule engine only needs a coverage predicate at translation time: an
instruction with no matching rule is emulated by switching to QEMU
(Sec II-A), which is a coordination site.

:class:`MatureRulebook` models the paper's evaluation setting (the rule
set of [2], trained to high user-level coverage): every user-level
instruction the ALU/memory/branch emitters handle is covered, system
instructions are not (they cannot be learned from user-level programs).

:class:`StructuralFilter` wraps any rulebook with the constrained-rule
restrictions of this implementation (operand shapes the host templates
cannot express safely are routed to QEMU, as the paper's constrained
rules do).
"""

from __future__ import annotations

from ..guest.isa import (ArmInsn, Cond, DATA_PROCESSING_OPS, MEMORY_OPS,
                         Op, ShiftKind, VFP_ARITH_OPS)
from .alu import AluEmitter, _has_real_shift

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_VLDR = Op.VLDR
_OP_VSTR = Op.VSTR
_COND_AL = Cond.AL
_SHIFT_RRX = ShiftKind.RRX

#: User-level ops the rule emitters implement directly (VFP arithmetic
#: and moves are rule-translatable per the paper's footnote 3; vcmp is
#: helper territory because it writes the FPSCR).
_RULE_OPS = frozenset(DATA_PROCESSING_OPS | MEMORY_OPS | VFP_ARITH_OPS |
                      {Op.MUL, Op.MLA, Op.B, Op.BL, Op.BX, Op.CLZ, Op.NOP,
                       Op.VMOVSR, Op.VMOVRS})


class MatureRulebook:
    """Full user-level coverage (the paper's trained rule set)."""

    name = "mature"

    def covers(self, insn: ArmInsn) -> bool:
        return insn.op in _RULE_OPS and not insn.is_system()


class EmptyRulebook:
    """No rules at all: every instruction goes through QEMU (for tests)."""

    name = "empty"

    def covers(self, insn: ArmInsn) -> bool:
        return False


def rule_key(insn: ArmInsn) -> str:
    """The quarantine key of the rule that translates *insn*.

    Learned rules are parameterized per guest opcode in this
    implementation, so the opcode name identifies the rule; a corrupted
    ``EOR`` rule is quarantined without touching the ``ADD`` rule.
    """
    return insn.op._name_


class QuarantineFilter:
    """Runtime quarantine wrapper: misbehaving rules stop matching.

    The degradation ladder quarantines a rule when its applied code
    crashes the host interpreter, trips the watchdog, or fails the
    online differential self-check.  A quarantined rule simply stops
    covering its instructions, so the next translation of any affected
    block routes them through the QEMU fallback — correctness is
    restored at the cost of coordination overhead.
    """

    def __init__(self, inner):
        self.inner = inner
        self.quarantined: dict = {}   # rule key -> reason
        self.name = f"quarantine({inner.name})"

    def covers(self, insn: ArmInsn) -> bool:
        if rule_key(insn) in self.quarantined:
            return False
        return self.inner.covers(insn)

    def quarantine(self, key: str, reason: str) -> bool:
        """Quarantine *key*; returns True if it was not already out."""
        if key in self.quarantined:
            return False
        self.quarantined[key] = reason
        return True


class StructuralFilter:
    """Adds the constrained-rule restrictions to any rulebook.

    Rules whose host template cannot preserve the live CCR protocol are
    rejected here and handled by the QEMU fallback:

    - carry-consuming bodies with a real barrel shift (the host shift
      would destroy the carry the body is about to consume),
    - register-shifted operands under conditional execution (the shift
      scratch traffic cannot be hoisted above the skip branch).
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = f"structural({inner.name})"

    def covers(self, insn: ArmInsn) -> bool:
        if not self.inner.covers(insn):
            return False
        if AluEmitter.required_kind(insn) is not None and \
                _has_real_shift(insn):
            return False
        if insn.cond != _COND_AL and insn.op2 is not None and \
                insn.op2.rs is not None:
            return False
        # RRX consumes C: same scratch hazard under conditional execution.
        if insn.cond != _COND_AL and insn.op2 is not None and \
                not insn.op2.is_imm and insn.op2.shift == _SHIFT_RRX:
            return False
        # Conditional VFP transfers need two pre-allocated scratches;
        # route them through the fallback instead.
        if insn.cond != _COND_AL and insn.op in (_OP_VLDR, _OP_VSTR):
            return False
        return True
