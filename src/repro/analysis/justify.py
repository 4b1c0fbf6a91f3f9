"""Audit-event and justification-record schema for translated TBs.

The translator no longer applies eliminations and reorders blind: every
optimization decision leaves a machine-checkable record in ``tb.meta``.
Two kinds of record exist:

**Audit events** (``tb.meta["audit"]``) describe *what was emitted* —
flag sync-saves and restores (with their host instruction ranges and
mode), flag-producer bodies, and opaque fallback splices.  They let the
dataflow verifier anchor its abstract interpretation to the coordination
protocol without pattern-matching heuristically.

**Justification records** (``tb.meta["justifications"]``) describe *what
was deliberately NOT emitted* (or was moved): an elided sync-save, an
inter-TB chain edge whose end-of-block save was skipped, a scheduling
reorder.  Each carries the claim that made the optimization legal; the
checker re-derives the claim independently and flags any record it
cannot reproduce.

A TB's guest instructions are contiguous, so program order is address
order and ``tb.guest_insns`` holds the emitted order.  The ``reorder``
record is the only copy of the permutation between the two: it is
persisted with the TB, and the warm-start loader orders the revived
``guest_insns`` from it.

Both lists hold plain, JSON-friendly dicts.  Host instruction ranges are
half-open ``[start, end)`` indices into ``tb.code``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

AUDIT_KEY = "audit"
JUSTIFY_KEY = "justifications"

# Audit event kinds.
EV_SAVE = "save"            # flag sync-save range
EV_RESTORE = "restore"      # flag sync-restore range
EV_PRODUCE = "produce"      # guest flag-producer body range
EV_FALLBACK = "fallback"    # opaque TCG fallback splice range
EV_TERMINAL = "terminal"    # helper call that never returns to the TB

# Justification kinds.
J_ELIDE_SAVE = "elide-save"   # Sec III-C-2: consecutive-site save elision
J_INTER_TB = "inter-tb"       # Sec III-C-3: chain-edge save elision
J_REORDER = "reorder"         # Sec III-D-1: define-before-use scheduling


def save_event(start: int, end: int, mode: str, reason: str) -> Dict[str, Any]:
    """A sync-save occupying host insns ``[start, end)``.

    ``mode`` is ``"packed"`` (one-word lazy save) or ``"parsed"``
    (per-bit fields).  ``reason`` names the emission site
    (``"clobber"``, ``"cond-join"``, ``"tb-end"``, ...).
    """
    return {"kind": EV_SAVE, "start": start, "end": end,
            "mode": mode, "reason": reason}


def restore_event(start: int, end: int, mode: str) -> Dict[str, Any]:
    return {"kind": EV_RESTORE, "start": start, "end": end, "mode": mode}


def produce_event(start: int, end: int, flags: int, live_after: int,
                  carry: Optional[str], partial: bool,
                  guest_addr: Optional[int]) -> Dict[str, Any]:
    """A guest flag-producer whose body occupies ``[start, end)``.

    ``flags`` is the NZCV mask the guest insn writes, ``live_after`` its
    flag liveness, ``carry`` the host carry convention afterwards
    (``"direct"`` / ``"inverted"`` / None when only N/Z change).
    """
    return {"kind": EV_PRODUCE, "start": start, "end": end,
            "flags": flags, "live_after": live_after, "carry": carry,
            "partial": partial, "guest_addr": guest_addr}


def fallback_event(start: int, end: int, reads: int, writes: int,
                   ended: bool) -> Dict[str, Any]:
    """An opaque spliced-TCG range with declared flag effect.

    ``ended`` marks splices that terminate the TB (every exit is inside
    the range, so control never falls out of its end).
    """
    return {"kind": EV_FALLBACK, "start": start, "end": end,
            "reads": reads, "writes": writes, "ended": ended}


def terminal_event(index: int) -> Dict[str, Any]:
    """The ``call`` at host index *index* never returns to this TB
    (SVC / exception-return helpers unwind into the cpu_exec loop)."""
    return {"kind": EV_TERMINAL, "start": index, "end": index + 1}


def elide_save_justification(index: int, packed_ok: bool,
                             parsed_ok: bool) -> Dict[str, Any]:
    """Claim: at host index *index* a save was skipped because env
    already held a current copy of the flags."""
    return {"kind": J_ELIDE_SAVE, "index": index,
            "packed_ok": packed_ok, "parsed_ok": parsed_ok}


def inter_tb_justification(index: int, target_pc: int,
                           live_in: int) -> Dict[str, Any]:
    """Claim: the chain edge at host index *index* targets a successor
    whose live-in flag requirement is *live_in* (must be 0)."""
    return {"kind": J_INTER_TB, "index": index,
            "target_pc": target_pc, "live_in": live_in}


def reorder_justification(original: List[Any],
                          scheduled: List[Any]) -> Dict[str, Any]:
    """Claim: *scheduled* is a dependence-preserving permutation of
    *original* (lists of guest instruction addresses; *original* is
    address order, *scheduled* the emitted order)."""
    return {"kind": J_REORDER, "original": list(original),
            "scheduled": list(scheduled)}


def audit_of(meta: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(meta.get(AUDIT_KEY) or ())


def justifications_of(meta: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(meta.get(JUSTIFY_KEY) or ())


def shift_indices(records: List[Dict[str, Any]], at: int,
                  delta: int) -> List[Dict[str, Any]]:
    """Shift every host-index field at or above *at* by *delta*.

    Used by the fault injector when it removes instructions: remaining
    records must keep pointing at the right host instructions, otherwise
    the checker would flag the bookkeeping mismatch instead of the
    injected soundness violation.
    """
    out = []
    for rec in records:
        rec = dict(rec)
        for key in ("start", "end", "index"):
            value = rec.get(key)
            if isinstance(value, int) and value >= at:
                rec[key] = value + delta
        out.append(rec)
    return out
