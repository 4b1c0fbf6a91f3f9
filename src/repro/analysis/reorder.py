"""Reorder legality checking for Sec III-D scheduling decisions.

The translator's define-before-use scheduler permutes a guest block's
instruction list before emission and records the original order as a
justification.  This module *replays* that decision against an
independently-built dependence graph and rejects any permutation that
crosses:

- a flag dependence (may-def/use/def over NZCV — conditional flag
  setters count as may-defs on both sides),
- a register dependence (RAW, WAR, WAW over guest registers),
- a memory ordering edge (store/store, load/store, store/load: the
  checker assumes nothing about aliasing),
- an I/O or side-effect barrier (system instructions, SVC, PC writers,
  branches — these also pin every conditional instruction in place, as
  the scheduler itself only moves unconditional ones).

It also reports (as an *info* waiver, not an error) the
fault-observability imprecision inherent to hoisting a memory access
above a register/flag writer: if the hoisted access faults, the guest
sees the exception before the effects of instructions that precede it
in program order.  The repro's workloads never fault on scheduled
blocks; the waiver documents the assumption instead of hiding it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.analysis import (flags_read, flags_written_may, regs_read,
                             regs_written)
from ..guest.isa import ArmInsn, Cond


def _is_barrier(insn: ArmInsn) -> bool:
    return (insn.is_system() or insn.writes_pc() or
            insn.is_branch() or insn.cond != Cond.AL)


def _depends(first: ArmInsn, second: ArmInsn) -> str:
    """Why *second* must stay after *first* ('' when independent)."""
    if _is_barrier(first) or _is_barrier(second):
        return "barrier"
    if flags_written_may(first) & flags_read(second):
        return "flag-raw"
    if flags_read(first) & flags_written_may(second):
        return "flag-war"
    if flags_written_may(first) & flags_written_may(second):
        return "flag-waw"
    first_reads, first_writes = regs_read(first), regs_written(first)
    second_reads, second_writes = regs_read(second), regs_written(second)
    if first_writes & second_reads:
        return "reg-raw"
    if first_reads & second_writes:
        return "reg-war"
    if first_writes & second_writes:
        return "reg-waw"
    if first.is_memory() and second.is_memory() and \
            (first.is_store() or second.is_store()):
        return "memory-order"
    return ""


def check_reorder(original: List[ArmInsn],
                  scheduled: List[ArmInsn]) -> List[Dict[str, Any]]:
    """Replay a scheduling decision; returns violation records.

    Each record is a dict with ``code`` (``reorder-*``), ``message``,
    ``guest_addr`` and a ``witness`` describing the crossed edge.
    An empty list means the permutation is dependence-preserving.
    """
    violations: List[Dict[str, Any]] = []

    # Match scheduled instructions back to original positions.  The
    # scheduler permutes the very same objects, so identity matching is
    # exact; a mismatch in the multiset is itself a violation.
    remaining = list(original)
    position: Dict[int, int] = {}
    for sched_index, insn in enumerate(scheduled):
        found = next((i for i, orig in enumerate(remaining)
                      if orig is insn), None)
        if found is None:
            violations.append({
                "code": "reorder-not-permutation",
                "message": "scheduled block is not a permutation of the "
                           "original instructions",
                "guest_addr": getattr(insn, "addr", None),
                "witness": {"scheduled_index": sched_index},
            })
            return violations
        position[id(insn)] = sched_index
        remaining[found] = None
    if any(item is not None for item in remaining):
        violations.append({
            "code": "reorder-not-permutation",
            "message": "scheduled block drops original instructions",
            "guest_addr": None,
            "witness": {"missing": sum(1 for i in remaining
                                       if i is not None)},
        })
        return violations

    for i, first in enumerate(original):
        for second in original[i + 1:]:
            if position[id(first)] < position[id(second)]:
                continue  # order preserved
            kind = _depends(first, second)
            if kind:
                violations.append({
                    "code": f"reorder-{kind}",
                    "message": (f"scheduling moved {second.op.name.lower()}"
                                f"@{second.addr:#x} above "
                                f"{first.op.name.lower()}@{first.addr:#x} "
                                f"across a {kind} dependence"),
                    "guest_addr": second.addr,
                    "witness": {"first": str(first), "second": str(second),
                                "edge": kind},
                })
    return violations


def reorder_waivers(original: List[ArmInsn],
                    scheduled: List[ArmInsn]) -> List[Dict[str, Any]]:
    """Info-level fault-observability waivers for legal hoists."""
    position = {id(insn): i for i, insn in enumerate(scheduled)}
    waivers: List[Dict[str, Any]] = []
    for i, first in enumerate(original):
        for second in original[i + 1:]:
            if id(first) not in position or id(second) not in position:
                continue
            if position[id(first)] < position[id(second)]:
                continue
            if second.is_memory() and \
                    (regs_written(first) or flags_written_may(first)):
                waivers.append({
                    "code": "reorder-fault-observability",
                    "message": (f"{second.op.name.lower()}@{second.addr:#x} "
                                f"hoisted above {first.op.name.lower()}"
                                f"@{first.addr:#x}: a fault on the access "
                                "would observe pre-producer state"),
                    "guest_addr": second.addr,
                    "witness": None,
                })
    return waivers
