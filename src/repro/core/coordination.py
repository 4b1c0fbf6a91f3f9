"""CPU-state coordination: sync-save and sync-restore emission.

This module implements the paper's central mechanism.  The guest
condition codes live in the host FLAGS register inside rule-translated
code; whenever control passes to QEMU (helper, softmmu probe/slow path,
interrupt check) they must be *coordinated* with the in-memory ``env``
representation.

Two strategies are emitted, selected by the optimization level:

- **parsed** (Base, Sec III-A): the "one-to-many" save — the host FLAGS
  word is parsed bit by bit into QEMU's four per-bit fields (~14 host
  instructions), and the restore rebuilds FLAGS from the four fields
  (~12 instructions).
- **packed** (+Reduction, Sec III-B): FLAGS is pushed and stored into a
  single env slot in 3 instructions (plus one ``cmc`` when the carry is
  in the inverted x86 convention); QEMU parses the word lazily only when
  it genuinely reads the condition codes
  (:meth:`repro.miniqemu.helpers.QemuRuntime.materialize_flags`).

The emission-time :class:`FlagsState` tracks where the live guest CCR
currently is (host FLAGS vs env) and in which carry convention, so the
elimination optimizations can skip redundant syncs.

All instructions emitted here carry the ``sync`` tag, which is what
Figures 8 and 17 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..analysis.justify import restore_event, save_event
from ..host.builder import CodeBuilder
from ..host.isa import EAX, EDX, ENV_REG, Imm, Mem, Reg, X86Cond
from ..miniqemu.env import (ENV_CF, ENV_NF, ENV_PACKED_FLAGS,
                            ENV_PACKED_VALID, ENV_VF, ENV_ZF)
from ..observability.trace import NULL_TRACER
from .condmap import CarryKind

SYNC_TAG = "sync"


def _env(offset: int) -> Mem:
    return Mem(base=ENV_REG, disp=offset)


@dataclass
class SyncStats:
    """Static per-TB counters (scaled by exec_count for dynamic figures)."""

    saves: int = 0
    restores: int = 0
    save_insns: int = 0
    restore_insns: int = 0
    reg_flush_insns: int = 0
    inter_tb_elisions: int = 0
    #: Saves skipped by the consecutive-site elimination (Sec III-C-2).
    elided_saves: int = 0


class FlagsState:
    """Where the live guest CCR is, during emission of one TB."""

    def __init__(self, builder: CodeBuilder, stats: SyncStats,
                 packed: bool, tracer=NULL_TRACER,
                 audit: Optional[List[Dict[str, Any]]] = None):
        self.builder = builder
        self.stats = stats
        self.packed = packed
        self.tracer = tracer
        #: audit-event sink (tb.meta["audit"]): every save/restore range
        #: is recorded so the soundness checker can anchor its abstract
        #: interpretation (see repro.analysis.justify).
        self.audit = audit if audit is not None else []
        # At TB entry QEMU's env holds the authoritative flags.  Which
        # representation is current depends on the mode: packed-sync
        # predecessors publish the packed word, Base predecessors (and
        # helpers) publish the per-bit fields.
        self.in_eflags = False       # EFLAGS holds the live CCR
        self.packed_ok = packed      # env.packed holds the live CCR
        self.parsed_ok = not packed  # per-bit fields hold the live CCR
        self.kind = CarryKind.DIRECT

    @property
    def env_current(self) -> bool:
        return self.packed_ok or self.parsed_ok

    # -- producer notifications ------------------------------------------------

    def on_produce(self, kind: CarryKind, partial: bool = False) -> None:
        """A rule-translated instruction just wrote flags into EFLAGS.

        *partial* marks producers that only update N/Z (and possibly C):
        when *kind* is None the C/V bits in EFLAGS keep their previous
        convention (our host preserves CF/OF across logical ops);
        producers that do define C (shifter carry, rotated-immediate
        stc/clc) pass the convention they left it in.
        """
        self.in_eflags = True
        self.packed_ok = False
        self.parsed_ok = False
        if kind is not None:
            self.kind = kind

    def on_clobber(self) -> None:
        """EFLAGS was clobbered by non-guest code (probe, helper, check)."""
        self.in_eflags = False

    def on_helper_wrote_flags(self) -> None:
        """A helper may have changed the guest flags in env.

        Helpers keep the packed slot in sync (``repack_flags``).
        """
        self.in_eflags = False
        self.packed_ok = True
        self.parsed_ok = True
        self.kind = CarryKind.DIRECT

    def on_fallback_wrote_flags(self) -> None:
        """Inline QEMU-style code wrote the per-bit fields directly.

        The packed slot is now stale: restores must rebuild from the
        per-bit fields until the next sync-save refreshes it.  The
        caller also emits a runtime PACKED_VALID clear.
        """
        self.in_eflags = False
        self.packed_ok = False
        self.parsed_ok = True
        self.kind = CarryKind.DIRECT

    # -- sync-save ----------------------------------------------------------------

    def emit_save(self, parsed: bool = False, reason: str = "site") -> None:
        """Sync-save: publish EFLAGS into env before control reaches QEMU.

        Uses the packed one-word scheme when the reduction optimization
        is on, unless *parsed* forces the per-bit representation (needed
        before inline QEMU-style code that reads the fields directly).
        """
        builder = self.builder
        before = len(builder.insns)
        with builder.tagged(SYNC_TAG):
            if self.kind == CarryKind.INVERTED:
                builder.cmc()
                self.kind = CarryKind.DIRECT
            if self.packed and not parsed:
                self._emit_packed_save()
                self.packed_ok = True
            else:
                self._emit_parsed_save()
                self.parsed_ok = True
                if self.packed:
                    # The packed slot (and its validity marker) are now
                    # stale: stop helpers from materializing from it.
                    builder.movi(_env(ENV_PACKED_VALID), 0)
                    self.packed_ok = False
        self.stats.saves += 1
        emitted = len(builder.insns) - before
        self.stats.save_insns += emitted
        mode = "packed" if self.packed and not parsed else "parsed"
        self.audit.append(save_event(before, before + emitted, mode, reason))
        if self.tracer.enabled:
            self.tracer.emit("sync.save", mode=mode, insns=emitted)

    def ensure_parsed(self) -> None:
        """Make the per-bit fields current (before inline QEMU code)."""
        if self.parsed_ok:
            return
        if not self.in_eflags:
            # env.packed is authoritative: reload it, then parse.
            self.emit_restore()
        self.emit_save(parsed=True)

    def _emit_packed_save(self) -> None:
        """pushfd; pop [env.packed]; mov [env.valid], 1  (3 instructions)."""
        builder = self.builder
        builder.pushfd()
        builder.pop(_env(ENV_PACKED_FLAGS))
        builder.movi(_env(ENV_PACKED_VALID), 1)

    def _emit_parsed_save(self) -> None:
        """The one-to-many parse into QEMU's four per-bit fields.

        One setcc per per-bit field (the fields are kept as 0/1 words
        whose upper bytes are always zero, so byte stores are exact).
        """
        builder = self.builder
        builder.setcc(X86Cond.S, Mem(base=ENV_REG, disp=ENV_NF, size=1))
        builder.setcc(X86Cond.E, Mem(base=ENV_REG, disp=ENV_ZF, size=1))
        builder.setcc(X86Cond.B, Mem(base=ENV_REG, disp=ENV_CF, size=1))
        builder.setcc(X86Cond.O, Mem(base=ENV_REG, disp=ENV_VF, size=1))

    # -- sync-restore --------------------------------------------------------------

    def emit_restore(self) -> None:
        """Sync-restore: reload the guest CCR from env into EFLAGS."""
        builder = self.builder
        before = len(builder.insns)
        packed_reload = self.packed and self.packed_ok
        with builder.tagged(SYNC_TAG):
            if packed_reload:
                builder.push(_env(ENV_PACKED_FLAGS))
                builder.popfd()
            else:
                # Base mode, or the packed slot is stale (QEMU-style
                # fallback code wrote the per-bit fields directly).
                self._emit_parsed_restore()
        self.in_eflags = True
        self.kind = CarryKind.DIRECT
        self.stats.restores += 1
        emitted = len(builder.insns) - before
        self.stats.restore_insns += emitted
        mode = "packed" if packed_reload else "parsed"
        self.audit.append(restore_event(before, before + emitted, mode))
        if self.tracer.enabled:
            self.tracer.emit("sync.restore", mode=mode, insns=emitted)

    def _emit_parsed_restore(self) -> None:
        """Rebuild an EFLAGS word from the four per-bit env fields."""
        builder = self.builder
        builder.mov(Reg(EDX), _env(ENV_VF))
        builder.shl(Reg(EDX), Imm(11))      # OF is bit 11
        builder.mov(Reg(EAX), _env(ENV_NF))
        builder.shl(Reg(EAX), Imm(7))       # SF is bit 7
        builder.or_(Reg(EDX), Reg(EAX))
        builder.mov(Reg(EAX), _env(ENV_ZF))
        builder.shl(Reg(EAX), Imm(6))       # ZF is bit 6
        builder.or_(Reg(EDX), Reg(EAX))
        builder.mov(Reg(EAX), _env(ENV_CF))
        builder.or_(Reg(EDX), Reg(EAX))     # CF is bit 0
        builder.push(Reg(EDX))
        builder.popfd()

    # -- queries ---------------------------------------------------------------------

    def need_save(self) -> bool:
        return self.in_eflags and not self.env_current

    def need_restore(self) -> bool:
        return not self.in_eflags
