"""Translation blocks and the code cache.

A TB is one guest basic block translated to host code; the code cache
maps ``(guest pc, mmu_idx)`` to a TB.  Block chaining works as in QEMU:
each TB has two ``GOTO_TB`` slots that the cpu_exec loop patches to point
directly at the successor TB once it is translated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..common.errors import ReproError
from ..guest.isa import ArmInsn

# TB exit statuses (the EXIT_TB immediate).
EXIT_PC_UPDATED = 0   # env.pc holds the next guest pc
EXIT_INTERRUPT = 1    # the TB-entry interrupt check fired
EXIT_HALT = 2         # wfi executed
EXIT_EXCEPTION = 3    # a helper delivered an exception; env.pc is the vector

#: Maximum guest instructions per TB (QEMU caps TBs similarly).
MAX_TB_INSNS = 32


@dataclass
class TranslationBlock:
    pc: int
    mmu_idx: int
    #: the block's guest instructions in emitted order.  They are
    #: contiguous, so program order is address order; a scheduled block
    #: records the permutation in its ``reorder`` justification.
    guest_insns: List[ArmInsn] = field(default_factory=list)
    code: List = field(default_factory=list)      # host X86Insn list
    jmp_target: List[Optional["TranslationBlock"]] = \
        field(default_factory=lambda: [None, None])
    #: guest pc each GOTO_TB slot leads to (for chaining lookups)
    jmp_pc: List[Optional[int]] = field(default_factory=lambda: [None, None])
    exec_count: int = 0
    #: engine-specific metadata (tier, coverage, the audit and
    #: justification records the sync counts are derived from, ...)
    meta: dict = field(default_factory=dict)
    #: entry block of the threaded code the host interpreter compiled
    #: once the TB got hot, or False when it stays interpreted
    #: (repro.host.interp); run-time only, never persisted or compared
    compiled: Optional[object] = field(default=None, compare=False,
                                       repr=False)

    @property
    def guest_insn_count(self) -> int:
        return len(self.guest_insns)

    def __repr__(self) -> str:
        return (f"<TB 0x{self.pc:08x} mmu{self.mmu_idx} "
                f"{self.guest_insn_count} guest insns, "
                f"{len(self.code)} host insns>")


class CodeCache:
    """The translated-code cache, keyed by (guest pc, mmu_idx)."""

    def __init__(self):
        self._tbs: Dict[Tuple[int, int], TranslationBlock] = {}
        self.translated_guest_insns = 0   # static translation statistics
        self.translated_host_insns = 0
        self.invalidated = 0              # TBs evicted by the ladder
        #: Eviction observers: ``fn(victims, rules)`` called after any
        #: invalidation, with the evicted TBs and the quarantined rule
        #: keys (None unless this was a rule-quarantine eviction).  The
        #: rule engine uses this to drop stale block memo entries and
        #: the persistent cache uses it to evict on-disk entries.
        self._evict_listeners: List = []

    def add_evict_listener(self, listener) -> None:
        self._evict_listeners.append(listener)

    def _notify_evict(self, victims, rules=None) -> None:
        for listener in self._evict_listeners:
            listener(victims, rules)

    def lookup(self, pc: int, mmu_idx: int) -> Optional[TranslationBlock]:
        return self._tbs.get((pc, mmu_idx))

    def insert(self, tb: TranslationBlock) -> None:
        self._tbs[(tb.pc, tb.mmu_idx)] = tb
        self.translated_guest_insns += tb.guest_insn_count
        self.translated_host_insns += len(tb.code)

    # -- invalidation (the degradation ladder's eviction path) -------------

    def invalidate(self, tb: TranslationBlock,
                   context=None) -> None:
        """Evict one TB and unlink every chain pointing at it."""
        key = (tb.pc, tb.mmu_idx)
        if self._tbs.get(key) is not tb:
            raise ReproError(
                f"cannot invalidate unknown TB 0x{tb.pc:08x} "
                f"mmu{tb.mmu_idx}").attach_context(context)
        del self._tbs[key]
        self.invalidated += 1
        self._unlink({id(tb)})
        self._notify_evict([tb])

    def invalidate_rules(self, rules: Iterable[str]) -> int:
        """Evict every TB translated with any of the given rule keys.

        Used when a learned rule is quarantined: all code generated from
        it is suspect, not just the TB that crashed.  Returns the number
        of TBs evicted.
        """
        wanted = set(rules)
        victims = [tb for tb in self._tbs.values()
                   if wanted.intersection(tb.meta.get("rules_used", ()))]
        for tb in victims:
            del self._tbs[(tb.pc, tb.mmu_idx)]
        self.invalidated += len(victims)
        self._unlink({id(tb) for tb in victims})
        self._notify_evict(victims, wanted)
        return len(victims)

    def _unlink(self, removed_ids: set) -> None:
        """Clear chain slots that point at evicted TBs (by identity)."""
        for tb in self._tbs.values():
            for slot in (0, 1):
                if id(tb.jmp_target[slot]) in removed_ids:
                    tb.jmp_target[slot] = None

    def __len__(self) -> int:
        return len(self._tbs)

    def all_tbs(self):
        return self._tbs.values()


class TbExitException(Exception):
    """Raised by helpers to unwind out of TB execution (QEMU's longjmp)."""

    def __init__(self, status: int = EXIT_EXCEPTION):
        self.status = status
        super().__init__(f"tb exit {status}")
