"""The tiered degradation ladder: rules -> tcg -> interp.

The paper's premise puts *automatically-learned* translation rules in
the hot path of a system-level DBT, so a single bad rule (or a codegen
bug, or an unmodelled corner case) must not kill the guest.  This module
holds the policy state the engine loop consults:

- :class:`DegradationController` — per-engine ladder state: which rules
  are quarantined, which guest blocks have been demoted to a lower
  translation tier, transient-fault retry budgets, and the recovery
  statistics surfaced through ``Machine.stats()``;
- :class:`SelfCheck` — the online differential self-check: after a
  rules-tier TB executed, compiled or interpreted, the reference ARM
  interpreter replays its guest instructions from the pre-state env the
  run's :class:`~repro.robustness.guard.MachineSnapshot` kept, and the
  result is compared with the live env; on a mismatch the engine
  restores the snapshot, so the guest never observes the wrong result,
  quarantines the TB's rules and retranslates the block down the ladder.

Tier names are ordered strongest-first; ``interp`` (per-block reference
interpretation) is the unconditional last resort.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..common.bitops import u32
from ..guest.cpu import GuestCpu
from ..guest.interp import Interpreter, condition_passed
from ..guest.isa import PC
from ..host.isa import X86Op
from ..miniqemu.env import Env, env_vfp

#: Consecutive transient (injected) faults tolerated on one guest block
#: before the fault is treated as persistent and propagated.
TRANSIENT_RETRY_LIMIT = 64


class DegradationController:
    """Ladder state for one DBT engine (quarantine, demotions, retries)."""

    def __init__(self, tiers: Tuple[str, ...], quarantine=None):
        self.tiers = tiers
        self.quarantine = quarantine      # QuarantineFilter or None
        #: (pc, mmu_idx) -> lowest tier index this block may use.
        self.tier_floor: Dict[Tuple[int, int], int] = {}
        # Statistics.
        self.tier_counts: Dict[str, int] = {tier: 0 for tier in tiers}
        self.transient_faults = 0
        self.recovered_faults = 0
        self.demotions = 0
        self._consecutive_transients = 0

    # -- tier selection ----------------------------------------------------

    def start_tier(self, pc: int, mmu_idx: int) -> int:
        return self.tier_floor.get((pc, mmu_idx), 0)

    def note_translated(self, tier_index: int) -> None:
        self.tier_counts[self.tiers[tier_index]] += 1

    def demote(self, pc: int, mmu_idx: int) -> None:
        """Persistently lower the block's starting tier by one."""
        key = (pc, mmu_idx)
        floor = self.tier_floor.get(key, 0)
        if floor < len(self.tiers) - 1:
            self.tier_floor[key] = floor + 1
            self.demotions += 1

    # -- quarantine --------------------------------------------------------

    def quarantine_rule(self, rule: str, reason: str) -> bool:
        """Quarantine a rule key; returns True if newly quarantined."""
        if self.quarantine is None:
            return False
        return self.quarantine.quarantine(rule, reason)

    @property
    def quarantined_rules(self) -> Dict[str, str]:
        if self.quarantine is None:
            return {}
        return dict(self.quarantine.quarantined)

    # -- transient-fault retry budget --------------------------------------

    def note_transient(self) -> bool:
        """Record a transient fault; returns False when budget exhausted."""
        self.transient_faults += 1
        self._consecutive_transients += 1
        return self._consecutive_transients <= TRANSIENT_RETRY_LIMIT

    def note_progress(self) -> None:
        """An execute completed: reset the consecutive-transient counter."""
        self._consecutive_transients = 0

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        base = {
            "quarantined_rules": float(len(self.quarantined_rules)),
            "transient_faults": float(self.transient_faults),
            "recovered_faults": float(self.recovered_faults),
            "tier_demotions": float(self.demotions),
        }
        for tier, count in self.tier_counts.items():
            base[f"tier_{tier}_tbs"] = float(count)
        return base


# ---------------------------------------------------------------------------
# Online differential self-check.
# ---------------------------------------------------------------------------


class _NoBus:
    """Bus that rejects every access (pure blocks never touch it)."""

    def fetch(self, vaddr: int) -> int:
        raise RuntimeError("self-check reference touched the bus")

    def load(self, vaddr: int, size: int) -> int:
        raise RuntimeError("self-check reference touched the bus")

    def store(self, vaddr, size, value) -> None:
        raise RuntimeError("self-check reference touched the bus")

    def tlb_flush(self) -> None:
        pass


def tb_selfcheckable(tb) -> bool:
    """A TB is checkable when it is *pure*: no guest memory or system
    instructions and no (non-injected) helper calls, so both its run and
    the reference interpretation are closed over the env state alone,
    and the run's snapshot covers everything it can change."""
    for insn in tb.guest_insns:
        if insn.is_memory() or insn.is_system():
            return False
    for insn in tb.code:
        if insn.op is X86Op.CALL_HELPER and \
                not getattr(insn.helper, "injected", False):
            return False
    return True


class SelfCheck:
    """Differential check of every self-checkable rules-tier TB run.

    The check compares the run that happened with the reference, so it
    covers whichever form the host code ran in.  While it is enabled the
    engine takes a snapshot before every TB and disables block chaining,
    so every execution returns to the run loop and can be rolled back.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        # Statistics.
        self.checks = 0
        self.failures = 0
        self.inconclusive = 0

    def should_check(self, tb) -> bool:
        return self.enabled and tb.meta.get("tier", "rules") == "rules" \
            and tb.meta.get("selfcheckable", False)

    # -- the check itself --------------------------------------------------

    def verify(self, tb, env_prestate: bytes, env: Env,
               interrupted: bool) -> bool:
        """True when *env*, left by *tb* run from *env_prestate*, matches
        the reference interpreter (or the check is inconclusive).  An
        *interrupted* run left at the TB-entry interrupt check, before
        any of the block's instructions."""
        self.checks += 1
        reference = self._reference_execute(
            () if interrupted else tb.guest_insns, env_prestate)
        if reference is None:
            self.inconclusive += 1
            return True
        if self._matches(env, reference):
            return True
        self.failures += 1
        return False

    @staticmethod
    def _reference_execute(insns: Sequence, env_prestate: bytes):
        env = Env()
        env.data[:] = env_prestate
        env.unpack_flags()
        cpu = GuestCpu()
        env.store_to_cpu(cpu)
        interp = Interpreter(cpu, _NoBus())
        for insn in insns:
            if cpu.regs[PC] != insn.addr:
                break             # an earlier branch left the block
            if not condition_passed(insn.cond, cpu.cpsr):
                cpu.regs[PC] = u32(insn.addr + 4)
                continue
            try:
                interp._execute(insn)
            except Exception:
                return None       # reference cannot model it: inconclusive
        return cpu

    @staticmethod
    def _matches(env: Env, cpu: GuestCpu) -> bool:
        for index in range(16):
            if env.get_reg(index) != cpu.regs[index]:
                return False
        for index in range(32):
            if env.read(env_vfp(index)) != cpu.vfp[index]:
                return False
        return True
