"""The tiered degradation ladder: rules -> tcg -> interp.

The paper's premise puts *automatically-learned* translation rules in
the hot path of a system-level DBT, so a single bad rule (or a codegen
bug, or an unmodelled corner case) must not kill the guest.  This module
holds the policy state the engine loop consults:

- :class:`DegradationController` — per-engine ladder state: which rules
  are quarantined, which guest blocks have been demoted to a lower
  translation tier, transient-fault retry budgets, and the recovery
  statistics surfaced through ``Machine.stats()``;
- :class:`SelfCheck` — the online differential self-check: before a
  sampled rules-tier TB executes, it is re-run in a *sandboxed* host
  interpreter against the reference ARM interpreter from the same
  pre-state; a mismatch quarantines the TB's rules and the block is
  retranslated down the ladder **before** the bad code ever touches the
  live machine state.

Tier names are ordered strongest-first; ``interp`` (per-block reference
interpretation) is the unconditional last resort.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

from ..common.bitops import u32
from ..guest.cpu import GuestCpu
from ..guest.interp import Interpreter, condition_passed
from ..guest.isa import PC
from ..host.cpu import HostCpu
from ..host.interp import HostInterpreter
from ..host.isa import (ENV_REG, FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF,
                        X86Op)
from ..host.memory import HostMemory
from ..miniqemu.env import (ENV_BASE, ENV_CF, ENV_CPSR_REST, ENV_FPSCR,
                            ENV_NF, ENV_PACKED_FLAGS, ENV_PACKED_VALID,
                            ENV_VF, ENV_ZF, Env, STACK_BASE, STACK_SIZE,
                            TLB_BASE, env_vfp)
from ..miniqemu.tb import EXIT_PC_UPDATED
from .guard import ExecutionWatchdog

#: Consecutive transient (injected) faults tolerated on one guest block
#: before the fault is treated as persistent and propagated.
TRANSIENT_RETRY_LIMIT = 64

#: Host-instruction bound for sandboxed self-check execution.
SELFCHECK_HOST_BOUND = 200_000


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


class _SandboxRuntime:
    """Minimal runtime facade for injected helpers inside the sandbox."""

    def __init__(self, env: Env):
        self.env = env


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
    instructions and no (non-injected) helper calls, so both the
    sandboxed host run and the reference interpretation are closed over
    the env state alone."""
    for insn in tb.guest_insns:
        if insn.is_memory() or insn.is_system():
            return False
    for insn in tb.code:
        if insn.op is X86Op.CALL_HELPER and \
                not getattr(insn.helper, "injected", False):
            return False
    return True


class SelfCheck:
    """Periodic differential re-execution of sampled rules-tier TBs.

    ``interval`` counts eligible TB executions between checks; an
    interval of 1 is *paranoid mode* — every eligible execution is
    checked first (the engine also disables block chaining so corrupted
    TBs cannot be entered behind the check's back).
    """

    def __init__(self, interval: int = 0, tlb_size: int = 0):
        self.interval = interval
        self.tlb_size = tlb_size
        self._countdown = interval
        # Statistics.
        self.checks = 0
        self.failures = 0
        self.inconclusive = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    @property
    def paranoid(self) -> bool:
        return self.interval == 1

    def should_check(self, tb) -> bool:
        if not self.enabled or tb.meta.get("tier", "rules") != "rules":
            return False
        if not tb.meta.get("selfcheckable", False):
            return False
        self._countdown -= 1
        if self._countdown > 0:
            return False
        self._countdown = self.interval
        return True

    # -- the check itself --------------------------------------------------

    def verify(self, tb, env_prestate: bytes) -> bool:
        """Shadow-execute *tb* from *env_prestate*; True when it matches
        the reference interpreter (or the check is inconclusive)."""
        self.checks += 1
        sandbox_env, exit_ok = self._sandbox_execute(tb, env_prestate)
        if sandbox_env is None:
            self.failures += 1
            return False          # the TB crashed even in the sandbox
        if not exit_ok:
            self.inconclusive += 1
            return True           # interrupt exit: nothing to compare
        reference = self._reference_execute(tb, env_prestate)
        if reference is None:
            self.inconclusive += 1
            return True
        if self._matches(sandbox_env, reference):
            return True
        self.failures += 1
        return False

    def _sandbox_execute(self, tb, env_prestate: bytes):
        env = Env()
        env.data[:] = env_prestate
        memory = HostMemory()
        memory.map_region(ENV_BASE, env.data, "env")
        memory.map_region(STACK_BASE, bytearray(STACK_SIZE), "stack")
        if self.tlb_size:
            memory.map_region(TLB_BASE, bytearray(self.tlb_size), "tlb")
        cpu = HostCpu(stack_top=STACK_BASE + STACK_SIZE)
        cpu.regs[ENV_REG] = ENV_BASE
        host = HostInterpreter(cpu, memory)
        host.runtime = _SandboxRuntime(env)
        host.watchdog = ExecutionWatchdog(max_host_insns=SELFCHECK_HOST_BOUND)
        shadow = copy.copy(tb)
        shadow.jmp_target = [None, None]
        try:
            exit_info = host.execute(shadow)
        except Exception:
            return None, False
        return env, exit_info.status == EXIT_PC_UPDATED

    def _reference_execute(self, tb, env_prestate: bytes):
        env = Env()
        env.data[:] = env_prestate
        cpu = _cpu_from_env(env)
        interp = Interpreter(cpu, _NoBus())
        for insn in tb.guest_insns:
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


def _cpu_from_env(env: Env) -> GuestCpu:
    """Architectural CPU view of an env byte image (for the reference)."""
    cpu = GuestCpu()
    if env.read(ENV_PACKED_VALID):
        packed = env.read(ENV_PACKED_FLAGS)
        n = (packed >> FLAG_SF) & 1
        z = (packed >> FLAG_ZF) & 1
        c = (packed >> FLAG_CF) & 1
        v = (packed >> FLAG_OF) & 1
    else:
        n = env.read(ENV_NF) & 1
        z = env.read(ENV_ZF) & 1
        c = env.read(ENV_CF) & 1
        v = env.read(ENV_VF) & 1
    cpu.cpsr = (env.read(ENV_CPSR_REST) & 0x0FFFFFFF) | \
        (n << 31) | (z << 30) | (c << 29) | (v << 28)
    for index in range(16):
        cpu.regs[index] = env.get_reg(index)
    for index in range(32):
        cpu.vfp[index] = env.read(env_vfp(index))
    cpu.fpscr = env.read(ENV_FPSCR)
    return cpu
