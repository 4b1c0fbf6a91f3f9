"""The machine: board wiring, the cpu_exec loop, and execution engines.

One :class:`Machine` owns the guest CPU, physical memory and devices, the
softmmu, the host-side state (env, TLB bytes, host CPU/memory/interpreter)
and a pluggable *execution engine*:

- :class:`InterpEngine` — the reference ARM interpreter (architectural
  ground truth; also the "native execution" cost baseline for Fig 18),
- :class:`TcgEngine` — the MiniQEMU baseline (ARM -> IR -> x86),
- ``repro.core.RuleEngine`` — the paper's rule-based translator, which
  plugs into the same socket.

The physical memory map::

    0x0000_0000  RAM (default 8 MiB)
    0x1000_0000  UART
    0x1001_0000  timer
    0x1002_0000  interrupt controller
    0x1003_0000  block device
    0x1004_0000  NIC
    0x100F_0000  system controller (guest-initiated shutdown)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..common.costmodel import (COST_INTERP_TIER_INSN, COST_TB_LOOKUP,
                                COST_TRANSLATE_PER_INSN)
from ..common.errors import (DecodingError, DiagContext, GuestHalt,
                             HostExecutionError, InjectedFault, MemoryFault,
                             ReproError, RuleApplicationError,
                             TranslationError, WatchdogTimeout)
from ..devices.blockdev import BlockDevice
from ..devices.intc import IRQ_TIMER, InterruptController
from ..devices.nic import Nic
from ..devices.syscon import SystemController
from ..devices.timer import Timer
from ..devices.uart import Uart
from ..guest.cpu import GuestCpu, MODE_IRQ, MODE_USR, VECTOR_IRQ
from ..guest.decoder import decode
from ..guest.interp import Interpreter
from ..guest.isa import PC, ArmInsn
from ..host.cpu import HostCpu
from ..observability.stats import merge_stats
from ..observability.trace import FLIGHT_RECORDER_EVENTS, NULL_TRACER
from ..host.interp import HostInterpreter
from ..host.isa import ENV_REG
from ..host.memory import HostMemory
from ..robustness.degrade import (DegradationController, SelfCheck,
                                  tb_selfcheckable)
from ..robustness.faultinject import NullInjector
from ..robustness.guard import MachineSnapshot, fast_forward_halt
from ..softmmu.bus import GuestBus
from ..softmmu.memory import PhysicalMemoryMap
from ..softmmu.pagetable import PageWalker
from ..softmmu.tlb import MMU_IDX_KERNEL, MMU_IDX_USER, SoftTlb
from .backend import TcgBackend
from .env import (ENV_BASE, ENV_IRQ, RAM_HOST_BASE, STACK_BASE, STACK_SIZE,
                  TLB_BASE, Env, env_reg)
from .frontend import TcgFrontend
from .helpers import QemuRuntime
from .tb import (EXIT_EXCEPTION, EXIT_HALT, EXIT_INTERRUPT, EXIT_PC_UPDATED,
                 MAX_TB_INSNS, CodeCache, TbExitException, TranslationBlock)

UART_BASE = 0x10000000
TIMER_BASE = 0x10010000
INTC_BASE = 0x10020000
BLOCK_BASE = 0x10030000
NIC_BASE = 0x10040000
SYSCON_BASE = 0x100F0000

DEFAULT_RAM_SIZE = 8 * 1024 * 1024


class Machine:
    """A full guest system plus the host-side DBT state."""

    def __init__(self, ram_size: int = DEFAULT_RAM_SIZE,
                 engine: str = "tcg", rule_engine_factory=None,
                 fault_injector=None, watchdog=None,
                 selfcheck_interval: int = 0,
                 tracer=None, profiler=None):
        # Observability (defaults are the zero-cost disabled paths; see
        # repro.observability).  Set first so every subsystem built
        # below can capture the tracer.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler

        # Guest side.
        self.cpu = GuestCpu()
        self.memory = PhysicalMemoryMap()
        self.ram = self.memory.add_ram(0, ram_size)
        self.tlb = SoftTlb(RAM_HOST_BASE)
        self.bus = GuestBus(self.cpu, self.memory, self.tlb)

        # Devices.
        self.intc = InterruptController(self.cpu)
        self.uart = Uart(self)
        self.timer = Timer(self.intc)
        self.blockdev = BlockDevice(self.intc, self.memory, self)
        self.nic = Nic(self.intc, self)
        self.syscon = SystemController()
        self.memory.add_device(UART_BASE, 0x1000, self.uart, "uart")
        self.memory.add_device(TIMER_BASE, 0x1000, self.timer, "timer")
        self.memory.add_device(INTC_BASE, 0x1000, self.intc, "intc")
        self.memory.add_device(BLOCK_BASE, 0x1000, self.blockdev, "block")
        self.memory.add_device(NIC_BASE, 0x1000, self.nic, "nic")
        self.memory.add_device(SYSCON_BASE, 0x1000, self.syscon, "syscon")

        # Host side.
        self.env = Env()
        self.host_memory = HostMemory()
        self.host_memory.map_region(ENV_BASE, self.env.data, "env")
        self.host_memory.map_region(TLB_BASE, self.tlb.data, "tlb")
        self._stack = bytearray(STACK_SIZE)
        self.host_memory.map_region(STACK_BASE, self._stack, "stack")
        self.host_memory.map_region(RAM_HOST_BASE, self.ram.data, "ram")
        self.host_cpu = HostCpu(stack_top=STACK_BASE + STACK_SIZE)
        self.host_cpu.regs[ENV_REG] = ENV_BASE
        self.host = HostInterpreter(self.host_cpu, self.host_memory)
        self.runtime = QemuRuntime(self.cpu, self.env, self.memory, self.tlb,
                                   PageWalker(self.memory), self)
        self.runtime.host = self.host
        self.host.runtime = self.runtime
        self.host.tracer = self.tracer
        self.host.profiler = self.profiler
        if self.tracer.enabled:
            # The trace time axis: (modelled host cost, guest icount).
            self.tracer.set_clock(
                lambda: (float(self.host.cost), self.guest_icount))

        # Robustness: fault injection, watchdog, self-check sampling.
        # Set before the engine is built — engines read these to size
        # their degradation ladder.
        self.injector = fault_injector if fault_injector is not None \
            else NullInjector()
        self.watchdog = watchdog
        self.selfcheck_interval = selfcheck_interval
        self.host.watchdog = watchdog

        # Execution engine.
        if engine == "interp":
            self.engine = InterpEngine(self)
        elif engine == "tcg":
            self.engine = TcgEngine(self)
        elif engine == "rules":
            if rule_engine_factory is None:
                raise ValueError("rules engine requires a factory "
                                 "(use repro.core.make_rule_engine)")
            self.engine = rule_engine_factory(self)
        else:
            raise ValueError(f"unknown engine {engine!r}")

        # Statistics.
        self.guest_icount = 0        # guest instructions executed
        self.io_cost = 0             # modelled device time
        self.exit_code: Optional[int] = None
        self.irq_delivered = 0

    # -- device plumbing -----------------------------------------------------

    def charge_io(self, amount: int) -> None:
        """Charge modelled device latency (kept out of CPU cost)."""
        self.io_cost += amount

    def advance_time(self, guest_insns: int) -> None:
        self.guest_icount += guest_insns
        self.timer.advance(guest_insns)
        if self.injector.enabled and self.injector.fires("irq-storm"):
            # Spurious but *ackable* interrupt: the guest's IRQ handler
            # reads INTC STATUS and acks the timer, so storms exercise
            # delivery without wedging the machine.
            self.intc.raise_irq(IRQ_TIMER)
        self.runtime.update_irq()

    # -- program loading --------------------------------------------------------

    def load_program(self, program, entry: Optional[int] = None) -> None:
        self.memory.load_program(program)
        start = entry if entry is not None else program.entry()
        self.cpu.regs[PC] = start
        self.env.load_from_cpu(self.cpu)

    # -- running -------------------------------------------------------------------

    def run(self, max_guest_insns: int = 50_000_000) -> int:
        """Run until the guest halts; returns the exit code."""
        try:
            self.engine.run(max_guest_insns)
        except GuestHalt as halt:
            self.exit_code = halt.exit_code
            return halt.exit_code
        raise ReproError(
            f"guest did not halt within {max_guest_insns} instructions"
        ).attach_context(self.diag_context())

    # -- diagnostics -----------------------------------------------------------------

    def diag_context(self, **extra) -> DiagContext:
        """Machine-state snapshot for error reports (attach at raise time)."""
        engine = getattr(self, "engine", None)
        name = getattr(engine, "name", None)
        # The interpreter engine keeps the live pc in the guest CPU; the
        # DBT engines keep it in env.
        pc = self.cpu.regs[PC] if name == "interp" else self.env.pc
        return DiagContext(guest_pc=pc, mode=self.cpu.mode,
                           icount=self.guest_icount, engine=name,
                           extra=extra,
                           trace=self.tracer.tail(FLIGHT_RECORDER_EVENTS))

    # -- metrics ----------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """All counters, namespaced ``engine.`` / ``robust.`` / ``io.`` /
        ``trace.`` (collisions raise; see repro.observability.stats)."""
        engine_group = {
            "guest_icount": float(self.guest_icount),
            "irq_delivered": float(self.irq_delivered),
            "tlb_fills": float(self.tlb.fill_count),
        }
        engine_group.update(self.engine.stats())
        robust_group = {}
        for site, count in self.injector.counts_by_site().items():
            robust_group[f"inj_{site.replace('-', '_')}"] = float(count)
        if self.watchdog is not None:
            robust_group["watchdog_trips"] = float(self.watchdog.trips)
        robust_group.update(self.engine.robustness_stats())
        groups = {
            "engine": engine_group,
            "robust": robust_group,
            "io": {"cost": float(self.io_cost)},
        }
        loader = getattr(self.engine, "persistent", None)
        if loader is not None:
            # Kept in its own group: warm-start accounting differs
            # between cold and warm runs by design, while the
            # deterministic engine./robust./io. groups must not.
            groups["cache"] = loader.stats()
        if self.tracer.enabled:
            groups["trace"] = self.tracer.stats()
        return merge_stats(groups)


class InterpEngine:
    """Reference engine: the pure ARM interpreter (native-cost baseline)."""

    name = "interp"

    def __init__(self, machine: Machine):
        self.machine = machine
        self.interp = Interpreter(machine.cpu, machine.bus)

    def run(self, max_guest_insns: int) -> None:
        machine = self.machine
        cpu = machine.cpu
        interp = self.interp
        # Chunked stepping so devices advance deterministically.
        while interp.icount < max_guest_insns:
            before = interp.icount
            interp.step()
            machine.advance_time(max(interp.icount - before, 1))
            if cpu.halted and not cpu.irq_line:
                fast_forward_halt(
                    machine, lambda: not (cpu.halted and not cpu.irq_line))

    def stats(self) -> Dict[str, float]:
        return {"host_cost": float(self.interp.icount),
                "host_instructions": float(self.interp.icount)}

    def robustness_stats(self) -> Dict[str, float]:
        return {}


class DbtEngineBase:
    """Shared cpu_exec loop for the TCG and rule-based engines.

    The base class also owns the *degradation ladder* (see
    ``docs/internals.md``): every engine translates through an ordered
    list of tiers (:attr:`tiers`, strongest first) and falls down the
    ladder when a tier's translation or generated code misbehaves.  The
    last tier, ``interp``, executes the block with the reference ARM
    interpreter and cannot fail for codegen reasons.
    """

    name = "dbt"
    #: Translation tiers, strongest first (RuleEngine prepends "rules").
    tiers = ("tcg", "interp")

    def __init__(self, machine: Machine):
        self.machine = machine
        self.cache = CodeCache()
        self.translation_cost = 0
        #: Persistent cross-run translation cache (repro.cache); wired
        #: by attach_cache() when the run has a --cache-dir.
        self.persistent = None
        machine.host.on_tb_enter = self._on_tb_enter  # set below via attr
        self.ladder = DegradationController(self.tiers)
        self.selfcheck = SelfCheck(interval=machine.selfcheck_interval,
                                   tlb_size=len(machine.tlb.data))
        # Pre-execute snapshots are only worth taking when some fault
        # source can actually fire (keeps the normal path allocation-free).
        self._recovery = (machine.injector.enabled or
                          machine.watchdog is not None or
                          self.selfcheck.enabled)
        self._tier_interp = Interpreter(machine.cpu, machine.bus)
        #: Decode memo: ``addr << 32 | word`` -> the shared, read-only
        #: instruction ``decode(word, addr)`` returns (docs/internals.md,
        #: "Translation-time memo").  Decoding is a pure function of
        #: the word and its address, so an entry never goes stale.
        self._decoded: Dict[int, ArmInsn] = {}

    # -- translation (the tier ladder) -------------------------------------------

    def translate(self, pc: int, mmu_idx: int) -> TranslationBlock:
        """Translate through the tier ladder, degrading on failure.

        Genuine guest conditions (fetch fault -> prefetch abort,
        undecodable first word -> undef) and transient injected faults
        propagate to the run loop; anything else a tier raises is
        treated as a codegen/rule bug: the offending rule is
        quarantined (when attributable) or the block's tier floor is
        lowered, and the next tier is tried.
        """
        ladder = self.ladder
        tier_index = ladder.start_tier(pc, mmu_idx)
        last_error = None
        while tier_index < len(self.tiers):
            tier = self.tiers[tier_index]
            try:
                tb = self._translate_tier(tier, pc, mmu_idx)
            except (MemoryFault, DecodingError, InjectedFault):
                raise
            except RuleApplicationError as error:
                last_error = error
                if ladder.quarantine_rule(error.rule,
                                          f"translate: {error}"):
                    # Newly quarantined: the same tier now routes the
                    # rule's instructions through the fallback, so retry
                    # it before degrading the whole block.
                    if self.machine.tracer.enabled:
                        self.machine.tracer.emit(
                            "ladder.quarantine", rule=error.rule,
                            phase="translate", pc=pc)
                    self.cache.invalidate_rules([error.rule])
                    continue
                tier_index += 1
                continue
            except Exception as error:  # noqa: BLE001 - the ladder exists
                last_error = error      # to absorb arbitrary codegen bugs
                if ladder.start_tier(pc, mmu_idx) == tier_index:
                    ladder.demote(pc, mmu_idx)
                    if self.machine.tracer.enabled:
                        self.machine.tracer.emit(
                            "ladder.demote", pc=pc, from_tier=tier,
                            reason=type(error).__name__)
                tier_index += 1
                continue
            tb.meta["tier"] = tier
            if tier == "rules":
                tb.meta["selfcheckable"] = tb_selfcheckable(tb)
            ladder.note_translated(tier_index)
            return tb
        raise TranslationError(
            f"all translation tiers failed for 0x{pc:08x}"
        ).attach_context(self.machine.diag_context(last_error=str(last_error)))

    def _translate_tier(self, tier: str, pc: int,
                        mmu_idx: int) -> TranslationBlock:
        if tier == "tcg":
            return self.translate_tcg(pc, mmu_idx)
        if tier == "interp":
            return self._make_interp_tb(pc, mmu_idx)
        raise TranslationError(f"engine {self.name} has no tier {tier!r}")

    def translate_tcg(self, pc: int, mmu_idx: int) -> TranslationBlock:
        """The MiniQEMU pipeline (ARM -> TCG IR -> x86); the shared
        fallback tier below the rules engine."""
        from ..ir.opt import optimize

        insns = self.fetch_block(pc)
        frontend = TcgFrontend(mmu_idx)
        ir_insns, jmp_pcs = frontend.translate(pc, insns)
        ir_insns = optimize(ir_insns)
        backend = TcgBackend(mmu_idx)
        code = backend.lower(ir_insns)
        tb = TranslationBlock(pc=pc, mmu_idx=mmu_idx, guest_insns=insns,
                              code=code)
        tb.jmp_pc = list(jmp_pcs)
        tb.meta = {
            "n_memory": sum(1 for insn in insns if insn.is_memory()),
            "n_system": sum(1 for insn in insns if insn.is_system()),
        }
        return tb

    def _make_interp_tb(self, pc: int, mmu_idx: int) -> TranslationBlock:
        """Last-resort tier: an empty TB executed by the reference
        interpreter (cannot fail for codegen reasons)."""
        insns = self.fetch_block(pc)
        tb = TranslationBlock(pc=pc, mmu_idx=mmu_idx, guest_insns=insns,
                              code=[])
        tb.meta = {
            "n_memory": sum(1 for insn in insns if insn.is_memory()),
            "n_system": sum(1 for insn in insns if insn.is_system()),
        }
        return tb

    # -- helpers ----------------------------------------------------------------

    def mmu_idx(self) -> int:
        return MMU_IDX_USER if self.machine.cpu.mode == MODE_USR \
            else MMU_IDX_KERNEL

    def decode(self, word: int, addr: int) -> ArmInsn:
        """``decode(word, addr)`` through the engine's decode memo."""
        key = addr << 32 | word
        insn = self._decoded.get(key)
        if insn is None:
            insn = self._decoded[key] = decode(word, addr)
        return insn

    def fetch_block(self, pc: int) -> List[ArmInsn]:
        """Read a guest basic block's instructions at translation time."""
        machine = self.machine
        machine.injector.maybe_fault("fetch", f"pc=0x{pc:08x}")
        insns = self._read_block(pc, machine.bus.fetch)
        if machine.tracer.enabled:
            machine.tracer.emit("decode.block", pc=pc, n_insns=len(insns))
        return insns

    def peek_block(self, pc: int) -> List[ArmInsn]:
        """The block :meth:`fetch_block` would read now, read without
        side effects: no TLB fill, no injector site, no trace event.
        Raises as :meth:`fetch_block` does."""
        return self._read_block(pc, self.machine.bus.peek)

    def _read_block(self, pc: int, read: Callable[[int], int]
                    ) -> List[ArmInsn]:
        insns: List[ArmInsn] = []
        addr = pc
        while len(insns) < MAX_TB_INSNS:
            try:
                word = read(addr)
            except MemoryFault:
                if insns:
                    break
                raise
            try:
                insn = self.decode(word, addr)
            except DecodingError:
                # Ran into data (e.g. a literal pool): end the block; a
                # first-instruction failure is a genuine guest undef.
                if insns:
                    break
                raise
            insns.append(insn)
            if insn.writes_pc() or insn.is_system():
                break
            addr += 4
        return insns

    def _vet_tb(self, tb: TranslationBlock) -> TranslationBlock:
        """Hook between instrumentation and cache insertion.

        Engines with a verify-before-enter mode (``--check``) override
        this to run the static soundness checker on the freshly
        translated block and degrade it before it can ever execute.
        Returns the block to insert (possibly a retranslation at a
        lower tier)."""
        return tb

    def get_tb(self, pc: int, mmu_idx: int) -> TranslationBlock:
        tb = self.cache.lookup(pc, mmu_idx)
        if tb is None:
            loaded = None
            if self.persistent is not None and \
                    self.ladder.start_tier(pc, mmu_idx) == 0:
                # Warm start: revive a persisted rules-tier translation
                # (validated against live guest bytes by the loader).
                loaded = self.persistent.fetch(pc, mmu_idx)
            if loaded is not None:
                tb = loaded
                self.ladder.note_translated(self.tiers.index("rules"))
            else:
                tb = self.translate(pc, mmu_idx)
                if self.persistent is not None:
                    self.persistent.fresh += 1
            self.machine.injector.instrument_tb(tb)
            vetted = self._vet_tb(tb)
            if loaded is not None and vetted is not tb:
                # --check rejected the revived block: the persisted
                # entry is unsound for this context, drop it too.
                self.persistent.discard(pc, mmu_idx, "check-reject")
            tb = vetted
            tb.meta.setdefault("provenance", "fresh")
            self.cache.insert(tb)
            host = self.machine.host
            # Loaded TBs re-charge the same modelled translation cost as
            # a fresh translation, so the deterministic metrics are
            # bit-identical cold vs warm; the warm win is wall-clock.
            cost = COST_TRANSLATE_PER_INSN * tb.guest_insn_count
            if host.profiler is not None:
                # Attribute the modelled translation cost to the new TB.
                host._profile_key = (tb.pc, tb.mmu_idx)
                host.profiler.register(tb)
            host.charge(cost, "translate")
            host._profile_key = None
            self.translation_cost += cost
            if self.machine.tracer.enabled:
                self.machine.tracer.emit(
                    "tb.translate", pc=pc, tier=tb.meta.get("tier", "?"),
                    provenance=tb.meta.get("provenance", "fresh"),
                    guest_insns=tb.guest_insn_count,
                    host_insns=len(tb.code))
        return tb

    # -- the cpu_exec loop -----------------------------------------------------------

    def run(self, max_guest_insns: int) -> None:
        machine = self.machine
        host = machine.host
        runtime = machine.runtime
        while machine.guest_icount < max_guest_insns:
            # Deliver a pending interrupt at the loop head (QEMU does the
            # same before entering the code cache).
            if machine.env.read(ENV_IRQ):
                if machine.tracer.enabled:
                    machine.tracer.emit("irq.deliver", pc=machine.env.pc)
                runtime.deliver_exception(MODE_IRQ, VECTOR_IRQ,
                                          machine.env.pc + 4)
                machine.irq_delivered += 1
            pc = machine.env.pc
            try:
                tb = self.get_tb(pc, self.mmu_idx())
            except MemoryFault:
                # Translation-time fetch fault: a guest prefetch abort.
                from ..guest.cpu import MODE_ABT, VECTOR_PREFETCH_ABORT
                runtime.deliver_exception(MODE_ABT, VECTOR_PREFETCH_ABORT,
                                          pc + 4)
                continue
            except DecodingError:
                # The guest jumped into undecodable bytes: undef.
                from ..guest.cpu import MODE_UND, VECTOR_UNDEF
                runtime.deliver_exception(MODE_UND, VECTOR_UNDEF, pc + 4)
                continue
            except InjectedFault as fault:
                # Transient translation-time fault: retry (bounded).
                if not self.ladder.note_transient():
                    raise fault.attach_context(machine.diag_context(
                        detail="transient-retry budget exhausted"))
                self.ladder.recovered_faults += 1
                continue
            if host.profiler is not None:
                # The lookup cost belongs to the block about to run.
                host._profile_key = (tb.pc, tb.mmu_idx)
            host.charge(COST_TB_LOOKUP, "runtime")
            if tb.meta.get("tier") == "interp":
                self._execute_interp_tier(tb)
                self.ladder.note_progress()
                continue
            snapshot = MachineSnapshot(machine) if self._recovery else None
            if self.selfcheck.should_check(tb) and \
                    not self.selfcheck.verify(tb, bytes(machine.env.data)):
                # Differential mismatch *before* the TB ran: quarantine
                # its rules and retranslate; live state is untouched.
                if machine.tracer.enabled:
                    machine.tracer.emit("ladder.selfcheck_fail", pc=tb.pc)
                self._condemn_tb(tb, "self-check mismatch")
                continue
            self._before_execute(tb)
            try:
                exit_info = host.execute(tb)
            except TbExitException:
                self.ladder.note_progress()
                continue  # helper delivered an exception; env.pc updated
            except RuleApplicationError as error:
                self._recover(tb, snapshot, error, rule=error.rule)
                continue
            except InjectedFault as fault:
                # Transient execute-time fault (softmmu/helper): roll
                # back to the TB boundary and replay.
                if snapshot is None or host.tb_side_effects or \
                        not self.ladder.note_transient():
                    raise fault.attach_context(machine.diag_context())
                snapshot.restore(machine)
                self.ladder.recovered_faults += 1
                continue
            except (WatchdogTimeout, HostExecutionError) as error:
                self._recover(tb, snapshot, error)
                continue
            self.ladder.note_progress()
            status = exit_info.status
            if exit_info.chain is not None and status == EXIT_PC_UPDATED \
                    and not self.selfcheck.paranoid:
                # Paranoid self-checking keeps every entry visible to the
                # run loop (a chained jump would bypass the check).
                self._chain(*exit_info.chain)
            if status in (EXIT_PC_UPDATED, EXIT_INTERRUPT, EXIT_EXCEPTION):
                continue
            if status == EXIT_HALT:
                self._fast_forward_halt()
                continue
            raise ReproError(
                f"unexpected TB exit status {status}"
            ).attach_context(machine.diag_context(tb_pc=hex(tb.pc)))

    # -- fault recovery (the execute-time half of the ladder) ------------------

    def _recover(self, tb: TranslationBlock, snapshot, error,
                 rule: Optional[str] = None) -> None:
        """Roll back a faulted TB execution and degrade its translation.

        Only safe when the partial execution performed no non-idempotent
        work (MMIO, exception delivery) — otherwise the error propagates
        with diagnostics attached.
        """
        machine = self.machine
        if snapshot is None or machine.host.tb_side_effects:
            raise error.attach_context(machine.diag_context(
                tb_pc=hex(tb.pc),
                side_effects=machine.host.tb_side_effects))
        snapshot.restore(machine)
        if machine.tracer.enabled:
            machine.tracer.emit("ladder.recover", pc=tb.pc,
                                rule=rule or "",
                                reason=type(error).__name__)
        if rule is not None:
            self.ladder.quarantine_rule(rule, f"execute: {error}")
            self.cache.invalidate_rules([rule])
        else:
            self.ladder.demote(tb.pc, tb.mmu_idx)
        if self.cache.lookup(tb.pc, tb.mmu_idx) is tb:
            self.cache.invalidate(tb, machine.diag_context())
        self.ladder.recovered_faults += 1

    def _condemn_tb(self, tb: TranslationBlock, reason: str) -> None:
        """Quarantine a TB's rules and evict it (self-check failure)."""
        rules = sorted(tb.meta.get("rules_used") or ())
        newly = [rule for rule in rules
                 if self.ladder.quarantine_rule(rule, reason)]
        if rules:
            self.cache.invalidate_rules(rules)
        if self.cache.lookup(tb.pc, tb.mmu_idx) is tb:
            self.cache.invalidate(tb, self.machine.diag_context())
        if not newly:
            # No rule left to blame: degrade the whole block instead.
            self.ladder.demote(tb.pc, tb.mmu_idx)
        self.ladder.recovered_faults += 1

    # -- the interp tier -------------------------------------------------------

    def _execute_interp_tier(self, tb: TranslationBlock) -> None:
        """Execute one block with the reference interpreter.

        Architectural state flows env -> cpu, the interpreter steps
        until control leaves the block (branch, exception, halt, or the
        block's own length), and the result flows cpu -> env so the
        cpu_exec loop continues exactly as after a translated TB.
        """
        machine = self.machine
        runtime = machine.runtime
        cpu = machine.cpu
        interp = self._tier_interp
        runtime.env_to_cpu()
        tb.exec_count += 1
        if machine.profiler is not None:
            machine.profiler.on_enter((tb.pc, tb.mmu_idx))
        if machine.tracer.enabled:
            machine.tracer.emit("tb.enter", pc=tb.pc, tier="interp")
        end = tb.pc + 4 * tb.guest_insn_count
        mode = cpu.mode
        steps = 0
        while (tb.pc <= cpu.regs[PC] < end and steps < tb.guest_insn_count
               and not cpu.halted and cpu.mode == mode):
            before = interp.icount
            interp.step()
            machine.advance_time(max(interp.icount - before, 1))
            machine.host.charge(COST_INTERP_TIER_INSN, "interp_tier")
            steps += 1
        machine.host._profile_key = None
        runtime.cpu_to_env()
        if cpu.halted and not cpu.irq_line:
            fast_forward_halt(
                machine, lambda: not (cpu.halted and not cpu.irq_line))
            runtime.cpu_to_env()

    def _before_execute(self, tb: TranslationBlock) -> None:
        """Pre-charge guest time for the first TB of an execute() call."""
        self._on_tb_enter(tb)

    def _on_tb_enter(self, tb: TranslationBlock) -> None:
        tb.exec_count += 1
        machine = self.machine
        if machine.profiler is not None:
            machine.profiler.on_enter((tb.pc, tb.mmu_idx))
        if machine.tracer.enabled:
            machine.tracer.emit("tb.enter", pc=tb.pc,
                                tier=tb.meta.get("tier", "?"))
        machine.advance_time(tb.guest_insn_count)

    def _chain(self, tb: TranslationBlock, slot: int) -> None:
        """Patch a goto_tb slot (block chaining)."""
        machine = self.machine
        target_pc = machine.env.pc  # the exit stub stored it
        if tb.jmp_pc[slot] is not None and tb.jmp_pc[slot] == target_pc:
            next_tb = self.cache.lookup(target_pc, self.mmu_idx())
            if next_tb is None:
                try:
                    next_tb = self.get_tb(target_pc, self.mmu_idx())
                except (MemoryFault, DecodingError):
                    # Chaining is an optimization: let the run loop take
                    # the genuine guest fault on the unchained path.
                    return
                except InjectedFault:
                    # Transient translation fault while chaining: drop
                    # the chain attempt (the run loop retries later).
                    self.ladder.transient_faults += 1
                    self.ladder.recovered_faults += 1
                    return
            if next_tb.meta.get("injected") or \
                    next_tb.meta.get("tier") == "interp":
                # Never chain into a corrupted TB (its entry trap must
                # surface at a rollback-safe TB boundary) or an
                # interp-tier block (it has no host code to jump into).
                return
            tb.jmp_target[slot] = next_tb
            if machine.tracer.enabled:
                machine.tracer.emit("tb.chain", from_pc=tb.pc, slot=slot,
                                    to_pc=next_tb.pc)

    def _fast_forward_halt(self) -> None:
        machine = self.machine
        fast_forward_halt(machine, lambda: machine.env.read(ENV_IRQ))

    # -- statistics -------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        host = self.machine.host
        memory_dyn = system_dyn = check_dyn = 0
        for tb in self.cache.all_tbs():
            weight = tb.exec_count
            memory_dyn += weight * tb.meta.get("n_memory", 0)
            system_dyn += weight * tb.meta.get("n_system", 0)
            check_dyn += weight
        base = {
            "host_instructions": float(host.total),
            "host_cost": float(host.cost),
            "translation_cost": float(self.translation_cost),
            "tb_count": float(len(self.cache)),
            "static_guest_insns": float(self.cache.translated_guest_insns),
            "static_host_insns": float(self.cache.translated_host_insns),
            "memory_insns_dyn": float(memory_dyn),
            "system_insns_dyn": float(system_dyn),
            "interrupt_checks_dyn": float(check_dyn),
            "tb_invalidated": float(self.cache.invalidated),
            **{f"tag_{tag}": float(count)
               for tag, count in host.by_tag.items()},
        }
        return base

    def robustness_stats(self) -> Dict[str, float]:
        """Degradation-ladder / self-check counters (``robust.`` group).

        The machine itself publishes ``robust.watchdog_trips`` and the
        injection counters, so they are deliberately absent here."""
        base = self.ladder.stats()
        if self.selfcheck.enabled:
            base.update({
                "selfcheck_checks": float(self.selfcheck.checks),
                "selfcheck_failures": float(self.selfcheck.failures),
                "selfcheck_inconclusive":
                    float(self.selfcheck.inconclusive),
            })
        return base


class TcgEngine(DbtEngineBase):
    """The MiniQEMU baseline: ARM -> TCG IR -> x86."""

    name = "tcg"
