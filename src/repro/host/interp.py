"""Host x86 interpreter: executes generated host code and counts it.

Each executed :class:`~repro.host.isa.X86Insn` increments the total
dynamic instruction count and a per-tag counter; these counters are the
performance metric of every experiment (see
:mod:`repro.common.costmodel`).  Helper calls additionally charge the
modelled cost of the helper body via :meth:`charge`.

Block chaining is executed natively: a patched ``GOTO_TB`` continues
straight into the next TB's code (costing exactly the one jump
instruction), while an unpatched one exits to the cpu_exec loop.

Host code runs in one of two forms.  A TB's first entries are
interpreted one instruction at a time (:meth:`HostInterpreter._interpret`,
the semantics reference).  From its :data:`HOT_THRESHOLD`-th entry on,
the TB runs *compiled*: split once into basic blocks, each of which adds
its instruction and tag counts once and runs its body as one generated
Python function (:class:`_BodySource`), compiled once per distinct
source.  Both forms leave identical counters;
:meth:`HostInterpreter.execute` states the invariants.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional

from ..common.bitops import s32, u32
from ..common.errors import HostExecutionError, WatchdogTimeout
from ..observability.trace import NULL_TRACER
from .cpu import COND_EXPRS, COND_TESTS, HostCpu
from .isa import ECX, ESP, Imm, Mem, Reg, X86Insn, X86Op, Xmm
from ..common.f32 import f32_add, f32_mul, f32_sub

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_X86_ADC = X86Op.ADC
_X86_ADD = X86Op.ADD
_X86_AND = X86Op.AND
_X86_BSR = X86Op.BSR
_X86_CALL_HELPER = X86Op.CALL_HELPER
_X86_CLC = X86Op.CLC
_X86_CMC = X86Op.CMC
_X86_CMP = X86Op.CMP
_X86_DEC = X86Op.DEC
_X86_EXIT_TB = X86Op.EXIT_TB
_X86_GOTO_TB = X86Op.GOTO_TB
_X86_IMUL = X86Op.IMUL
_X86_INC = X86Op.INC
_X86_JCC = X86Op.JCC
_X86_JMP = X86Op.JMP
_X86_LAHF = X86Op.LAHF
_X86_LEA = X86Op.LEA
_X86_MOV = X86Op.MOV
_X86_MOVSS = X86Op.MOVSS
_X86_MOVSX = X86Op.MOVSX
_X86_MOVZX = X86Op.MOVZX
_X86_NEG = X86Op.NEG
_X86_NOPSLOT = X86Op.NOPSLOT
_X86_NOT = X86Op.NOT
_X86_OR = X86Op.OR
_X86_POP = X86Op.POP
_X86_POPFD = X86Op.POPFD
_X86_PUSH = X86Op.PUSH
_X86_PUSHFD = X86Op.PUSHFD
_X86_RCR = X86Op.RCR
_X86_ROR = X86Op.ROR
_X86_SAHF = X86Op.SAHF
_X86_SAR = X86Op.SAR
_X86_SBB = X86Op.SBB
_X86_SETCC = X86Op.SETCC
_X86_SHL = X86Op.SHL
_X86_SHR = X86Op.SHR
_X86_STC = X86Op.STC
_X86_SUB = X86Op.SUB
_X86_TEST = X86Op.TEST
_X86_XOR = X86Op.XOR

#: Hard cap on host instructions per execute() call (codegen-bug guard);
#: also the watchdog's default bound (repro.robustness.guard).
RUNAWAY_LIMIT = 5_000_000

#: Entry on which a TB starts running compiled.  Measured on the
#: generated cold-code programs: of 661 TBs, about 391 run once, 258
#: twice and 12 more often; compiling on the first entry made that
#: workload about 2.4x slower and 37% larger, on the second 1.6x
#: slower, on the eighth no faster.  SPEC-style hot loops enter their
#: TBs hundreds of times and lose nothing by the wait.
HOT_THRESHOLD = 3

_MASK = 0xFFFFFFFF

# Terminator kinds of a compiled basic block.
_NEXT = 0        # straight-line fall-through or JMP: continue at ``next``
_JCC = 1
_CALL = 2
_GOTO = 3
_EXIT = 4

_TERMINATORS = {X86Op.JMP: _NEXT, X86Op.JCC: _JCC, X86Op.CALL_HELPER: _CALL,
                X86Op.GOTO_TB: _GOTO, X86Op.EXIT_TB: _EXIT}

_SHIFTS_AND_ROTATES = (X86Op.SHL, X86Op.SHR, X86Op.SAR, X86Op.ROR,
                       X86Op.ROL, X86Op.RCR)
_SSE_ARITH = {X86Op.ADDSS: f32_add, X86Op.SUBSS: f32_sub,
              X86Op.MULSS: f32_mul}


@dataclass
class ExitInfo:
    """Why TB execution returned to the cpu_exec loop."""

    kind: str                 # always 'exit'
    status: int = 0           # EXIT_TB status value
    tb: Optional[object] = None
    #: (tb, slot) of an unpatched GOTO_TB the execution fell through —
    #: the cpu_exec loop patches it once the successor TB exists.
    chain: Optional[tuple] = None


class _Block:
    """One basic block of a compiled TB."""

    __slots__ = ("start", "count", "tags", "insn_tags", "body", "lines",
                 "kind", "insn", "pred", "next", "taken")

    def __init__(self, start: int, insns: List[X86Insn]):
        self.start = start                 # index of its first insn in tb.code
        self.count = len(insns)
        counts: dict = {}
        for insn in insns:
            counts[insn.tag] = counts.get(insn.tag, 0) + 1
        #: (tag, count) pairs in first-appearance order, which is the
        #: order the interpreter would create by_tag keys in.
        self.tags = tuple(counts.items())
        self.insn_tags = tuple(insn.tag for insn in insns)
        self.body = None                   # generated function, if any
        self.lines: tuple = ()             # its source line -> insn index
        self.insn = insns[-1]              # the terminator, when kind != _NEXT
        self.kind = _NEXT
        self.pred = None                   # JCC condition predicate
        self.next: Optional[_Block] = None     # None: falls off the TB end
        self.taken: Optional[_Block] = None    # JCC target


class HostInterpreter:
    """Executes host code blocks against a HostCpu + HostMemory."""

    def __init__(self, cpu: HostCpu, memory):
        self.cpu = cpu
        self.memory = memory
        self.total = 0                      # dynamic host instructions
        self.charged = 0                    # modelled helper/runtime cost
        self.by_tag = defaultdict(int)      # dynamic count per tag
        self.runtime = None                 # set by the machine (helpers ctx)
        #: called with the target TB on every chained goto_tb transition
        #: (lets the machine advance guest time without leaving the cache)
        self.on_tb_enter = None
        #: optional ExecutionWatchdog bounding host insns per execute()
        self.watchdog = None
        #: True once the current execute() call performed non-idempotent
        #: work (MMIO, exception delivery) — rollback+replay is then
        #: unsafe; the runtime sets this via note_side_effect().
        self.tb_side_effects = False
        #: Observability (repro.observability): the disabled defaults
        #: keep the hot loop's only overhead a None/False check.
        self.tracer = NULL_TRACER
        self.profiler = None
        #: (pc, mmu_idx) of the TB charges are attributed to, or None
        #: when cost is being charged outside any block.
        self._profile_key = None
        #: generated block source -> its code object (see _generate)
        self._codes: dict = {}

    def note_side_effect(self, kind: str = "") -> None:
        """Mark the current execute() call as non-replayable."""
        self.tb_side_effects = True

    # -- cost accounting ---------------------------------------------------------

    def charge(self, amount: int, tag: str = "runtime") -> None:
        """Charge modelled host instructions for non-generated work."""
        self.charged += amount
        self.by_tag[tag] += amount
        if self.profiler is not None:
            self.profiler.on_charge(self._profile_key, tag, amount)

    @property
    def cost(self) -> int:
        """Total cost: executed instructions plus modelled charges."""
        return self.total + self.charged

    # -- operand access ------------------------------------------------------------

    def _addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.cpu.regs[mem.base]
        if mem.index is not None:
            addr += self.cpu.regs[mem.index] * mem.scale
        return u32(addr)

    def _read(self, operand, size: int = 4) -> int:
        if isinstance(operand, Reg):
            return self.cpu.regs[operand.number]
        if isinstance(operand, Imm):
            return u32(operand.value)
        if isinstance(operand, Mem):
            return self.memory.read(self._addr(operand), operand.size)
        raise HostExecutionError(f"bad operand {operand!r}")

    def _write(self, operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.cpu.regs[operand.number] = u32(value)
        elif isinstance(operand, Mem):
            self.memory.write(self._addr(operand), value, operand.size)
        else:
            raise HostExecutionError(f"bad destination {operand!r}")

    # -- execution -------------------------------------------------------------------

    def execute(self, tb) -> ExitInfo:
        """Run *tb*, and every TB chained from it, until control returns
        to the cpu_exec loop.

        A TB entered fewer than :data:`HOT_THRESHOLD` times is
        interpreted; a hotter one runs compiled: as basic blocks whose
        bodies are generated functions, built once and kept on
        ``tb.compiled``.  Both forms keep these invariants, so
        ``total``, ``by_tag``, the profiler's tag map and the watchdog's
        ``trips`` are identical whichever form ran:

        - An instruction is counted before it runs.  A compiled block
          adds its whole count when it starts.
        - When the watchdog limit falls inside a compiled block, that
          block is interpreted from its first instruction, so the trip
          lands on the same instruction with the same counts.
        - When an instruction raises (``HostExecutionError`` on an
          unmapped address, or a helper's ``InjectedFault`` or
          ``TbExitException``), the counts cover exactly the
          instructions up to and including it: a compiled block takes
          back the counts of the instructions after the one its body's
          raising source line belongs to.  A body writes every flag
          before an instruction that can raise and at its end, so flags
          and registers are the interpreter's too.  Nothing rolls
          counters back further; ``MachineSnapshot`` does not either.
        - ``self.on_tb_enter``, ``self.runtime``, ``self.tracer`` and
          ``tb.jmp_target`` are read when used, never bound into compiled
          code, so rebinding them takes effect at once.  Compiled code
          binds this interpreter's ``cpu`` and ``memory``; a TB runs on
          the one interpreter of its machine.
        - TB-like objects without ``exec_count`` are always interpreted.

        Each call starts with ESP at the stack top: the host stack is
        empty between TBs, as after QEMU's ``cpu_loop_exit``, even when
        a helper left the previous call by raising between pushing its
        arguments and the code that pops them.
        """
        self.tb_side_effects = False
        self.cpu.regs[ESP] = self.cpu.stack_top
        limit = self.watchdog.max_host_insns if self.watchdog is not None \
            else RUNAWAY_LIMIT
        profiler = self.profiler
        if profiler is not None:
            self._profile_key = (tb.pc, tb.mmu_idx)
            prof_tags = profiler.tags_for(self._profile_key)
        else:
            prof_tags = None
        executed = 0
        pending_chain = None
        while True:
            entry = self._program_entry(tb)
            if entry is None:
                step = self._interpret(tb, 0, executed, pending_chain,
                                       limit, prof_tags)
            else:
                step = self._run_compiled(tb, entry, executed, pending_chain,
                                          limit, prof_tags)
            if type(step) is ExitInfo:
                return step
            # A patched GOTO_TB: continue straight into the next TB.
            tb, executed, pending_chain = step
            if prof_tags is not None:
                self._profile_key = (tb.pc, tb.mmu_idx)
                prof_tags = profiler.tags_for(self._profile_key)
            if self.on_tb_enter is not None:
                self.on_tb_enter(tb)

    def _interpret(self, tb, index: int, executed: int, pending_chain,
                   limit: int, prof_tags):
        """Interpret *tb* from instruction *index*: the semantics reference.

        Returns the :class:`ExitInfo`, or ``(next_tb, executed,
        pending_chain)`` when a patched GOTO_TB chains into another TB.
        """
        cpu = self.cpu
        insns = tb.code
        by_tag = self.by_tag
        step = self._step
        while True:
            if index >= len(insns):
                raise HostExecutionError(
                    f"fell off the end of TB 0x{tb.pc:08x}")
            insn = insns[index]
            index += 1
            executed += 1
            self.total += 1
            by_tag[insn.tag] += 1
            if prof_tags is not None:
                prof_tags[insn.tag] += 1
            if executed > limit:
                if self.watchdog is not None:
                    self.watchdog.trips += 1
                raise WatchdogTimeout(executed, limit, tb_pc=tb.pc)
            op = insn.op
            if op is _X86_JCC:
                if COND_TESTS[insn.cond](cpu):
                    index = insn.target_index
            elif op is _X86_JMP:
                index = insn.target_index
            elif op is _X86_CALL_HELPER:
                self._call_helper(tb, insn)
            elif op is _X86_GOTO_TB:
                target = tb.jmp_target[insn.imm]
                if target is not None:
                    return target, executed, pending_chain
                # Unpatched: fall through to the exit stub (QEMU's
                # initial goto_tb jumps to the next instruction).
                pending_chain = (tb, insn.imm)
            elif op is _X86_EXIT_TB:
                return ExitInfo("exit", status=insn.imm, tb=tb,
                                chain=pending_chain)
            else:
                step(insn)

    def _call_helper(self, tb, insn: X86Insn) -> None:
        if self.tracer.enabled:
            self.tracer.emit("helper.call", tb_pc=tb.pc,
                             helper=insn.helper.__name__)
        args = [self._read(arg) for arg in insn.helper_args]
        result = insn.helper(self.runtime, *args)
        if result is not None:
            self.cpu.regs[0] = u32(result)

    def _step(self, insn: X86Insn) -> None:  # noqa: C901 - op dispatch
        """Execute one non-control instruction."""
        cpu = self.cpu
        op = insn.op
        if op is _X86_MOV:
            self._write(insn.dst, self._read(insn.src))
        elif op is _X86_MOVZX:
            if isinstance(insn.src, Reg):
                value = cpu.regs[insn.src.number] & 0xFF
            else:
                value = self._read(insn.src)
            self._write(insn.dst, value)
        elif op is _X86_MOVSX:
            if isinstance(insn.src, Reg):
                value = cpu.regs[insn.src.number] & 0xFF
                width = 8
            else:
                value = self._read(insn.src)
                width = 8 * insn.src.size
            sign = 1 << (width - 1)
            self._write(insn.dst, (value & (sign - 1)) - (value & sign))
        elif op is _X86_LEA:
            self._write(insn.dst, self._addr(insn.src))
        elif op is _X86_ADD:
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                self._read(insn.src)))
        elif op is _X86_ADC:
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                self._read(insn.src),
                                                cpu.cf))
        elif op is _X86_SUB:
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                self._read(insn.src)))
        elif op is _X86_SBB:
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                self._read(insn.src),
                                                cpu.cf))
        elif op is _X86_CMP:
            cpu.flags_sub(self._read(insn.dst), self._read(insn.src))
        elif op is _X86_AND:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) &
                                                  self._read(insn.src)))
        elif op is _X86_OR:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) |
                                                  self._read(insn.src)))
        elif op is _X86_XOR:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) ^
                                                  self._read(insn.src)))
        elif op is _X86_TEST:
            cpu.flags_logic(self._read(insn.dst) & self._read(insn.src))
        elif op is _X86_NEG:
            value = self._read(insn.dst)
            self._write(insn.dst, cpu.flags_sub(0, value))
        elif op is _X86_NOT:
            self._write(insn.dst, ~self._read(insn.dst))
        elif op is _X86_INC:
            carry = cpu.cf
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst), 1))
            cpu.cf = carry  # INC preserves CF
        elif op is _X86_DEC:
            carry = cpu.cf
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst), 1))
            cpu.cf = carry  # DEC preserves CF
        elif op is _X86_IMUL:
            # Like flags_logic, IMUL here preserves CF/OF (ARM muls
            # leaves C/V unchanged); see DESIGN.md.
            product = s32(self._read(insn.dst)) * s32(self._read(insn.src))
            result = u32(product)
            cpu.set_nz(result)
            self._write(insn.dst, result)
        elif op in _SHIFTS_AND_ROTATES:
            self._shift(insn, op)
        elif op is _X86_BSR:
            value = self._read(insn.src)
            cpu.zf = 1 if value == 0 else 0
            if value:
                self._write(insn.dst, value.bit_length() - 1)
        elif op is _X86_PUSH:
            cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
            self.memory.write(cpu.regs[ESP], self._read(insn.src))
        elif op is _X86_POP:
            self._write(insn.dst, self.memory.read(cpu.regs[ESP], 4))
            cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
        elif op is _X86_PUSHFD:
            cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
            self.memory.write(cpu.regs[ESP], cpu.eflags)
        elif op is _X86_POPFD:
            cpu.eflags = self.memory.read(cpu.regs[ESP], 4)
            cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
        elif op is _X86_LAHF:
            flags_byte = ((cpu.sf << 7) | (cpu.zf << 6) | 0x02 | cpu.cf)
            cpu.regs[0] = (cpu.regs[0] & ~0xFF00 & 0xFFFFFFFF) | \
                (flags_byte << 8)
        elif op is _X86_SAHF:
            byte = (cpu.regs[0] >> 8) & 0xFF
            cpu.sf = (byte >> 7) & 1
            cpu.zf = (byte >> 6) & 1
            cpu.cf = byte & 1
        elif op is _X86_SETCC:
            bit_value = 1 if COND_TESTS[insn.cond](cpu) else 0
            if isinstance(insn.dst, Reg):
                number = insn.dst.number
                cpu.regs[number] = (cpu.regs[number] & ~0xFF &
                                    0xFFFFFFFF) | bit_value
            else:
                self._write(insn.dst, bit_value)
        elif op is _X86_CMC:
            cpu.cf ^= 1
        elif op is _X86_STC:
            cpu.cf = 1
        elif op is _X86_CLC:
            cpu.cf = 0
        elif op is _X86_NOPSLOT:
            pass
        elif op is _X86_MOVSS:
            if isinstance(insn.dst, Xmm):
                value = cpu.xmm[insn.src.number] \
                    if isinstance(insn.src, Xmm) \
                    else self.memory.read(self._addr(insn.src), 4)
                cpu.xmm[insn.dst.number] = value
            else:
                self.memory.write(self._addr(insn.dst),
                                  cpu.xmm[insn.src.number])
        elif op in _SSE_ARITH:
            left = cpu.xmm[insn.dst.number]
            right = cpu.xmm[insn.src.number] \
                if isinstance(insn.src, Xmm) \
                else self.memory.read(self._addr(insn.src), 4)
            cpu.xmm[insn.dst.number] = _SSE_ARITH[op](left, right)
        else:
            raise HostExecutionError(f"unimplemented host op {op}")

    def _shift(self, insn: X86Insn, op: X86Op) -> None:
        cpu = self.cpu
        value = self._read(insn.dst)
        if isinstance(insn.src, Imm):
            amount = insn.src.value & 31
        else:
            amount = cpu.regs[ECX] & 31
        if op is _X86_RCR:
            # Rotate through carry by one (used for ARM RRX).
            result = u32((value >> 1) | (cpu.cf << 31))
            cpu.cf = value & 1
            self._write(insn.dst, result)
            return
        if amount == 0:
            return
        if op is _X86_SHL:
            cpu.cf = (value >> (32 - amount)) & 1
            result = u32(value << amount)
        elif op is _X86_SHR:
            cpu.cf = (value >> (amount - 1)) & 1
            result = value >> amount
        elif op is _X86_SAR:
            signed = s32(value)
            cpu.cf = (signed >> (amount - 1)) & 1
            result = u32(signed >> amount)
        elif op is _X86_ROR:
            result = u32((value >> amount) | (value << (32 - amount)))
            cpu.cf = (result >> 31) & 1
        else:  # ROL
            result = u32((value << amount) | (value >> (32 - amount)))
            cpu.cf = result & 1
        cpu.set_nz(result)
        self._write(insn.dst, result)

    # -- compiled code: running it ---------------------------------------------------

    def _program_entry(self, tb) -> Optional[_Block]:
        """Entry block of *tb*'s compiled code, compiling it on the entry
        that makes the TB hot; None while *tb* is to be interpreted.
        ``tb.compiled`` keeps the entry block, or False for code that
        :meth:`_compile` leaves interpreted."""
        entry = getattr(tb, "compiled", None)
        if entry is None:
            if getattr(tb, "exec_count", 0) < HOT_THRESHOLD:
                return None
            entry = tb.compiled = self._compile(tb.code) or False
        return entry or None

    def _run_compiled(self, tb, block: _Block, executed: int, pending_chain,
                      limit: int, prof_tags):
        """Run *tb*'s compiled code from *block*; returns like
        :meth:`_interpret`."""
        cpu = self.cpu
        by_tag = self.by_tag
        while True:
            count = block.count
            if executed + count > limit:
                # The watchdog trips inside this block: step it with the
                # interpreter so the trip lands on the same instruction.
                return self._interpret(tb, block.start, executed,
                                       pending_chain, limit, prof_tags)
            executed += count
            self.total += count
            for tag, tag_count in block.tags:
                by_tag[tag] += tag_count
            if prof_tags is not None:
                for tag, tag_count in block.tags:
                    prof_tags[tag] += tag_count
            if block.body is not None:
                try:
                    block.body()
                except BaseException as error:
                    self._uncount(block, _raised_at(block, error) + 1,
                                  prof_tags)
                    raise
            kind = block.kind
            if kind == _JCC:
                block = block.taken if block.pred(cpu) else block.next
            elif kind == _NEXT:
                block = block.next
            elif kind == _GOTO:
                slot = block.insn.imm
                target = tb.jmp_target[slot]
                if target is not None:
                    return target, executed, pending_chain
                pending_chain = (tb, slot)
                block = block.next
            elif kind == _CALL:
                self._call_helper(tb, block.insn)
                block = block.next
            else:
                return ExitInfo("exit", status=block.insn.imm, tb=tb,
                                chain=pending_chain)
            if block is None:
                raise HostExecutionError(
                    f"fell off the end of TB 0x{tb.pc:08x}")

    def _uncount(self, block: _Block, ran: int, prof_tags) -> None:
        """Take back the counts of *block*'s instructions after its first
        *ran*, which never ran because the last of those raised."""
        skipped = block.insn_tags[ran:]
        self.total -= len(skipped)
        counters = [self.by_tag] if prof_tags is None \
            else [self.by_tag, prof_tags]
        for counter in counters:
            for tag in skipped:
                counter[tag] -= 1
            # A tag first counted by a skipped instruction must not
            # exist at all; charges never add zero, so zero means that.
            for tag in set(skipped):
                if counter[tag] == 0:
                    del counter[tag]

    # -- generated code: compiling it ------------------------------------------------

    def _compile(self, code: List[X86Insn]) -> Optional[_Block]:
        """Split *code* into basic blocks with generated bodies; returns
        the entry block, or None when a jump target is invalid (such code
        stays interpreted, so it fails exactly as the interpreter makes
        it)."""
        end = len(code)
        leaders = {0}
        for index, insn in enumerate(code):
            if insn.op in _TERMINATORS:
                leaders.add(index + 1)
            if insn.op is _X86_JMP or insn.op is _X86_JCC:
                if not 0 <= insn.target_index <= end:
                    return None
                leaders.add(insn.target_index)
        starts = sorted(leader for leader in leaders if leader < end)
        if not starts:
            return None
        bounds = starts[1:] + [end]
        blocks = {start: _Block(start, code[start:stop])
                  for start, stop in zip(starts, bounds)}
        for start, stop in zip(starts, bounds):
            block = blocks[start]
            block.next = blocks.get(stop)
            body = code[start:stop]
            last = body[-1]
            if last.op in _TERMINATORS:
                block.kind = _TERMINATORS[last.op]
                body = body[:-1]
            if body:
                block.body, block.lines = self._generate(body)
            if last.op is _X86_JMP:
                block.next = blocks.get(last.target_index)
            elif last.op is _X86_JCC:
                block.taken = blocks.get(last.target_index)
                block.pred = COND_TESTS[last.cond]
        return blocks[starts[0]]

    def _generate(self, insns: List[X86Insn]):
        """``(function, lines)`` running *insns*; ``lines[n]`` is the
        index of the instruction on source line *n*.  The code object is
        compiled once per distinct source and kept in ``self._codes``."""
        source = _BodySource(insns)
        text, lines = source.text()
        code = self._codes.get(text)
        if code is None:
            code = self._codes[text] = compile(text, "<host block>", "exec")
        namespace = {"R": self.cpu.regs, "C": self.cpu, "STEP": self._step,
                     "SITE": self._site, **_STRUCT, **source.names}
        exec(code, namespace)
        return namespace["body"], lines

    def _site(self, addr: int, size: int):
        """A memory site's new cached region ``(base, end - size, data)``;
        raises the interpreter's error when *addr* is unmapped."""
        base, end, data = self.memory._find(addr, size)
        return base, end - size, data


def _raised_at(block: _Block, error: BaseException) -> int:
    """Index of the instruction of *block* whose source line raised."""
    frame = error.__traceback__
    while frame.tb_frame.f_code is not block.body.__code__:
        frame = frame.tb_next
    return block.lines[frame.tb_lineno]


#: struct accessors the generated bodies name.
_STRUCT = {"U2": struct.Struct("<H").unpack_from,
           "U4": struct.Struct("<I").unpack_from,
           "P2": struct.Struct("<H").pack_into,
           "P4": struct.Struct("<I").pack_into}

_ALL_FLAGS = frozenset("czso")   # cf, zf, sf, of: cpu attribute <letter>f

_RM = (Reg, Mem)
_RIM = (Reg, Imm, Mem)
_ANY = None                     # an operand the op ignores

#: The ops the generator covers: op -> (dst kinds, src kinds, flags read,
#: flags written).  Any other op or operand kind runs ``STEP(insn)``.
_COVERED = {
    X86Op.MOV: (_RM, _RIM, "", ""), X86Op.MOVZX: (_RM, _RIM, "", ""),
    X86Op.LEA: ((Reg,), (Mem,), "", ""),
    X86Op.ADD: (_RM, _RIM, "", "czso"), X86Op.ADC: (_RM, _RIM, "c", "czso"),
    X86Op.SUB: (_RM, _RIM, "", "czso"), X86Op.SBB: (_RM, _RIM, "c", "czso"),
    X86Op.CMP: (_RIM, _RIM, "", "czso"), X86Op.TEST: (_RIM, _RIM, "", "zs"),
    X86Op.AND: (_RM, _RIM, "", "zs"), X86Op.OR: (_RM, _RIM, "", "zs"),
    X86Op.XOR: (_RM, _RIM, "", "zs"), X86Op.IMUL: (_RM, _RIM, "", "zs"),
    X86Op.NEG: (_RM, _ANY, "", "czso"), X86Op.NOT: (_RM, _ANY, "", ""),
    X86Op.INC: (_RM, _ANY, "", "zso"), X86Op.DEC: (_RM, _ANY, "", "zso"),
    X86Op.SHL: (_RM, (Imm,), "", "czs"), X86Op.SHR: (_RM, (Imm,), "", "czs"),
    X86Op.SAR: (_RM, (Imm,), "", "czs"),
    X86Op.PUSH: (_ANY, _RIM, "", ""), X86Op.POP: (_RM, _ANY, "", ""),
    X86Op.PUSHFD: (_ANY, _ANY, "czso", ""),
    X86Op.POPFD: (_ANY, _ANY, "", "czso"),
    X86Op.SETCC: (_RM, _ANY, "", ""), X86Op.CMC: (_ANY, _ANY, "c", "c"),
    X86Op.STC: (_ANY, _ANY, "", "c"), X86Op.CLC: (_ANY, _ANY, "", "c"),
    X86Op.NOPSLOT: (_ANY, _ANY, "", ""),
}
_SHIFTS = (X86Op.SHL, X86Op.SHR, X86Op.SAR)
_LOGIC = {X86Op.AND: "&", X86Op.TEST: "&", X86Op.OR: "|", X86Op.XOR: "^"}
_CARRY = {X86Op.CMC: "C.cf ^ 1", X86Op.STC: "1", X86Op.CLC: "0"}


def _flag_use(insn: X86Insn):
    """``(reads, writes, raises)`` of *insn*, or None when it is stepped."""
    covered = _COVERED.get(insn.op)
    if covered is None:
        return None
    dst_kinds, src_kinds, reads, writes = covered
    for operand, kinds in ((insn.dst, dst_kinds), (insn.src, src_kinds)):
        if kinds is not None and type(operand) not in kinds:
            return None
    if insn.op is _X86_SETCC:
        expr = COND_EXPRS[insn.cond]
        reads = [flag for flag in "czso" if f"C.{flag}f" in expr]
    elif insn.op in _SHIFTS and not insn.src.value & 31:
        writes = ""                  # a zero count changes nothing
    raises = insn.op in (_X86_PUSH, _X86_POP, _X86_PUSHFD, _X86_POPFD) \
        or insn.op is not _X86_LEA and Mem in (type(insn.dst), type(insn.src))
    return frozenset(reads), frozenset(writes), raises


class _BodySource:
    """Python source of one basic block's body, and the globals it names.

    Operands, sizes, shift counts and conditions are resolved into the
    text.  Immediates, displacements and stepped instructions are
    globals ``K<n>``/``I<n>``, so bodies that differ only in them share
    one source.  Each memory operand is a *site*: its globals ``B<n>``,
    ``E<n>``, ``A<n>`` cache ``(base, end - size, data)`` of the region
    it last hit, refilled through ``SITE`` on a miss.

    A flag write is emitted only when the flag is live after it.  Every
    flag is live at the block's end (the watchdog may interpret the next
    block) and before an instruction that can raise (a memory access or
    a stepped instruction), so a fault leaves the flags the interpreter
    leaves.
    """

    def __init__(self, insns: List[X86Insn]):
        self.names: dict = {}
        self.body: List[str] = []
        self.at: List[int] = []       # instruction index of each body line
        self.sites = 0
        uses = [_flag_use(insn) for insn in insns]
        live, live_after = _ALL_FLAGS, []
        for use in reversed(uses):
            live_after.append(live)
            live = _ALL_FLAGS if use is None or use[2] \
                else (live - use[1]) | use[0]
        for self.index, (insn, use, live) in enumerate(
                zip(insns, uses, reversed(live_after))):
            if use is None:
                self.line(f"STEP({self.name('I', insn)})")
            else:
                emit = getattr(self, "_" + insn.op._name_.lower())
                emit(insn, use[1] & live)

    def text(self):
        """``(source, lines)``: *lines* maps a source line number to the
        index of the instruction it belongs to."""
        head = ["def body():"]
        if self.sites:
            head.append(" global " + ", ".join(
                f"B{k}, E{k}, A{k}" for k in range(self.sites)))
        lines = (-1,) * (len(head) + 1) + tuple(self.at)
        return "\n".join(head + (self.body or [" pass"])) + "\n", lines

    # Building blocks.

    def line(self, text: str) -> None:
        self.body.append(" " + text)
        self.at.append(self.index)

    def name(self, prefix: str, value) -> str:
        name = f"{prefix}{len(self.names)}"
        self.names[name] = value
        return name

    def site(self, addr: str, size: int) -> int:
        """Emit the cache check of a new site at *addr*; its number."""
        k = self.sites
        self.sites += 1
        self.names.update({f"B{k}": 0, f"E{k}": -1, f"A{k}": None})
        self.line(f"a{k} = {addr}")
        self.line(f"if not B{k} <= a{k} <= E{k}: "
                  f"B{k}, E{k}, A{k} = SITE(a{k}, {size})")
        return k

    def addr(self, mem: Mem) -> str:
        terms = [] if mem.base is None else [f"R[{mem.base}]"]
        if mem.index is not None:
            terms.append(f"R[{mem.index}] * {mem.scale}")
        if not terms:
            return self.name("K", u32(mem.disp))
        return f"({' + '.join(terms)} + {self.name('K', mem.disp)}) & {_MASK}"

    def value(self, operand) -> str:
        """An expression for a Reg/Imm/Mem operand's value; a memory
        operand's site is checked here, before anything else runs."""
        if type(operand) is Reg:
            return f"R[{operand.number}]"
        if type(operand) is Imm:
            return self.name("K", u32(operand.value))
        return self.load(self.site(self.addr(operand), operand.size),
                         operand.size)

    @staticmethod
    def load(k: int, size: int) -> str:
        if size == 1:
            return f"A{k}[a{k} - B{k}]"
        return f"U{size}(A{k}, a{k} - B{k})[0]"

    def store(self, operand, expr: str, k: Optional[int] = None) -> None:
        """Write the u32 *expr* to a Reg/Mem operand; *k* is the site the
        operand was already read through."""
        if type(operand) is Reg:
            self.line(f"R[{operand.number}] = {expr}")
            return
        if k is None:
            k = self.site(self.addr(operand), operand.size)
        if operand.size == 1:
            self.line(f"A{k}[a{k} - B{k}] = ({expr}) & 255")
        else:
            mask = "" if operand.size == 4 else " & 65535"
            self.line(f"P{operand.size}(A{k}, a{k} - B{k}, ({expr}){mask})")

    def flags(self, writes, **exprs) -> None:
        """Set the flags in *writes*; Z and N default to result ``r``'s."""
        exprs = {"z": "0 if r else 1", "s": "r >> 31", **exprs}
        for flag in sorted(writes):
            self.line(f"C.{flag}f = {exprs[flag]}")

    def result(self, insn: X86Insn, writes, expr: str, k, **exprs) -> None:
        """Set *writes* from result ``r`` = *expr*, then store it unless
        *insn* only compares."""
        if writes:
            self.line(f"r = {expr}")
            self.flags(writes, **exprs)
            expr = "r"
        if insn.op not in (_X86_CMP, _X86_TEST):
            self.store(insn.dst, expr, k)

    def target(self, insn: X86Insn):
        """``(site or None, value)`` of *insn*'s destination."""
        k = self.sites if type(insn.dst) is Mem else None
        return k, self.value(insn.dst)

    def operands(self, insn: X86Insn):
        """``(dst site or None, dst value, src value)``."""
        return (*self.target(insn), self.value(insn.src))

    # One emitter per covered op; the op selects the variant.

    def _mov(self, insn, writes):
        self.store(insn.dst, self.value(insn.src))

    def _movzx(self, insn, writes):
        self.store(insn.dst, f"R[{insn.src.number}] & 255"
                   if type(insn.src) is Reg else self.value(insn.src))

    def _lea(self, insn, writes):
        self.store(insn.dst, self.addr(insn.src))

    def _add(self, insn, writes):
        k, a, b = self.operands(insn)
        carry = " + C.cf" if insn.op is _X86_ADC else ""
        total = f"{a} + {b}{carry}"
        if writes:
            self.line(f"x = {a}; y = {b}; t = x + y{carry}")
            total = "t"
        self.result(insn, writes, f"({total}) & {_MASK}", k, c="t >> 32",
                    o="(~(x ^ y) & (x ^ r)) >> 31")

    def _sub(self, insn, writes):
        k, a, b = self.operands(insn)
        borrow = " + C.cf" if insn.op is _X86_SBB else ""
        subtrahend = "t" if borrow else "y"
        if writes:
            self.line(f"x = {a}; y = {b}; t = y{borrow}" if borrow
                      else f"x = {a}; y = {b}")
            a, b, borrow = "x", subtrahend, ""
        self.result(insn, writes, f"({a} - ({b}{borrow})) & {_MASK}", k,
                    c=f"1 if {subtrahend} > x else 0",
                    o="((x ^ y) & (x ^ r)) >> 31")

    def _and(self, insn, writes):
        k, a, b = self.operands(insn)
        self.result(insn, writes, f"{a} {_LOGIC[insn.op]} {b}", k)

    def _imul(self, insn, writes):
        # u32(s32(a) * s32(b)) == u32(a * b).
        k, a, b = self.operands(insn)
        self.result(insn, writes, f"{a} * {b} & {_MASK}", k)

    def _neg(self, insn, writes):
        k, value = self.target(insn)
        self.line(f"x = {value}")
        self.result(insn, writes, f"-x & {_MASK}", k, c="1 if x else 0",
                    o="(x & r) >> 31")

    def _not(self, insn, writes):
        k, value = self.target(insn)
        self.store(insn.dst, f"{value} ^ {_MASK}", k)

    def _inc(self, insn, writes):
        k, value = self.target(insn)
        step, overflow = ("+", 0x80000000) if insn.op is _X86_INC \
            else ("-", 0x7FFFFFFF)
        self.result(insn, writes, f"({value} {step} 1) & {_MASK}", k,
                    o=f"1 if r == {overflow} else 0")

    def _shl(self, insn, writes):
        k, value = self.target(insn)   # read even when the count is zero
        count = insn.src.value & 31
        if not count:
            return
        op = insn.op
        self.line(f"x = ({value} ^ 2147483648) - 2147483648"
                  if op is _X86_SAR else f"x = {value}")
        expr = f"(x << {count}) & {_MASK}" if op is _X86_SHL \
            else f"(x >> {count}) & {_MASK}"
        carry = f"(x >> {32 - count}) & 1" if op is _X86_SHL \
            else f"(x >> {count - 1}) & 1"
        self.result(insn, writes, expr, k, c=carry)

    def _push(self, insn, writes):
        # ESP moves first: a [esp + d] source sees the new value.
        esp = f"R[{ESP}]"
        self.line(f"{esp} = ({esp} - 4) & {_MASK}")
        value = self.value(insn.src) if insn.op is _X86_PUSH \
            else "C.cf | C.zf << 6 | C.sf << 7 | C.of << 11 | 2"
        k = self.site(esp, 4)
        self.line(f"P4(A{k}, a{k} - B{k}, {value})")

    def _pop(self, insn, writes):
        # The destination is written before ESP moves (pop [esp + d]).
        esp = f"R[{ESP}]"
        value = self.load(self.site(esp, 4), 4)
        if insn.op is _X86_POP:
            self.store(insn.dst, value)
        else:
            self.line(f"v = {value}")
            self.flags(writes, c="v & 1", z="v >> 6 & 1", s="v >> 7 & 1",
                       o="v >> 11 & 1")
        self.line(f"{esp} = ({esp} + 4) & {_MASK}")

    def _setcc(self, insn, writes):
        bit = f"(1 if {COND_EXPRS[insn.cond]} else 0)"
        if type(insn.dst) is Reg:
            reg = f"R[{insn.dst.number}]"
            self.line(f"{reg} = {reg} & 0xFFFFFF00 | {bit}")
        else:
            self.store(insn.dst, bit)

    def _carry(self, insn, writes):
        # NOPSLOT writes no flag, so it emits nothing.
        self.flags(writes, c=_CARRY.get(insn.op))

    _adc = _add
    _sbb = _cmp = _sub
    _or = _xor = _test = _and
    _dec = _inc
    _shr = _sar = _shl
    _pushfd = _push
    _popfd = _pop
    _cmc = _stc = _clc = _nopslot = _carry
