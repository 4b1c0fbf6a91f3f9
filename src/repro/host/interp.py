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
the TB runs as *threaded code*: compiled once into basic blocks of
pre-bound closures that add their instruction and tag counts once per
block instead of once per instruction.  Both forms leave identical
counters; :meth:`HostInterpreter.execute` states the invariants.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..common.bitops import s32, u32
from ..common.errors import HostExecutionError, WatchdogTimeout
from ..observability.trace import NULL_TRACER
from .cpu import COND_TESTS, HostCpu
from .isa import (ECX, ESP, Imm, Mem, Reg, X86Insn, X86Op, Xmm)
from ..common.f32 import f32_add, f32_mul, f32_sub

#: Hard cap on host instructions per TB execution (codegen-bug guard).
_RUNAWAY_LIMIT = 5_000_000

#: Entry on which a TB starts running as threaded code.  Measured on
#: the generated cold-code programs: of 661 TBs, about 391 run once, 258
#: twice and 12 more often, and compiling on the first entry made that
#: workload about 37% slower and 16% larger.  SPEC-style hot loops
#: enter their TBs hundreds of times and lose nothing by the wait.
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

    __slots__ = ("start", "count", "tags", "insn_tags", "body", "kind",
                 "insn", "pred", "next", "taken")

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
        self.body: tuple = ()
        self.insn = insns[-1]              # the terminator, when kind != _NEXT
        self.kind = _NEXT
        self.pred = None                   # JCC condition predicate
        self.next: Optional[_Block] = None     # None: falls off the TB end
        self.taken: Optional[_Block] = None    # JCC target


class _Program:
    """A TB's threaded code, tagged with the interpreter it is bound to."""

    __slots__ = ("owner", "entry")

    def __init__(self, owner: "HostInterpreter", entry: Optional[_Block]):
        self.owner = owner
        self.entry = entry                 # None: the TB stays interpreted


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
        interpreted; a hotter one runs as threaded code compiled once and
        kept on ``tb.compiled``.  Both forms keep these invariants, so
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
          back the counts of the instructions after it.  Nothing rolls
          counters back further; ``MachineSnapshot`` does not either.
        - ``self.on_tb_enter``, ``self.runtime``, ``self.tracer`` and
          ``tb.jmp_target`` are read when used, never bound into a
          program, so rebinding them takes effect at once.  A program
          binds only this interpreter's ``cpu`` and ``memory``, and a TB
          whose program another interpreter built (the self-check
          sandbox's copy) runs interpreted.
        - TB-like objects without ``exec_count`` are always interpreted.
        """
        self.tb_side_effects = False
        limit = self.watchdog.max_host_insns if self.watchdog is not None \
            else _RUNAWAY_LIMIT
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
            if op is X86Op.JCC:
                if COND_TESTS[insn.cond](cpu):
                    index = insn.target_index
            elif op is X86Op.JMP:
                index = insn.target_index
            elif op is X86Op.CALL_HELPER:
                self._call_helper(tb, insn)
            elif op is X86Op.GOTO_TB:
                target = tb.jmp_target[insn.imm]
                if target is not None:
                    return target, executed, pending_chain
                # Unpatched: fall through to the exit stub (QEMU's
                # initial goto_tb jumps to the next instruction).
                pending_chain = (tb, insn.imm)
            elif op is X86Op.EXIT_TB:
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
        if op is X86Op.MOV:
            self._write(insn.dst, self._read(insn.src))
        elif op is X86Op.MOVZX:
            if isinstance(insn.src, Reg):
                value = cpu.regs[insn.src.number] & 0xFF
            else:
                value = self._read(insn.src)
            self._write(insn.dst, value)
        elif op is X86Op.MOVSX:
            if isinstance(insn.src, Reg):
                value = cpu.regs[insn.src.number] & 0xFF
                width = 8
            else:
                value = self._read(insn.src)
                width = 8 * insn.src.size
            sign = 1 << (width - 1)
            self._write(insn.dst, (value & (sign - 1)) - (value & sign))
        elif op is X86Op.LEA:
            self._write(insn.dst, self._addr(insn.src))
        elif op is X86Op.ADD:
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                self._read(insn.src)))
        elif op is X86Op.ADC:
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                self._read(insn.src),
                                                cpu.cf))
        elif op is X86Op.SUB:
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                self._read(insn.src)))
        elif op is X86Op.SBB:
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                self._read(insn.src),
                                                cpu.cf))
        elif op is X86Op.CMP:
            cpu.flags_sub(self._read(insn.dst), self._read(insn.src))
        elif op is X86Op.AND:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) &
                                                  self._read(insn.src)))
        elif op is X86Op.OR:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) |
                                                  self._read(insn.src)))
        elif op is X86Op.XOR:
            self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) ^
                                                  self._read(insn.src)))
        elif op is X86Op.TEST:
            cpu.flags_logic(self._read(insn.dst) & self._read(insn.src))
        elif op is X86Op.NEG:
            value = self._read(insn.dst)
            self._write(insn.dst, cpu.flags_sub(0, value))
        elif op is X86Op.NOT:
            self._write(insn.dst, ~self._read(insn.dst))
        elif op is X86Op.INC:
            carry = cpu.cf
            self._write(insn.dst, cpu.flags_add(self._read(insn.dst), 1))
            cpu.cf = carry  # INC preserves CF
        elif op is X86Op.DEC:
            carry = cpu.cf
            self._write(insn.dst, cpu.flags_sub(self._read(insn.dst), 1))
            cpu.cf = carry  # DEC preserves CF
        elif op is X86Op.IMUL:
            # Like flags_logic, IMUL here preserves CF/OF (ARM muls
            # leaves C/V unchanged); see DESIGN.md.
            product = s32(self._read(insn.dst)) * s32(self._read(insn.src))
            result = u32(product)
            cpu.set_nz(result)
            self._write(insn.dst, result)
        elif op in (X86Op.SHL, X86Op.SHR, X86Op.SAR, X86Op.ROR,
                    X86Op.ROL, X86Op.RCR):
            self._shift(insn, op)
        elif op is X86Op.BSR:
            value = self._read(insn.src)
            cpu.zf = 1 if value == 0 else 0
            if value:
                self._write(insn.dst, value.bit_length() - 1)
        elif op is X86Op.PUSH:
            cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
            self.memory.write(cpu.regs[ESP], self._read(insn.src))
        elif op is X86Op.POP:
            self._write(insn.dst, self.memory.read(cpu.regs[ESP], 4))
            cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
        elif op is X86Op.PUSHFD:
            cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
            self.memory.write(cpu.regs[ESP], cpu.eflags)
        elif op is X86Op.POPFD:
            cpu.eflags = self.memory.read(cpu.regs[ESP], 4)
            cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
        elif op is X86Op.LAHF:
            flags_byte = ((cpu.sf << 7) | (cpu.zf << 6) | 0x02 | cpu.cf)
            cpu.regs[0] = (cpu.regs[0] & ~0xFF00 & 0xFFFFFFFF) | \
                (flags_byte << 8)
        elif op is X86Op.SAHF:
            byte = (cpu.regs[0] >> 8) & 0xFF
            cpu.sf = (byte >> 7) & 1
            cpu.zf = (byte >> 6) & 1
            cpu.cf = byte & 1
        elif op is X86Op.SETCC:
            bit_value = 1 if COND_TESTS[insn.cond](cpu) else 0
            if isinstance(insn.dst, Reg):
                number = insn.dst.number
                cpu.regs[number] = (cpu.regs[number] & ~0xFF &
                                    0xFFFFFFFF) | bit_value
            else:
                self._write(insn.dst, bit_value)
        elif op is X86Op.CMC:
            cpu.cf ^= 1
        elif op is X86Op.STC:
            cpu.cf = 1
        elif op is X86Op.CLC:
            cpu.cf = 0
        elif op is X86Op.NOPSLOT:
            pass
        elif op is X86Op.MOVSS:
            if isinstance(insn.dst, Xmm):
                value = cpu.xmm[insn.src.number] \
                    if isinstance(insn.src, Xmm) \
                    else self.memory.read(self._addr(insn.src), 4)
                cpu.xmm[insn.dst.number] = value
            else:
                self.memory.write(self._addr(insn.dst),
                                  cpu.xmm[insn.src.number])
        elif op in (X86Op.ADDSS, X86Op.SUBSS, X86Op.MULSS):
            left = cpu.xmm[insn.dst.number]
            right = cpu.xmm[insn.src.number] \
                if isinstance(insn.src, Xmm) \
                else self.memory.read(self._addr(insn.src), 4)
            table = {X86Op.ADDSS: f32_add, X86Op.SUBSS: f32_sub,
                     X86Op.MULSS: f32_mul}
            cpu.xmm[insn.dst.number] = table[op](left, right)
        else:
            raise HostExecutionError(f"unimplemented host op {op}")

    def _shift(self, insn: X86Insn, op: X86Op) -> None:
        cpu = self.cpu
        value = self._read(insn.dst)
        if isinstance(insn.src, Imm):
            amount = insn.src.value & 31
        else:
            amount = cpu.regs[ECX] & 31
        if op is X86Op.RCR:
            # Rotate through carry by one (used for ARM RRX).
            result = u32((value >> 1) | (cpu.cf << 31))
            cpu.cf = value & 1
            self._write(insn.dst, result)
            return
        if amount == 0:
            return
        if op is X86Op.SHL:
            cpu.cf = (value >> (32 - amount)) & 1
            result = u32(value << amount)
        elif op is X86Op.SHR:
            cpu.cf = (value >> (amount - 1)) & 1
            result = value >> amount
        elif op is X86Op.SAR:
            signed = s32(value)
            cpu.cf = (signed >> (amount - 1)) & 1
            result = u32(signed >> amount)
        elif op is X86Op.ROR:
            result = u32((value >> amount) | (value << (32 - amount)))
            cpu.cf = (result >> 31) & 1
        else:  # ROL
            result = u32((value << amount) | (value >> (32 - amount)))
            cpu.cf = result & 1
        cpu.set_nz(result)
        self._write(insn.dst, result)

    # -- threaded code: running it ---------------------------------------------------

    def _program_entry(self, tb) -> Optional[_Block]:
        """Entry block of *tb*'s threaded code, compiling it on the entry
        that makes the TB hot; None while *tb* is to be interpreted."""
        program = getattr(tb, "compiled", None)
        if program is None:
            if getattr(tb, "exec_count", 0) < HOT_THRESHOLD:
                return None
            program = tb.compiled = _Program(self, self._compile(tb.code))
        return program.entry if program.owner is self else None

    def _run_compiled(self, tb, block: _Block, executed: int, pending_chain,
                      limit: int, prof_tags):
        """Run *tb*'s threaded code from *block*; returns like
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
            body = block.body
            if body:
                try:
                    for fn in body:
                        fn()
                except BaseException:
                    # Closures are distinct objects, so the one still
                    # bound to ``fn`` locates the raising instruction.
                    self._uncount(block, body.index(fn) + 1, prof_tags)
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

    # -- threaded code: compiling it -------------------------------------------------

    def _compile(self, code: List[X86Insn]) -> Optional[_Block]:
        """Split *code* into basic blocks of closures; returns the entry
        block, or None when a jump target is invalid (such code stays
        interpreted, so it fails exactly as the interpreter makes it)."""
        end = len(code)
        leaders = {0}
        for index, insn in enumerate(code):
            if insn.op in _TERMINATORS:
                leaders.add(index + 1)
            if insn.op is X86Op.JMP or insn.op is X86Op.JCC:
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
            block.body = tuple(self._compile_insn(insn) for insn in body)
            if last.op is X86Op.JMP:
                block.next = blocks.get(last.target_index)
            elif last.op is X86Op.JCC:
                block.taken = blocks.get(last.target_index)
                block.pred = COND_TESTS[last.cond]
        return blocks[starts[0]]

    def _compile_insn(self, insn: X86Insn) -> Callable[[], None]:
        """A closure running one non-control instruction.

        The hot ops on their common operand kinds get their own
        implementation; everything else calls the interpreter's step.
        """
        op, dst, src = insn.op, insn.dst, insn.src
        fast = None
        if op is X86Op.MOV:
            fast = self._compile_mov(dst, src)
        elif op is X86Op.LEA:
            fast = self._compile_lea(dst, src)
        elif op in _ALU_OPS:
            fast = self._compile_alu(op, dst, src)
        elif op is X86Op.SHL or op is X86Op.SHR or op is X86Op.SAR:
            fast = self._compile_shift(op, dst, src)
        elif op is X86Op.PUSH:
            fast = self._compile_push(src)
        elif op is X86Op.POP:
            fast = self._compile_pop(dst)
        elif op is X86Op.SETCC:
            fast = self._compile_setcc(insn.cond, dst)
        return fast if fast is not None else partial(self._step, insn)

    # Operand access, resolved at compile time.  Each helper returns None
    # for an operand kind it does not handle; the caller then falls back
    # to the interpreter's step, which raises the interpreter's errors.

    def _address_of(self, mem: Mem) -> Callable[[], int]:
        regs = self.cpu.regs
        base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
        if index is None:
            if base is None:
                addr = u32(disp)
                return lambda: addr
            return lambda: (regs[base] + disp) & _MASK
        if base is None:
            return lambda: (regs[index] * scale + disp) & _MASK
        return lambda: (regs[base] + regs[index] * scale + disp) & _MASK

    def _reader(self, operand) -> Optional[Callable[[], int]]:
        kind = type(operand)
        if kind is Reg:
            regs, number = self.cpu.regs, operand.number
            return lambda: regs[number]
        if kind is Imm:
            value = u32(operand.value)
            return lambda: value
        if kind is Mem:
            address, read, size = (self._address_of(operand),
                                   self.memory.read, operand.size)
            return lambda: read(address(), size)
        return None

    def _writer(self, operand) -> Optional[Callable[[int], None]]:
        kind = type(operand)
        if kind is Reg:
            regs, number = self.cpu.regs, operand.number

            def write_reg(value: int) -> None:
                regs[number] = value & _MASK
            return write_reg
        if kind is Mem:
            address, write, size = (self._address_of(operand),
                                    self.memory.write, operand.size)
            return lambda value: write(address(), value, size)
        return None

    def _slot(self, operand):
        """``(array, index)`` holding a Reg or Imm operand's value, so a
        closure reads either kind as ``array[index]`` without a call."""
        if type(operand) is Reg:
            return self.cpu.regs, operand.number
        if type(operand) is Imm:
            return [u32(operand.value)], 0
        return None

    @staticmethod
    def _base_disp(operand):
        """``(base, disp, size)`` of a ``[base + disp]`` memory operand."""
        if type(operand) is Mem and operand.index is None and \
                operand.base is not None:
            return operand.base, operand.disp, operand.size
        return None

    # Specialised closures for the hot ops.

    def _compile_mov(self, dst, src):
        regs = self.cpu.regs
        source = self._slot(src)
        if type(dst) is Reg:
            target = dst.number
            if source is not None:
                values, index = source

                def mov_reg():
                    regs[target] = values[index]
                return mov_reg
            mem = self._base_disp(src)
            if mem is not None:
                base, disp, size = mem
                read = self.memory.read

                def load():
                    regs[target] = read((regs[base] + disp) & _MASK, size)
                return load
        mem = self._base_disp(dst)
        if mem is not None and source is not None:
            base, disp, size = mem
            values, index = source
            write = self.memory.write

            def store():
                write((regs[base] + disp) & _MASK, values[index], size)
            return store
        read, write_to = self._reader(src), self._writer(dst)
        if read is None or write_to is None:
            return None
        return lambda: write_to(read())

    def _compile_lea(self, dst, src):
        if type(dst) is not Reg or type(src) is not Mem:
            return None
        regs, target = self.cpu.regs, dst.number
        mem = self._base_disp(src)
        if mem is not None:
            base, disp, _ = mem

            def lea():
                regs[target] = (regs[base] + disp) & _MASK
            return lea
        address = self._address_of(src)

        def lea_any():
            regs[target] = address()
        return lea_any

    def _compile_alu(self, op, dst, src):
        cpu = self.cpu
        regs = cpu.regs
        source = self._slot(src)
        if type(dst) is not Reg or source is None:
            # Memory operands: read, combine with the shared flag
            # helpers, write back.
            read_dst, read_src = self._reader(dst), self._reader(src)
            if read_dst is None or read_src is None:
                return None
            combine = _ALU_OPS[op]
            if op is X86Op.CMP or op is X86Op.TEST:
                return lambda: combine(cpu, read_dst(), read_src())
            write_dst = self._writer(dst)
            if write_dst is None:
                return None
            return lambda: write_dst(combine(cpu, read_dst(), read_src()))
        target = dst.number
        values, index = source
        if op is X86Op.ADD:
            def add():
                a = regs[target]
                b = values[index]
                total = a + b
                result = total & _MASK
                regs[target] = result
                cpu.cf = 1 if total > _MASK else 0
                cpu.of = (~(a ^ b) & (a ^ result)) >> 31
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
            return add
        if op is X86Op.SUB or op is X86Op.CMP:
            write_back = op is X86Op.SUB

            def sub():
                a = regs[target]
                b = values[index]
                result = (a - b) & _MASK
                if write_back:
                    regs[target] = result
                cpu.cf = 1 if b > a else 0
                cpu.of = ((a ^ b) & (a ^ result)) >> 31
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
            return sub
        # AND/OR/XOR/TEST set N/Z only (see HostCpu.flags_logic).
        if op is X86Op.AND or op is X86Op.TEST:
            write_back = op is X86Op.AND

            def and_():
                result = regs[target] & values[index]
                if write_back:
                    regs[target] = result
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
            return and_
        if op is X86Op.OR:
            def or_():
                result = regs[target] | values[index]
                regs[target] = result
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
            return or_

        def xor():
            result = regs[target] ^ values[index]
            regs[target] = result
            cpu.zf = 1 if result == 0 else 0
            cpu.sf = result >> 31
        return xor

    def _compile_shift(self, op, dst, src):
        if type(dst) is not Reg or type(src) is not Imm:
            return None
        cpu = self.cpu
        regs, target = cpu.regs, dst.number
        amount = src.value & 31
        if amount == 0:
            return lambda: None              # flags and value unchanged
        if op is X86Op.SHL:
            def shl():
                value = regs[target]
                cpu.cf = (value >> (32 - amount)) & 1
                result = (value << amount) & _MASK
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
                regs[target] = result
            return shl
        if op is X86Op.SHR:
            def shr():
                value = regs[target]
                cpu.cf = (value >> (amount - 1)) & 1
                result = value >> amount
                cpu.zf = 1 if result == 0 else 0
                cpu.sf = result >> 31
                regs[target] = result
            return shr

        def sar():
            signed = s32(regs[target])
            cpu.cf = (signed >> (amount - 1)) & 1
            result = (signed >> amount) & _MASK
            cpu.zf = 1 if result == 0 else 0
            cpu.sf = result >> 31
            regs[target] = result
        return sar

    def _compile_push(self, src):
        regs, write = self.cpu.regs, self.memory.write
        source = self._slot(src)
        if source is not None:
            values, index = source

            def push():
                regs[ESP] = (regs[ESP] - 4) & _MASK
                write(regs[ESP], values[index])
            return push
        read = self._reader(src)
        if read is None:
            return None

        def push_any():
            # ESP moves first: a [esp + d] source sees the new value.
            regs[ESP] = (regs[ESP] - 4) & _MASK
            write(regs[ESP], read())
        return push_any

    def _compile_pop(self, dst):
        regs, read = self.cpu.regs, self.memory.read
        write_dst = self._writer(dst)
        if write_dst is None:
            return None

        def pop():
            # The destination is written before ESP moves (pop [esp + d]).
            write_dst(read(regs[ESP], 4))
            regs[ESP] = (regs[ESP] + 4) & _MASK
        return pop

    def _compile_setcc(self, cond, dst):
        cpu = self.cpu
        pred = COND_TESTS[cond]
        if type(dst) is Reg:
            regs, target = cpu.regs, dst.number

            def setcc():
                regs[target] = (regs[target] & 0xFFFFFF00) | \
                    (1 if pred(cpu) else 0)
            return setcc
        write_dst = self._writer(dst)
        if write_dst is None:
            return None
        return lambda: write_dst(1 if pred(cpu) else 0)


#: ALU ops with a compiled form, each mapped to its combine step over the
#: shared flag helpers (used for memory operands).
_ALU_OPS = {
    X86Op.ADD: lambda cpu, a, b: cpu.flags_add(a, b),
    X86Op.SUB: lambda cpu, a, b: cpu.flags_sub(a, b),
    X86Op.CMP: lambda cpu, a, b: cpu.flags_sub(a, b),
    X86Op.AND: lambda cpu, a, b: cpu.flags_logic(a & b),
    X86Op.OR: lambda cpu, a, b: cpu.flags_logic(a | b),
    X86Op.XOR: lambda cpu, a, b: cpu.flags_logic(a ^ b),
    X86Op.TEST: lambda cpu, a, b: cpu.flags_logic(a & b),
}
