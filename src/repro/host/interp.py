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
the semantics reference), each non-control instruction by its op's step
function.  From its :data:`HOT_THRESHOLD`-th entry on, the TB runs
*compiled*: split once into basic blocks, each of which adds its
instruction and tag counts once and runs its body as one generated
Python function (:class:`_BodySource`), compiled once per distinct
source.  Both forms leave identical counters;
:meth:`HostInterpreter.execute` states the invariants.  Both run the
texts of :mod:`repro.host.ops`: the step functions are compiled from
them, and a body inlines them with the operands resolved.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional

from ..common.bitops import u32
from ..common.errors import HostExecutionError, WatchdogTimeout
from ..observability.trace import NULL_TRACER
from .cpu import COND_EXPRS, COND_TESTS, HostCpu
from .isa import ESP, Imm, Mem, Reg, X86Insn, X86Op
from .ops import MASK as _MASK, ROWS, STEPS, fill

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_X86_CALL_HELPER = X86Op.CALL_HELPER
_X86_EXIT_TB = X86Op.EXIT_TB
_X86_GOTO_TB = X86Op.GOTO_TB
_X86_JCC = X86Op.JCC
_X86_JMP = X86Op.JMP

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

# Terminator kinds of a compiled basic block.
_NEXT = 0        # straight-line fall-through or JMP: continue at ``next``
_JCC = 1
_CALL = 2
_GOTO = 3
_EXIT = 4

_TERMINATORS = {X86Op.JMP: _NEXT, X86Op.JCC: _JCC, X86Op.CALL_HELPER: _CALL,
                X86Op.GOTO_TB: _GOTO, X86Op.EXIT_TB: _EXIT}

#: op -> its step function; None for the control ops _interpret runs.
_DISPATCH = {**STEPS, **dict.fromkeys(_TERMINATORS)}


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

    # Step functions read and write a register operand themselves, so
    # these test for a memory operand first.

    def _addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.cpu.regs[mem.base]
        if mem.index is not None:
            addr += self.cpu.regs[mem.index] * mem.scale
        return addr & _MASK

    def _read(self, operand) -> int:
        kind = type(operand)
        if kind is Mem:
            return self.memory.read(self._addr(operand), operand.size)
        if kind is Imm:
            return operand.value & _MASK
        if kind is Reg:
            return self.cpu.regs[operand.number]
        raise HostExecutionError(f"bad operand {operand!r}")

    def _write(self, operand, value: int) -> None:
        kind = type(operand)
        if kind is Mem:
            self.memory.write(self._addr(operand), value, operand.size)
        elif kind is Reg:
            self.cpu.regs[operand.number] = value & _MASK
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
        dispatch = _DISPATCH
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
            step = dispatch[op]
            if step is not None:
                step(self, insn)
            elif op is _X86_JCC:
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

    def _call_helper(self, tb, insn: X86Insn) -> None:
        if self.tracer.enabled:
            self.tracer.emit("helper.call", tb_pc=tb.pc,
                             helper=insn.helper.__name__)
        args = [self._read(arg) for arg in insn.helper_args]
        result = insn.helper(self.runtime, *args)
        if result is not None:
            self.cpu.regs[0] = u32(result)

    def step(self, insn: X86Insn) -> None:
        """Run one non-control instruction (what ``STEP`` does in
        generated code)."""
        STEPS[insn.op](self, insn)

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
        namespace = {"R": self.cpu.regs, "C": self.cpu, "STEP": self.step,
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


def _flag_use(insn: X86Insn):
    """``(reads, writes, raises)`` of *insn*, or None when it is stepped:
    when its op has no row, or an operand is of a kind its row does not
    inline."""
    row = ROWS.get(insn.op)
    if row is None:
        return None
    for operand, kinds in ((insn.dst, row.dst), (insn.src, row.src)):
        if kinds is not None and type(operand) not in kinds:
            return None
    reads, writes = row.reads, row.writes
    if "cond" in row.holes:
        expr = COND_EXPRS[insn.cond]
        reads = [flag for flag in "czso" if f"C.{flag}f" in expr]
    elif "n" in row.holes and not insn.src.value & 31:
        writes = ""                  # a zero count changes nothing
    raises = row.form in ("push", "pop") or row.src_as != "addr" \
        and Mem in (type(insn.dst), type(insn.src))
    return frozenset(reads), frozenset(writes), raises


class _BodySource:
    """Python source of one basic block's body, and the globals it names.

    Each instruction renders its op's row (:mod:`repro.host.ops`): the
    row's texts, with operands, sizes, shift counts and conditions
    resolved into them.  Immediates, displacements and stepped
    instructions are globals ``K<n>``/``I<n>``, so bodies that differ
    only in them share one source.  Each memory operand is a *site*: its
    globals ``B<n>``, ``E<n>``, ``A<n>`` cache ``(base, end - size,
    data)`` of the region it last hit, refilled through ``SITE`` on a
    miss.

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
                row = ROWS[insn.op]
                getattr(self, "_" + row.form)(insn, row, use[1] & live)

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

    def flags(self, row, writes, holes=None) -> None:
        """Set the flags in *writes* from *row*'s texts."""
        for flag in sorted(writes):
            text = row.flag_texts[flag]
            if holes:
                text = fill(text, {}, holes)
            self.line(f"C.{flag}f = {text}")

    def target(self, insn: X86Insn):
        """``(site or None, value)`` of *insn*'s destination."""
        k = self.sites if type(insn.dst) is Mem else None
        return k, self.value(insn.dst)

    def source(self, insn: X86Insn, row) -> str:
        """*insn*'s source as *row* reads it."""
        if row.src_as == "addr":
            return self.addr(insn.src)
        if row.src_as == "r8" and type(insn.src) is Reg:
            return f"R[{insn.src.number}] & 255"
        return self.value(insn.src)

    # One emitter per row form.

    def _alu(self, insn, row, writes):
        """x and y, as far as the texts name them, are inlined into
        ``r``, or bound first on one line when a live flag's text needs
        them (ADD: ``x = ...; y = ...; t = x + y``).  A row's own x text
        is bound on a line of its own."""
        if row.result is None:
            self.flags(row, writes)
            return
        k, x = self.target(insn) if "x" in row.names else (None, None)
        values = {"x": x,
                  "y": self.source(insn, row) if "y" in row.names else None}
        holes = {}
        if "n" in row.holes:
            holes["n"] = insn.src.value & 31
            if not holes["n"]:
                return               # the operand is read all the same
        if row.x is not None:
            self.line(f"x = {fill(row.x, values, holes)}")
            values["x"] = "x"
        elif writes and row.binds:
            self.line("; ".join(
                [f"{name} = {values[name]}" for name in "xy"
                 if name in row.names] +
                ([] if row.t is None else [f"t = {row.t}"])))
            values = {}
        if row.t is not None and values:
            values["t"] = fill(row.t, values, holes)
        expr = fill(row.result, values, holes)
        if writes:
            self.line(f"r = {expr}")
            self.flags(row, writes, holes)
            expr = "r"
        if row.writes_dst:
            self.store(insn.dst, expr, k)

    def _push(self, insn, row, writes):
        esp = f"R[{ESP}]"
        self.line(f"{esp} = ({esp} - 4) & {_MASK}")
        value = fill(row.result, {"y": self.source(insn, row)
                                  if "y" in row.names else None}, {})
        k = self.site(esp, 4)
        self.line(f"P4(A{k}, a{k} - B{k}, {value})")

    def _pop(self, insn, row, writes):
        esp = f"R[{ESP}]"
        value = self.load(self.site(esp, 4), 4)
        if row.writes_dst:
            self.store(insn.dst, fill(row.result, {"v": value}, {}))
        else:
            self.line(f"v = {value}")
            self.flags(row, writes)
        self.line(f"{esp} = ({esp} + 4) & {_MASK}")

    def _setcc(self, insn, row, writes):
        bit = fill(row.result, {}, {"cond": COND_EXPRS[insn.cond]})
        if type(insn.dst) is Reg:
            reg = f"R[{insn.dst.number}]"
            self.line(f"{reg} = {reg} & 0xFFFFFF00 | {bit}")
        else:
            self.store(insn.dst, bit)
