"""The rule-based translator: one guest TB -> host code with coordination.

This is the paper's rule-application phase (Sec III) with all four
optimization levels.  The policies, by level:

========================  ======  ==========  ============  ======
behaviour                 Base    +Reduction  +Elimination  +Sched
========================  ======  ==========  ============  ======
sync sequences            parsed  packed      packed        packed
restore after each site   eager   eager       on demand     on demand
restore per conditional   always  always      on demand     on demand
save when env current     yes     yes         skipped       skipped
TB-end save               always  always      inter-TB      inter-TB
insn scheduling           --      --          --            yes
========================  ======  ==========  ============  ======

"site" = any point where control may reach QEMU: the TB-entry interrupt
check, every memory access (softmmu probe + slow path), every
helper-emulated system instruction, and every instruction not covered by
the rulebook (translated by falling back to the TCG pipeline inline).

The static flag tracker (:class:`~repro.core.coordination.FlagsState`)
follows where the live guest CCR is.  Conditional instructions are
emitted with direct host jcc's on the live FLAGS register — the core
speed advantage of rule-based translation — with the state
externalization (reg flushes, flag saves) hoisted above the skip branch
so both paths join in a consistent state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..analysis.justify import (AUDIT_KEY, JUSTIFY_KEY,
                                elide_save_justification, fallback_event,
                                inter_tb_justification, produce_event,
                                reorder_justification, terminal_event)
from ..common.bitops import u32
from ..guest.isa import ACCESS_SIZE, ArmInsn, Cond, Op, PC, ShiftKind
from ..host.builder import CodeBuilder, InsnMemo
from ..host.isa import (EAX, EDX, ENV_REG, ESP, Imm, Mem, Reg, X86Cond,
                        X86Op, Xmm)
from ..miniqemu import mmu_codegen
from ..miniqemu.env import (ENV_IRQ, ENV_PACKED_VALID, env_reg,
                            env_vfp)
from ..miniqemu.helpers import (make_exception_return_helper,
                                make_svc_helper, make_sysreg_helper)
from ..miniqemu.tb import (EXIT_INTERRUPT, EXIT_PC_UPDATED, TranslationBlock)
from ..observability.trace import NULL_TRACER
from .alu import AluEmitter
from .analysis import (AnalyzedBlock, InsnInfo, flags_read, flags_written,
                       F_ALL, regs_read, regs_written)
from .condmap import CarryKind, negate, skip_sequence
from .config import OptConfig
from .coordination import FlagsState
from .regcache import RegCache

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_ADD = Op.ADD
_OP_B = Op.B
_OP_BL = Op.BL
_OP_BX = Op.BX
_OP_CLZ = Op.CLZ
_OP_LDM = Op.LDM
_OP_LDRSB = Op.LDRSB
_OP_LDRSH = Op.LDRSH
_OP_MLA = Op.MLA
_OP_MOV = Op.MOV
_OP_MUL = Op.MUL
_OP_NOP = Op.NOP
_OP_STM = Op.STM
_OP_STR = Op.STR
_OP_STRB = Op.STRB
_OP_STRH = Op.STRH
_OP_SUB = Op.SUB
_OP_SVC = Op.SVC
_OP_VCMP = Op.VCMP
_OP_VLDR = Op.VLDR
_OP_VMOVRS = Op.VMOVRS
_OP_VMOVSR = Op.VMOVSR
_OP_VSTR = Op.VSTR
_COND_AL = Cond.AL
_SHIFT_LSL = ShiftKind.LSL
_X86_MOVSS = X86Op.MOVSS
_X86_NE = X86Cond.NE

#: VFP ops with a rule (arithmetic and moves).
_VFP_RULE_OPS = frozenset({Op.VADD, Op.VSUB, Op.VMUL, Op.VMOVSR, Op.VMOVRS})

RULE_TAG = "rule"
IRQ_TAG = "irqcheck"

#: Builder method of each shift of a register memory offset.
_MEM_SHIFTS = {ShiftKind.LSL: "shl", ShiftKind.LSR: "shr",
               ShiftKind.ASR: "sar", ShiftKind.ROR: "ror"}


@dataclass
class _ColdStub:
    """A deferred interrupt-exit path with its state snapshot."""

    label: str
    resume_pc: int
    dirty_snapshot: List[Tuple[int, int]]  # (guest reg, host reg)


class RuleTranslator:
    """Translates one guest block with a given optimization config."""

    def __init__(self, mmu_idx: int, config: OptConfig,
                 successor_live_in: Optional[Callable[[int], int]] = None,
                 tcg_fallback: Optional[Callable] = None,
                 tracer=None, shared_insns: Optional[InsnMemo] = None):
        self.mmu_idx = mmu_idx
        self.config = config
        #: the engine's instruction memo, shared by every TB's builder
        #: (None: each builder keeps its own)
        self.shared_insns = shared_insns
        self.successor_live_in = successor_live_in or (lambda pc: F_ALL)
        self.tcg_fallback = tcg_fallback
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-TB state, reset in translate().
        self.builder: Optional[CodeBuilder] = None
        self.cache: Optional[RegCache] = None
        self.flags: Optional[FlagsState] = None
        self.alu: Optional[AluEmitter] = None

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def translate(self, pc: int, block: AnalyzedBlock) -> TranslationBlock:
        """Translate *block*, scheduled and analyzed by
        :func:`~repro.core.analysis.prepare_block` under the engine's
        rulebook and this translator's config."""
        config = self.config
        original, insns, info = block.fetched, block.insns, block.info
        reordered = any(a is not b for a, b in zip(original, insns))

        self.builder = builder = CodeBuilder(default_tag=RULE_TAG,
                                             shared=self.shared_insns)
        self._audit = []
        self._justifications = []
        if reordered:
            self._justifications.append(reorder_justification(
                [i.addr for i in original], [i.addr for i in insns]))
        self.flags = FlagsState(builder, packed=config.packed_sync,
                                tracer=self.tracer,
                                audit=self._audit)
        self.cache = RegCache(builder)
        self.alu = AluEmitter(builder, self.cache)
        self._cold_stubs: List[_ColdStub] = []
        self._jmp_pcs: List[Optional[int]] = [None, None]
        self._ended = False
        self._prealloc_scratch: Optional[int] = None

        self._emit_irq_check(resume_pc=pc)
        for item in info.insns:
            self._emit_insn(item)
            if self._ended:
                break
        if not self._ended:
            last = insns[len(info.insns) - 1] if info.insns else None
            next_pc = u32((last.addr + 4) if last else pc)
            self._end_block(slot=0, target_pc=next_pc)

        self._emit_cold_stubs()
        code = builder.finish()
        tb = TranslationBlock(pc=pc, mmu_idx=self.mmu_idx,
                              guest_insns=insns, code=code)
        tb.jmp_pc = list(self._jmp_pcs)
        tb.meta = {
            "n_uncovered": info.n_uncovered,
            "live_in": info.live_in,
            # Rule keys applied in this TB (for quarantine attribution;
            # branches are always "covered" regardless of the rulebook,
            # so they are not attributed).
            "rules_used": sorted({item.insn.op._name_ for item in info.insns
                                  if item.covered and
                                  not item.insn.is_branch()}),
            AUDIT_KEY: self._audit,
            JUSTIFY_KEY: self._justifications,
        }
        return tb

    # ------------------------------------------------------------------
    # Interrupt checks.
    # ------------------------------------------------------------------

    def _emit_irq_check(self, resume_pc: int) -> None:
        """cmp [env.irq], 0; jne cold_exit  — clobbers EFLAGS."""
        builder = self.builder
        saved = self._sync_before_clobber()
        label = builder.new_label("irq")
        with builder.tagged(IRQ_TAG):
            builder.cmp(Mem(base=ENV_REG, disp=ENV_IRQ), Imm(0))
            builder.jcc(_X86_NE, label)
        self.flags.on_clobber()
        if saved:
            self._eager_restore()
        snapshot = [(guest, host) for guest, host
                    in sorted(self.cache.guest_to_host.items())
                    if guest in self.cache.dirty]
        self._cold_stubs.append(_ColdStub(label, resume_pc, snapshot))

    def _emit_cold_stubs(self) -> None:
        builder = self.builder
        for stub in self._cold_stubs:
            builder.bind(stub.label)
            with builder.tagged(IRQ_TAG):
                for guest, host in stub.dirty_snapshot:
                    builder.mov(Mem(base=ENV_REG, disp=env_reg(guest)),
                                Reg(host))
                builder.mov(Mem(base=ENV_REG, disp=env_reg(PC)),
                            Imm(stub.resume_pc))
                builder.exit_tb(EXIT_INTERRUPT)

    # ------------------------------------------------------------------
    # Coordination policy helpers.
    # ------------------------------------------------------------------

    def _sync_before_clobber(self) -> bool:
        """Save the CCR to env before EFLAGS is about to be clobbered.

        Returns True when a save was emitted (Base pairs its eager
        restore with it, per Figs 6 and 10).  The naive design saves at
        *every* site where the CCR is live in EFLAGS; skipping the save
        when env is already current is the consecutive-site elimination
        of Sec III-C-2, so it only applies at the elimination level.
        """
        if self.config.eliminate_redundant:
            if self.flags.need_save():
                self.flags.emit_save()
                return True
            if self.flags.in_eflags:
                # env is already current: the naive policy would have
                # saved here — a consecutive-site elision (Sec III-C-2).
                self._justifications.append(elide_save_justification(
                    len(self.builder.insns), self.flags.packed_ok,
                    self.flags.parsed_ok))
                if self.tracer.enabled:
                    self.tracer.emit("sync.elide", kind="consecutive")
            return False
        if self.flags.in_eflags:
            self.flags.emit_save()
            return True
        return False

    def _eager_restore(self) -> None:
        """Base/+Reduction restore the CCR right after every site."""
        if not self.config.eliminate_redundant:
            self.flags.emit_restore()

    def _demand_flags(self) -> None:
        """Make sure the live CCR is in EFLAGS (restore on demand)."""
        if not self.config.eliminate_redundant:
            # Base/+Reduction: the conditional-instruction rule pattern
            # always rematerializes the condition from env (Fig 9
            # "before"): save if dirty, then an (often redundant) restore.
            if self.flags.need_save():
                self.flags.emit_save()
            self.flags.emit_restore()
            return
        if self.flags.need_restore():
            self.flags.emit_restore()

    def _ensure_default_env(self) -> None:
        """Publish the live CCR in the mode's default representation."""
        flags = self.flags
        default_ok = flags.packed_ok if self.config.packed_sync \
            else flags.parsed_ok
        if default_ok:
            return
        if not flags.in_eflags:
            flags.emit_restore()
        flags.emit_save()

    def _canonicalize_kind(self, wanted: CarryKind) -> None:
        if self.flags.kind != wanted:
            self.builder.cmc(tag="sync")
            self.flags.kind = wanted

    # ------------------------------------------------------------------
    # Instruction dispatch.
    # ------------------------------------------------------------------

    def _emit_insn(self, item: InsnInfo) -> None:
        insn = item.insn

        if insn.cond != _COND_AL:
            self._emit_conditional(item)
            return
        self._emit_body(item)

    def _emit_body(self, item: InsnInfo) -> None:  # noqa: C901
        insn = item.insn
        op = insn.op

        if insn.is_system():
            # System instructions always go through helpers (they cannot
            # be learned from user-level code) — this is the path with
            # the lazy packed-flags parse of Sec III-B.
            self._emit_system(insn)
            return
        if not item.covered:
            self._emit_fallback(insn)
            return
        if op in (_OP_B, _OP_BL):
            self._emit_direct_branch(insn)
            return
        if op is _OP_BX:
            self._emit_indirect_branch(insn)
            return
        if op in _VFP_RULE_OPS:
            self._emit_vfp(insn)
            return
        if op is _OP_VCMP:
            # Like other helper-emulated instructions (reads/writes FPSCR).
            self._emit_system(insn)
            return
        if insn.is_memory():
            self._emit_memory(item)
            return

        # ALU-family instruction.
        reads = flags_read(insn)
        writes = flags_written(insn)
        if reads:
            self._demand_flags()
        elif writes and writes != F_ALL and self.flags.need_restore():
            # Partial producers (logical/multiply: N/Z only) leave the
            # untouched C/V bits in EFLAGS — those must hold the live
            # values before the update lands on top of them.
            self.flags.emit_restore()
        clobbers = not writes and self.alu.clobbers_eflags(insn)
        if clobbers and self.flags.in_eflags and item.live_after:
            # Protect the live CCR before the body destroys it.  The save
            # canonicalizes the carry; re-adjust afterwards if the body
            # consumes the other convention (e.g. a plain sbc).
            self._sync_before_clobber()
        if reads:
            wanted = self.alu.required_kind(insn)
            if wanted is not None:
                self._canonicalize_kind(wanted)
        if clobbers:
            self.flags.on_clobber()

        body_start = len(self.builder.insns)
        if op.data_processing:
            if insn.rd == PC and op.writes_rd:
                self._emit_pc_write_dp(insn)
                return
            self.alu.emit_dp(insn, flags_live=self.flags.in_eflags)
        elif op in (_OP_MUL, _OP_MLA):
            self.alu.emit_multiply(insn)
        elif op is _OP_CLZ:
            self.alu.emit_clz(insn)
        elif op is _OP_NOP:
            self.builder.nop()
        else:
            self._emit_fallback(insn)
            return

        if writes:
            kind, partial = self.alu.produces_kind(insn)
            self.flags.on_produce(kind, partial=partial)
            self._audit.append(produce_event(
                body_start, len(self.builder.insns), flags=writes,
                live_after=item.live_after,
                carry=kind._name_.lower() if kind is not None else None,
                partial=partial, guest_addr=insn.addr))

    # ------------------------------------------------------------------
    # Conditional execution.
    # ------------------------------------------------------------------

    def _emit_conditional(self, item: InsnInfo) -> None:
        insn = item.insn
        builder = self.builder

        # Conditional direct branch: ends the TB with two successors.
        if insn.op is _OP_B:
            self._emit_conditional_branch(insn)
            return

        self._demand_flags()

        body_produces = bool(flags_written(insn))
        body_clobbers = (insn.is_memory() or insn.is_system() or
                         not item.covered or
                         self.alu.clobbers_eflags(insn) or body_produces)
        if body_produces:
            # The executed path re-saves at the body end in the default
            # representation; the skipped path must already hold the old
            # flags in that SAME representation.
            self._ensure_default_env()
        elif body_clobbers:
            # Externalize flags before the skip branch so both paths
            # join consistently.
            self._sync_before_clobber()
        if insn.is_system() or not item.covered or \
                insn.writes_pc() or insn.is_memory():
            # Helpers (and TB-ending bodies, whose flushes would sit in
            # the skipped region) need dirty registers flushed pre-branch.
            self.cache.flush_dirty(tag="sync")
        if not item.covered and not insn.is_system():
            # The fallback body may read or partially update the per-bit
            # flag fields; make them current on BOTH paths (state
            # externalization inside the skipped region would be wrong).
            self.flags.ensure_parsed()

        # Pre-touch guest registers so no cache traffic happens inside
        # the conditional body.
        self._pretouch(insn)
        if insn.is_memory():
            self._prealloc_scratch = self.cache.scratch({EAX, EDX})

        skip = builder.new_label("skip")
        execute = builder.new_label("exec")
        used_exec = self._emit_skip_branches(insn.cond, skip, execute)

        if insn.op is _OP_BL:
            # Conditional call: lr write + TB end on the taken path.
            lr = self.cache.write(14)
            builder.movi(Reg(lr), u32(insn.addr + 4))
            self._end_block(slot=0, target_pc=insn.target,
                            state_copy=True)
            builder.bind(skip)
            self._ended = False
            self._end_block(slot=1, target_pc=u32(insn.addr + 4))
            return

        self._emit_body(item)
        if self._ended:
            # The body terminated the TB (pc writer / system / svc):
            # the skipped path continues at the next instruction.
            builder.bind(skip)
            self._ended = False
            self._end_block(slot=1, target_pc=u32(insn.addr + 4))
            return
        if body_produces and self.flags.in_eflags:
            # Publish the new flags before the join so both paths agree
            # (the pre-branch save already published the old ones for
            # the skipped path).  A fallback body leaves its flags in
            # env directly, in which case there is nothing in EFLAGS to
            # publish.
            self.flags.emit_save()
        builder.bind(skip)
        if body_produces or body_clobbers:
            # Conservative merge: env is current on both paths (the
            # pre-branch and body-end saves published it); EFLAGS content
            # differs between paths, so stop relying on it.
            self.flags.in_eflags = False
            self._eager_restore()

    def _pretouch(self, insn: ArmInsn) -> None:
        for guest in sorted(regs_read(insn) | regs_written(insn)):
            if guest != PC:
                self.cache.read(guest)
        for guest in sorted(regs_written(insn)):
            if guest != PC:
                self.cache.write(guest)

    def _emit_skip_branches(self, cond: Cond, skip: str,
                            execute: str) -> bool:
        """Emit the jcc sequence skipping the body when *cond* fails."""
        builder = self.builder
        used_exec = False
        sequence = skip_sequence(cond, self.flags.kind)
        for host_cond, target in sequence:
            if target == "skip":
                builder.jcc(host_cond, skip)
            else:
                builder.jcc(host_cond, execute)
                used_exec = True
        if used_exec:
            builder.bind(execute)
        return used_exec

    def _emit_conditional_branch(self, insn: ArmInsn) -> None:
        """b<cond>: two-successor TB end."""
        builder = self.builder
        self._demand_flags()
        self.cache.flush_dirty(tag="sync")

        taken = builder.new_label("taken")
        execute = builder.new_label("bexec")
        # Invert the skip sequence: jump to `taken` when cond passes.
        sequence = skip_sequence(insn.cond, self.flags.kind)
        if len(sequence) == 1:
            host_cond, _ = sequence[0]
            builder.jcc(negate(host_cond), taken)
        else:
            # Two-test conditions: fall into taken when not skipped.
            fall = builder.new_label("fall")
            for host_cond, target in sequence:
                builder.jcc(host_cond,
                            fall if target == "skip" else execute)
            if any(target == "exec" for _, target in sequence):
                builder.bind(execute)
            builder.jmp(taken)
            builder.bind(fall)

        self._end_block(slot=1, target_pc=u32(insn.addr + 4),
                        state_copy=True)
        builder.bind(taken)
        self._ended = False
        self._end_block(slot=0, target_pc=insn.target)

    # ------------------------------------------------------------------
    # VFP (the footnote-3 extension): learned FP rules lower to scalar
    # SSE directly on the env slots — no helper, no EFLAGS clobber, and
    # therefore NO coordination.  This is why the paper reports 1.92x
    # with floating-point workloads included.
    # ------------------------------------------------------------------

    _VFP_HOST = {Op.VADD: X86Op.ADDSS, Op.VSUB: X86Op.SUBSS,
                 Op.VMUL: X86Op.MULSS}

    def _emit_vfp(self, insn: ArmInsn) -> None:
        builder = self.builder
        if insn.op is _OP_VMOVSR:
            host = self.cache.read(insn.rd)
            builder.mov(Mem(base=ENV_REG, disp=env_vfp(insn.fn)), Reg(host))
            return
        if insn.op is _OP_VMOVRS:
            host = self.cache.write(insn.rd)
            builder.mov(Reg(host), Mem(base=ENV_REG, disp=env_vfp(insn.fn)))
            return
        builder.emit(_X86_MOVSS, Xmm(0),
                     Mem(base=ENV_REG, disp=env_vfp(insn.fn)))
        builder.emit(self._VFP_HOST[insn.op], Xmm(0),
                     Mem(base=ENV_REG, disp=env_vfp(insn.fm)))
        builder.emit(_X86_MOVSS,
                     Mem(base=ENV_REG, disp=env_vfp(insn.fd)), Xmm(0))

    # ------------------------------------------------------------------
    # Memory accesses.
    # ------------------------------------------------------------------

    def _take_mem_scratch(self, forbidden) -> int:
        """Scratch host register for address computation.

        For conditional bodies the register was grabbed before the skip
        branch (cache eviction code must not sit in a skipped region).
        """
        if self._prealloc_scratch is not None:
            reg = self._prealloc_scratch
            self._prealloc_scratch = None
            if reg not in forbidden:
                return reg
        return self.cache.scratch(set(forbidden))

    def _emit_memory(self, item: InsnInfo) -> None:
        insn = item.insn
        # The softmmu probe clobbers EFLAGS: coordinate first (Sec II-C).
        saved = self._sync_before_clobber()
        # Memory accesses can fault and resume (demand paging): the
        # dirty guest-register copies must be in env before the access
        # so the abort handler and the retried instruction see them.
        self.cache.flush_dirty(tag="sync")
        self.flags.on_clobber()
        if insn.op in (_OP_LDM, _OP_STM):
            self._emit_block_memory(insn)
        elif insn.op in (_OP_VLDR, _OP_VSTR):
            self._emit_vfp_memory(insn)
        else:
            self._emit_single_memory(insn)
        if saved:
            # Base/+Reduction close the pair (Fig 10 "before"); the
            # elimination level restores on demand instead.
            self._eager_restore()

    def _address_reg(self, insn: ArmInsn) -> Tuple[int, int]:
        """(host reg with the effective address, new base value reg).

        Uses flag-safe lea arithmetic where possible; shifted register
        offsets may use shifts freely because the CCR was already synced.
        """
        builder = self.builder
        cache = self.cache
        base = cache.read(insn.rn) if insn.rn != PC else None
        if base is None:
            builder.movi(Reg(EDX), u32(insn.addr + 8))
            base = EDX
        addr = self._take_mem_scratch({base, EAX, EDX})
        if insn.mem_offset_reg is not None:
            offset_reg = cache.read(insn.mem_offset_reg, {base, addr})
            if insn.mem_shift == _SHIFT_LSL and \
                    insn.mem_shift_imm in (0, 1, 2, 3) and insn.add_offset:
                scale = 1 << insn.mem_shift_imm
                builder.lea(Reg(addr), Mem(base=base, index=offset_reg,
                                           scale=scale))
            else:
                builder.mov(Reg(addr), Reg(offset_reg))
                if insn.mem_shift_imm:
                    host_shift = _MEM_SHIFTS[insn.mem_shift]
                    getattr(builder, host_shift)(Reg(addr),
                                                 Imm(insn.mem_shift_imm))
                if insn.add_offset:
                    builder.add(Reg(addr), Reg(base))
                else:
                    builder.neg(Reg(addr))
                    builder.add(Reg(addr), Reg(base))
        else:
            disp = insn.mem_offset_imm if insn.add_offset \
                else -insn.mem_offset_imm
            builder.lea(Reg(addr), Mem(base=base, disp=disp & 0xFFFFFFFF))
        return addr, base

    def _emit_single_memory(self, insn: ArmInsn) -> None:
        builder = self.builder
        cache = self.cache
        size = ACCESS_SIZE[insn.op]
        signed = insn.op in (_OP_LDRSB, _OP_LDRSH)
        is_store = insn.op in (_OP_STR, _OP_STRB, _OP_STRH)

        addr_reg, _ = self._address_reg(insn)
        effective = addr_reg if insn.pre_indexed else \
            cache.read(insn.rn, {addr_reg})

        if is_store:
            if insn.rd == PC:
                builder.movi(Reg(EDX), u32(insn.addr + 8))
                value_reg = EDX
            else:
                value_reg = cache.read(insn.rd, {effective, addr_reg})
            mmu_codegen.emit_store(builder, effective, value_reg, size,
                                   self.mmu_idx, insn.addr)
        else:
            mmu_codegen.emit_load(builder, effective, size, signed,
                                  self.mmu_idx, insn.addr)

        writeback = (not insn.pre_indexed) or insn.writeback
        if writeback and not (insn.is_load() and insn.rd == insn.rn):
            wb = cache.write(insn.rn, {EAX, addr_reg})
            builder.mov(Reg(wb), Reg(addr_reg))

        if not is_store:
            if insn.rd == PC:
                self._end_indirect_from(EAX)
                return
            rd = cache.write(insn.rd, {EAX})
            builder.mov(Reg(rd), Reg(EAX))

    def _emit_vfp_memory(self, insn: ArmInsn) -> None:
        builder = self.builder
        cache = self.cache
        base = cache.read(insn.rn)
        addr = self._take_mem_scratch({base, EAX, EDX})
        disp = insn.mem_offset_imm if insn.add_offset \
            else -insn.mem_offset_imm
        builder.lea(Reg(addr), Mem(base=base, disp=disp & 0xFFFFFFFF))
        if insn.op is _OP_VLDR:
            mmu_codegen.emit_load(builder, addr, 4, False, self.mmu_idx,
                                  insn.addr)
            builder.mov(Mem(base=ENV_REG, disp=env_vfp(insn.fd)), Reg(EAX))
        else:
            builder.mov(Reg(EAX), Mem(base=ENV_REG, disp=env_vfp(insn.fd)))
            # the probe clobbers EAX: route the value through a cache reg
            value = cache.scratch({base, addr, EAX, EDX})
            builder.mov(Reg(value), Reg(EAX))
            mmu_codegen.emit_store(builder, addr, value, 4, self.mmu_idx,
                                   insn.addr)

    def _emit_block_memory(self, insn: ArmInsn) -> None:
        builder = self.builder
        cache = self.cache
        count = len(insn.reglist)
        base = cache.read(insn.rn)
        addr = self._take_mem_scratch({base, EAX, EDX})
        if insn.increment:
            start = 4 if insn.before else 0
            new_base_disp = 4 * count
        else:
            start = -4 * count + (0 if insn.before else 4)
            new_base_disp = -4 * count
        builder.lea(Reg(addr), Mem(base=base, disp=start & 0xFFFFFFFF))

        # Write the base back *before* the transfer loop: the loop's loads
        # may evict and reuse the host register caching the base (loads of
        # listed registers override the writeback, matching ARM's
        # unpredictable-but-common behaviour for rn in the list).
        if insn.writeback:
            wb = cache.write(insn.rn, {addr, base})
            if wb != base:
                builder.mov(Reg(wb), Reg(base))
            builder.lea(Reg(wb), Mem(base=wb,
                                     disp=new_base_disp & 0xFFFFFFFF))

        loaded_pc = False
        for position, guest in enumerate(sorted(insn.reglist)):
            if position:
                builder.lea(Reg(addr), Mem(base=addr, disp=4))
            if insn.op is _OP_STM:
                if guest == PC:
                    builder.movi(Reg(EDX), u32(insn.addr + 8))
                    value_reg = EDX
                else:
                    value_reg = cache.read(guest, {addr})
                mmu_codegen.emit_store(builder, addr, value_reg, 4,
                                       self.mmu_idx, insn.addr)
            else:
                mmu_codegen.emit_load(builder, addr, 4, False,
                                      self.mmu_idx, insn.addr)
                if guest == PC:
                    loaded_pc = True
                    builder.mov(Mem(base=ENV_REG, disp=env_reg(PC)),
                                Reg(EAX))
                else:
                    rd = cache.write(guest, {EAX, addr})
                    builder.mov(Reg(rd), Reg(EAX))
        if loaded_pc:
            # env.pc was stored from the load; finish as indirect exit.
            self._finish_indirect_exit(pc_in_env=True)

    # ------------------------------------------------------------------
    # Branches / TB ends.
    # ------------------------------------------------------------------

    def _emit_direct_branch(self, insn: ArmInsn) -> None:
        if insn.op is _OP_BL:
            lr = self.cache.write(14)
            self.builder.movi(Reg(lr), u32(insn.addr + 4))
        self._end_block(slot=0, target_pc=insn.target)

    def _emit_indirect_branch(self, insn: ArmInsn) -> None:
        host = self.cache.read(insn.rm)
        self._sync_before_clobber()   # the mask below clobbers EFLAGS
        self.flags.on_clobber()
        self.builder.mov(Reg(EAX), Reg(host))
        self.builder.and_(Reg(EAX), Imm(0xFFFFFFFE))
        self._end_indirect_from(EAX)

    def _emit_pc_write_dp(self, insn: ArmInsn) -> None:
        """mov pc, rX / add pc, ... (without S: plain indirect branch)."""
        if insn.set_flags:
            self._emit_system(insn)  # exception return via helper
            return
        self._sync_before_clobber()   # shift/mask below clobber EFLAGS
        self.flags.on_clobber()
        src = self.alu.operand2_value(insn, set())
        builder = self.builder
        if insn.op is _OP_MOV:
            if isinstance(src, Imm):
                self._end_block(slot=0, target_pc=src.value & 0xFFFFFFFC)
                return
            builder.mov(Reg(EAX), src)
        elif insn.op is _OP_ADD:
            rn = self.alu._read_guest(insn.rn, insn, set())
            builder.mov(Reg(EAX), Reg(rn))
            builder.add(Reg(EAX), src)
        else:
            self._emit_fallback(insn)
            return
        builder.and_(Reg(EAX), Imm(0xFFFFFFFC))
        self._end_indirect_from(EAX)

    def _successor_needs_save(self, flags: FlagsState) -> bool:
        """Is env short of the CCR where a successor TB reads it?

        Under packed sync the successor's entry restore reloads
        env.packed without checking its valid bit, so a packed word left
        stale by a flag-writing fallback needs re-packing even though
        the per-bit fields are current.
        """
        if self.config.packed_sync and not flags.packed_ok:
            return True
        return flags.need_save()

    def _save_for_successor(self, flags: FlagsState) -> None:
        """Publish the CCR in the mode's default representation."""
        if not flags.in_eflags:
            flags.emit_restore()    # the per-bit fields are current
        flags.emit_save()

    def _end_indirect_from(self, host_reg: int) -> None:
        builder = self.builder
        builder.mov(Mem(base=ENV_REG, disp=env_reg(PC)), Reg(host_reg))
        self._finish_indirect_exit(pc_in_env=True)

    def _finish_indirect_exit(self, pc_in_env: bool) -> None:
        self.cache.flush_dirty(tag="sync")
        if self._successor_needs_save(self.flags):
            self._save_for_successor(self.flags)
        self.builder.exit_tb(EXIT_PC_UPDATED, tag="chain")
        self._ended = True

    def _end_block(self, slot: int, target_pc: int,
                   state_copy: bool = False) -> None:
        """Terminate the block through goto_tb *slot* to *target_pc*."""
        builder = self.builder
        flags = copy.copy(self.flags) if state_copy else self.flags
        self.cache.flush_dirty(tag="sync")

        if self._successor_needs_save(flags):
            skip_save = (self.config.inter_tb and
                         self.successor_live_in(target_pc) == 0)
            if skip_save:
                self._justifications.append(inter_tb_justification(
                    len(builder.insns), u32(target_pc), live_in=0))
                if self.tracer.enabled:
                    self.tracer.emit("sync.elide", kind="inter-tb",
                                     target_pc=target_pc)
            else:
                self._save_for_successor(flags)
        builder.goto_tb(slot, tag="chain")
        builder.mov(Mem(base=ENV_REG, disp=env_reg(PC)), Imm(u32(target_pc)),
                    tag="chain")
        builder.exit_tb(EXIT_PC_UPDATED, tag="chain")
        self._jmp_pcs[slot] = u32(target_pc)
        self._ended = True

    # ------------------------------------------------------------------
    # System instructions and the QEMU fallback.
    # ------------------------------------------------------------------

    def _emit_system(self, insn: ArmInsn) -> None:
        builder = self.builder
        self._sync_before_clobber()
        self.cache.flush_dirty(tag="sync")
        self.flags.on_clobber()

        if insn.op is _OP_SVC:
            self._audit.append(terminal_event(len(builder.insns)))
            builder.call_helper(make_svc_helper(insn), tag="helper")
            self._ended = True
            return
        if insn.op.writes_rd and insn.set_flags and insn.rd == PC:
            # Exception return: compute the target, then helper.
            src = self.alu.operand2_value(insn, set())
            if insn.op is _OP_MOV:
                if isinstance(src, Imm):
                    builder.movi(Reg(EAX), src.value)
                else:
                    builder.mov(Reg(EAX), src)
            elif insn.op in (_OP_SUB, _OP_ADD):
                rn = self.alu._read_guest(insn.rn, insn, set())
                builder.mov(Reg(EAX), Reg(rn))
                host_op = "sub" if insn.op is _OP_SUB else "add"
                getattr(builder, host_op)(Reg(EAX), src)
            else:
                self._emit_fallback(insn)
                return
            builder.push(Reg(EAX), tag="helper")
            self._audit.append(terminal_event(len(builder.insns)))
            builder.call_helper(make_exception_return_helper(insn),
                                args=(Mem(base=ESP, disp=0),), tag="helper")
            self._ended = True
            return

        builder.call_helper(make_sysreg_helper(insn), tag="helper")
        self.cache.invalidate()
        self.flags.on_helper_wrote_flags()
        self._eager_restore()
        # System instructions can change the mode/MMU/interrupt state:
        # end the TB like QEMU does.
        self._end_block(slot=0, target_pc=u32(insn.addr + 4))

    def _emit_fallback(self, insn: ArmInsn) -> None:
        """Uncovered instruction: inline QEMU-style (IR) translation."""
        if self.tcg_fallback is None:
            raise RuntimeError(f"no fallback translator for {insn}")
        builder = self.builder
        self._sync_before_clobber()
        self.cache.flush_dirty(tag="sync")
        self.flags.on_clobber()
        self.cache.invalidate()

        reads = flags_read(insn)
        writes = flags_written(insn)
        if reads or writes not in (0, F_ALL):
            # The inline QEMU code reads (or partially updates) the
            # per-bit fields directly: they must be current.
            self.flags.ensure_parsed()
        host_insns, ended = self.tcg_fallback(insn, self.mmu_idx)
        offset = len(builder.insns)
        builder.splice(host_insns, tag="fallback")
        if flags_written(insn):
            # The fallback wrote the per-bit fields directly: invalidate
            # the packed slot at runtime and in the static tracker.
            builder.mov(Mem(base=ENV_REG, disp=ENV_PACKED_VALID), Imm(0),
                        tag="fallback")
            self.flags.on_fallback_wrote_flags()
        else:
            # The fallback may clobber EFLAGS; the pre-splice save (or
            # prior currency) keeps env authoritative.
            self.flags.on_clobber()
        self._audit.append(fallback_event(
            offset, len(builder.insns), reads=reads,
            writes=flags_written(insn), ended=ended))
        if ended:
            self._ended = True
        else:
            self._eager_restore()

