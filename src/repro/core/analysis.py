"""Static per-TB analysis for the rule-based engine.

Computes, over the guest instructions of one block:

- which NZCV flags each instruction reads and writes,
- backward flag liveness (flags are conservatively live out of the block),
- which instructions are coordination sites (memory / system / uncovered),
- the live-in flag requirement of a block (used by the inter-TB
  optimization to prove define-before-use in a chained successor),
- the define-before-use scheduling reorder (Sec III-D-1), implemented
  as a safe reordering of the instruction list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..guest.isa import (ArmInsn, COMPARE_OPS, Cond, DATA_PROCESSING_OPS, Op,
                         PC, ShiftKind)

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_ADC = Op.ADC
_OP_BL = Op.BL
_OP_BX = Op.BX
_OP_CLZ = Op.CLZ
_OP_LDM = Op.LDM
_OP_LDR = Op.LDR
_OP_LDRB = Op.LDRB
_OP_LDRH = Op.LDRH
_OP_LDRSB = Op.LDRSB
_OP_LDRSH = Op.LDRSH
_OP_MCR = Op.MCR
_OP_MLA = Op.MLA
_OP_MOV = Op.MOV
_OP_MRC = Op.MRC
_OP_MRS = Op.MRS
_OP_MSR = Op.MSR
_OP_MUL = Op.MUL
_OP_MVN = Op.MVN
_OP_RSC = Op.RSC
_OP_SBC = Op.SBC
_OP_STM = Op.STM
_OP_STR = Op.STR
_OP_STRB = Op.STRB
_OP_STRH = Op.STRH
_OP_VMOVRS = Op.VMOVRS
_OP_VMOVSR = Op.VMOVSR
_OP_VMRS = Op.VMRS
_OP_VMSR = Op.VMSR
_OP_VSTR = Op.VSTR
_COND_AL = Cond.AL
_SHIFT_LSL = ShiftKind.LSL
_SHIFT_RRX = ShiftKind.RRX

# Flag bit masks.
F_N = 1
F_Z = 2
F_C = 4
F_V = 8
F_ALL = F_N | F_Z | F_C | F_V
F_NONE = 0

_COND_READS = {
    Cond.EQ: F_Z, Cond.NE: F_Z,
    Cond.CS: F_C, Cond.CC: F_C,
    Cond.MI: F_N, Cond.PL: F_N,
    Cond.VS: F_V, Cond.VC: F_V,
    Cond.HI: F_C | F_Z, Cond.LS: F_C | F_Z,
    Cond.GE: F_N | F_V, Cond.LT: F_N | F_V,
    Cond.GT: F_N | F_Z | F_V, Cond.LE: F_N | F_Z | F_V,
    Cond.AL: F_NONE,
}

_LOGICAL_DP = frozenset({Op.AND, Op.EOR, Op.TST, Op.TEQ, Op.ORR, Op.MOV,
                         Op.BIC, Op.MVN})


def flags_read(insn: ArmInsn) -> int:
    """NZCV bits this instruction reads."""
    mask = _COND_READS[insn.cond]
    if insn.op in (_OP_ADC, _OP_SBC, _OP_RSC):
        mask |= F_C
    if insn.op2 is not None and not insn.op2.is_imm and \
            insn.op2.shift == _SHIFT_RRX:
        mask |= F_C
    if insn.op is _OP_MRS and not insn.spsr:
        mask |= F_ALL
    return mask


#: Flag-write class of each opcode, keyed by name: hashing an Op
#: member runs the Python-level Enum.__hash__, a name hashes in C.
_W_NONE, _W_COMPARE, _W_TEST, _W_LOGICAL, _W_ARITH, _W_MULTIPLY, \
    _W_MSR, _W_VMRS = range(8)
_WRITE_CLASS = {op._name_: (_W_COMPARE if op in (Op.CMP, Op.CMN) else
                            _W_TEST if op in COMPARE_OPS else
                            _W_LOGICAL if op in _LOGICAL_DP else
                            _W_ARITH if op in DATA_PROCESSING_OPS else
                            _W_MULTIPLY if op in (Op.MUL, Op.MLA) else
                            _W_MSR if op is Op.MSR else
                            _W_VMRS if op is Op.VMRS else _W_NONE)
                for op in Op}


def flags_written(insn: ArmInsn) -> int:
    """NZCV bits this instruction definitely writes (when it executes)."""
    kind = _WRITE_CLASS[insn.op._name_]
    if kind == _W_NONE:
        return F_NONE
    if kind == _W_COMPARE:
        return F_ALL
    if kind == _W_TEST:
        return _logical_flags(insn)
    if kind == _W_MSR:
        return F_ALL if not insn.spsr and insn.imm & 0x8 else F_NONE
    if kind == _W_VMRS:
        return F_ALL if insn.rd == PC else F_NONE
    if not insn.set_flags:
        return F_NONE
    if kind == _W_LOGICAL:
        return _logical_flags(insn)
    return F_ALL if kind == _W_ARITH else F_N | F_Z


def _logical_flags(insn: ArmInsn) -> int:
    """TST/TEQ and logical S ops: N,Z always; C only via the shifter."""
    if _shifter_touches_carry(insn):
        return F_N | F_Z | F_C
    return F_N | F_Z


def flags_written_may(insn: ArmInsn) -> int:
    """NZCV bits this instruction *may* write (regardless of its condition).

    A conditionally-executed flag-setter (``cond != AL`` with the S bit)
    writes its flags only on the taken path, so callers that need a
    *must*-def (liveness kills, define-before-use proofs) have to use
    :func:`flags_written_definite` instead.  This alias exists to make the
    may/must distinction explicit at call sites.
    """
    return flags_written(insn)


def flags_written_definite(insn: ArmInsn) -> int:
    """NZCV bits this instruction writes on *every* path through it.

    Conditional instructions contribute nothing: on the skipped path the
    flags pass through unchanged, so they are may-defs only and can never
    justify eliding a predecessor's sync-save.
    """
    if insn.cond != _COND_AL:
        return F_NONE
    return flags_written(insn)


def _shifter_touches_carry(insn: ArmInsn) -> bool:
    op2 = insn.op2
    if op2 is None:
        return False
    if op2.is_imm:
        return op2.imm > 0xFF  # rotated immediates set C from bit 31
    if op2.shift == _SHIFT_LSL and op2.shift_imm == 0 and op2.rs is None:
        return False
    return True


def regs_read(insn: ArmInsn) -> Set[int]:
    """Guest registers this instruction reads."""
    regs: Set[int] = set()
    op = insn.op
    if op.data_processing:
        if op not in (_OP_MOV, _OP_MVN):
            regs.add(insn.rn)
        if insn.op2 is not None and not insn.op2.is_imm:
            regs.add(insn.op2.rm)
            if insn.op2.rs is not None:
                regs.add(insn.op2.rs)
    elif op in (_OP_MUL, _OP_MLA):
        regs.update({insn.rm, insn.rs})
        if op is _OP_MLA:
            regs.add(insn.rn)
    elif insn.is_memory():
        regs.add(insn.rn)
        if op in (_OP_LDM, _OP_STM):
            if op is _OP_STM:
                regs.update(insn.reglist)
        else:
            if insn.mem_offset_reg is not None:
                regs.add(insn.mem_offset_reg)
            if insn.is_store() and op is not _OP_VSTR:
                regs.add(insn.rd)
    elif op is _OP_BX:
        regs.add(insn.rm)
    elif op in (_OP_MSR, _OP_VMSR):
        regs.add(insn.rm if op is _OP_MSR else insn.rd)
    elif op is _OP_MCR:
        regs.add(insn.rd)
    elif op is _OP_CLZ:
        regs.add(insn.rm)
    elif op is _OP_VMOVSR:
        regs.add(insn.rd)
    return regs


def regs_written(insn: ArmInsn) -> Set[int]:
    """Guest registers this instruction writes."""
    regs: Set[int] = set()
    op = insn.op
    if op.writes_rd:
        regs.add(insn.rd)
    elif op in (_OP_MUL, _OP_MLA, _OP_CLZ):
        regs.add(insn.rd)
    elif op in (_OP_LDR, _OP_LDRB, _OP_LDRH, _OP_LDRSB, _OP_LDRSH):
        regs.add(insn.rd)
        if insn.writeback or not insn.pre_indexed:
            regs.add(insn.rn)
    elif op in (_OP_STR, _OP_STRB, _OP_STRH):
        if insn.writeback or not insn.pre_indexed:
            regs.add(insn.rn)
    elif op is _OP_LDM:
        regs.update(insn.reglist)
        if insn.writeback:
            regs.add(insn.rn)
    elif op is _OP_STM:
        if insn.writeback:
            regs.add(insn.rn)
    elif op is _OP_BL:
        regs.add(14)
    elif op in (_OP_MRS, _OP_MRC, _OP_VMRS, _OP_VMOVRS):
        regs.add(insn.rd)
    return regs


@dataclass
class InsnInfo:
    """Analysis results for one guest instruction."""

    insn: ArmInsn
    reads: int = 0            # flag read mask
    writes: int = 0           # flag write mask
    live_after: int = F_ALL   # flags live after this instruction
    is_site: bool = False     # coordination site (memory/system/uncovered)
    covered: bool = True      # covered by the rulebook


@dataclass
class BlockInfo:
    """Analysis results for one guest basic block."""

    insns: List[InsnInfo] = field(default_factory=list)
    #: flags that must be valid on entry (read before written, or not
    #: definitely written): the inter-TB optimization skips the
    #: predecessor's save only when a successor's live_in is empty.
    live_in: int = F_ALL
    #: static counts for the experiment harness
    n_memory: int = 0
    n_system: int = 0
    n_uncovered: int = 0


def analyze_block(insns: List[ArmInsn], rulebook=None) -> BlockInfo:
    """Run the full static analysis over a guest block."""
    info = BlockInfo()
    # Per instruction: reaches a helper that may read the CPSR
    # architecturally (system or uncovered), and the flags it writes on
    # every path (flags_written_definite).
    helper = []
    definite = []
    for insn in insns:
        writes = flags_written(insn)
        item = InsnInfo(insn=insn, reads=flags_read(insn), writes=writes)
        system = insn.is_system()
        memory = insn.is_memory()
        # Control transfers are handled by the DBT's own control-flow
        # machinery (TB terminators, chaining), not by learned rules.
        item.covered = rulebook is None or insn.is_branch() or \
            rulebook.covers(insn)
        item.is_site = memory or system or not item.covered
        if memory:
            info.n_memory += 1
        if system:
            info.n_system += 1
        elif not item.covered:
            info.n_uncovered += 1
        info.insns.append(item)
        helper.append(system or not item.covered)
        definite.append(writes if insn.cond == _COND_AL else F_NONE)

    # Backward liveness; flags escape at block end and into helpers.
    live = F_ALL
    for index in range(len(info.insns) - 1, -1, -1):
        item = info.insns[index]
        item.live_after = live
        if helper[index]:
            live = F_ALL
            continue
        live = (live & ~definite[index]) | item.reads

    # Live-in requirement (for inter-TB define-before-use proofs):
    # conservatively, a flag is NOT needed at entry iff the block
    # unconditionally writes it before any read and before any
    # helper-style site (which may read the CPSR architecturally).
    needed = 0
    defined = 0
    for index, item in enumerate(info.insns):
        needed |= item.reads & ~defined
        if helper[index]:
            needed |= F_ALL & ~defined
            break
        defined |= definite[index]
        if defined == F_ALL:
            break
    # A flag the block never definitely writes is still required at
    # entry: it flows through to the block's own (conservative) live-out.
    # Without this term a pass-through block would report live_in == 0
    # and let a predecessor elide a save whose flags the *successor's
    # successors* still read.
    info.live_in = needed | (F_ALL & ~defined)
    return info


@dataclass
class AnalyzedBlock:
    """One guest block as the rule translator emits it.

    The translation-time memo (:class:`repro.core.engine.RuleEngine`)
    keeps one per block pc, so a successor's inter-TB live-in query and
    the successor's own translation share one schedule and one
    analysis.  ``fetched`` is the block in address order, as decoded:
    an entry is reused only while a fetch of the block yields these
    very instruction objects (the engine's decode memo returns the same
    object for the same word at the same address).
    """

    fetched: List[ArmInsn]
    #: emission order: ``fetched`` after define-before-use scheduling
    #: when scheduling is on, else ``fetched`` itself
    insns: List[ArmInsn]
    #: the analysis of ``insns``; ``info.live_in`` is the block's entry
    #: requirement as translated
    info: BlockInfo

    def holds(self, fetched: List[ArmInsn]) -> bool:
        """Was this entry built from exactly these decoded instructions?"""
        mine = self.fetched
        return len(mine) == len(fetched) and \
            all(a is b for a, b in zip(mine, fetched))


def prepare_block(insns: List[ArmInsn], rulebook=None,
                  scheduling: bool = False) -> AnalyzedBlock:
    """Schedule (when *scheduling*) and analyze a fetched block."""
    emitted = schedule_define_before_use(insns) if scheduling \
        else list(insns)
    return AnalyzedBlock(list(insns), emitted,
                         analyze_block(emitted, rulebook))


# ---------------------------------------------------------------------------
# Instruction scheduling (Sec III-D-1): hoist independent memory accesses
# above a flag producer so that producer->consumer pairs become adjacent
# and the memory access no longer splits a live flag range.
# ---------------------------------------------------------------------------


def _independent(mem: ArmInsn, producer: ArmInsn) -> bool:
    """May *mem* be moved above *producer*?"""
    if mem.cond != _COND_AL or producer.cond != _COND_AL:
        return False
    if flags_written(mem) or flags_read(mem):
        return False
    mem_reads, mem_writes = regs_read(mem), regs_written(mem)
    prod_reads, prod_writes = regs_read(producer), regs_written(producer)
    if mem_writes & (prod_reads | prod_writes):
        return False
    if mem_reads & prod_writes:
        return False
    return True


def schedule_define_before_use(insns: List[ArmInsn]) -> List[ArmInsn]:
    """Move ld/st instructions that sit between a flag producer and its
    consumer to before the producer, when data dependences allow.

    Stores may not move above other memory operations (aliasing); loads
    may not move above stores.  PC-changing and system instructions are
    barriers.
    """
    result = list(insns)
    changed = True
    while changed:
        changed = False
        for index in range(1, len(result)):
            insn = result[index]
            if not insn.is_memory() or insn.op in (_OP_LDM, _OP_STM):
                continue
            prev = result[index - 1]
            if not flags_written(prev) or prev.writes_pc() or \
                    prev.is_system():
                continue
            # Only useful if a consumer of prev's flags follows insn.
            follows = result[index + 1:]
            uses_later = any(flags_read(later) & flags_written(prev)
                             for later in follows)
            if not uses_later:
                continue
            if not _independent(insn, prev):
                continue
            # Memory ordering: moving a store above a non-memory flag
            # producer is safe; moving above another memory op is not
            # attempted (prev is a flag producer, never a memory op here,
            # since memory ops do not write flags).
            result[index - 1], result[index] = insn, prev
            changed = True
    return result
