"""TCG backend: IR -> host x86.

A small linear register allocator in the spirit of TCG's: temps are
allocated to host registers on first definition, reloaded from spill
slots when evicted, and freed at their last use.  EBP is reserved for the
env pointer; EAX/EDX are clobbered by the inline softmmu sequences and by
helper calls (callee side of the cdecl convention), so temps living in
them are spilled around those points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..common.errors import TranslationError
from ..ir.ops import IRCond, IRInsn, IROp, Temp
from ..host.builder import CodeBuilder, InsnMemo
from ..host.isa import (EAX, EBX, ECX, EDI, EDX, ENV_REG, ESI, ESP, Imm,
                        Mem, Reg, X86Cond, X86Op)
from . import mmu_codegen
from .env import ENV_SPILL

#: Registers available for temps (EBP = env pointer, ESP = stack).
_ALLOCATABLE = (EBX, ESI, EDI, ECX, EDX, EAX)

#: Registers a CALL or softmmu sequence clobbers.
_CALL_CLOBBERED = (EAX, ECX, EDX)

_COND_MAP = {
    IRCond.EQ: X86Cond.E, IRCond.NE: X86Cond.NE,
    IRCond.LTU: X86Cond.B, IRCond.GEU: X86Cond.AE,
    IRCond.LEU: X86Cond.BE, IRCond.GTU: X86Cond.A,
    IRCond.LT: X86Cond.L, IRCond.GE: X86Cond.GE,
    IRCond.LE: X86Cond.LE, IRCond.GT: X86Cond.G,
}

_BINOP_MAP = {
    IROp.ADD: X86Op.ADD, IROp.SUB: X86Op.SUB, IROp.AND: X86Op.AND,
    IROp.OR: X86Op.OR, IROp.XOR: X86Op.XOR, IROp.MUL: X86Op.IMUL,
}

_SHIFT_MAP = {IROp.SHL: X86Op.SHL, IROp.SHR: X86Op.SHR,
              IROp.SAR: X86Op.SAR, IROp.ROR: X86Op.ROR}

_NUM_SPILL_SLOTS = 8


class RegisterAllocator:
    """Tracks temp locations (register or spill slot) during lowering."""

    def __init__(self, builder: CodeBuilder, last_use: Dict[Temp, int]):
        self.builder = builder
        self.last_use = last_use
        self.reg_owner: Dict[int, Optional[Temp]] = \
            {reg: None for reg in _ALLOCATABLE}
        self.temp_reg: Dict[Temp, int] = {}
        self.temp_slot: Dict[Temp, int] = {}
        self.free_slots = list(range(_NUM_SPILL_SLOTS))
        self.position = 0

    # -- spill bookkeeping -------------------------------------------------

    def _spill(self, reg: int) -> None:
        temp = self.reg_owner[reg]
        if temp is None:
            return
        if temp not in self.temp_slot:
            if not self.free_slots:
                raise TranslationError("out of spill slots")
            slot = self.free_slots.pop()
            self.temp_slot[temp] = slot
            self.builder.mov(Mem(base=ENV_REG, disp=ENV_SPILL + 4 * slot),
                             Reg(reg))
        self.reg_owner[reg] = None
        self.temp_reg.pop(temp, None)

    def _release_temp(self, temp: Temp) -> None:
        reg = self.temp_reg.pop(temp, None)
        if reg is not None:
            self.reg_owner[reg] = None
        slot = self.temp_slot.pop(temp, None)
        if slot is not None:
            self.free_slots.append(slot)

    def kill_dead(self, position: int) -> None:
        for temp in list(self.temp_reg) + list(self.temp_slot):
            if self.last_use.get(temp, -1) <= position:
                self._release_temp(temp)

    # -- allocation ---------------------------------------------------------

    def _pick_reg(self, forbidden: Set[int]) -> int:
        for reg in _ALLOCATABLE:
            if reg in forbidden:
                continue
            if self.reg_owner[reg] is None:
                return reg
        # Evict the owner whose next use is farthest (approximated by
        # last_use, which is what we have).
        candidates = [reg for reg in _ALLOCATABLE if reg not in forbidden]
        if not candidates:
            raise TranslationError("no allocatable register")
        victim = max(candidates,
                     key=lambda reg: self.last_use.get(self.reg_owner[reg],
                                                       1 << 30))
        self._spill(victim)
        return victim

    def ensure_reg(self, temp: Temp, forbidden: Set[int] = frozenset()) -> int:
        """Place *temp* in a register (reloading if spilled)."""
        reg = self.temp_reg.get(temp)
        if reg is not None:
            if reg in forbidden:
                new_reg = self._pick_reg(forbidden | {reg})
                self.builder.mov(Reg(new_reg), Reg(reg))
                self.reg_owner[reg] = None
                self.reg_owner[new_reg] = temp
                self.temp_reg[temp] = new_reg
                return new_reg
            return reg
        reg = self._pick_reg(set(forbidden))
        if temp in self.temp_slot:
            slot = self.temp_slot[temp]
            self.builder.mov(Reg(reg),
                             Mem(base=ENV_REG, disp=ENV_SPILL + 4 * slot))
        self.reg_owner[reg] = temp
        self.temp_reg[temp] = reg
        return reg

    def alloc_dst(self, temp: Temp, forbidden: Set[int] = frozenset(),
                  prefer: Optional[int] = None) -> int:
        """Allocate a register for a fresh definition of *temp*."""
        if prefer is not None and prefer not in forbidden and \
                self.reg_owner.get(prefer) is None:
            reg = prefer
        else:
            reg = self._pick_reg(set(forbidden))
        self.reg_owner[reg] = temp
        self.temp_reg[temp] = reg
        return reg

    def bind(self, temp: Temp, reg: int) -> None:
        """Record that *temp* now lives in *reg* (e.g. a helper result)."""
        self._spill(reg)
        self.reg_owner[reg] = temp
        self.temp_reg[temp] = reg

    def spill_regs(self, regs) -> None:
        for reg in regs:
            self._spill(reg)

    def dies_here(self, temp, position: int) -> bool:
        return isinstance(temp, Temp) and \
            self.last_use.get(temp, -1) <= position


class TcgBackend:
    """Lowers one TB's IR to host code."""

    def __init__(self, mmu_idx: int, shared: Optional[InsnMemo] = None):
        self.mmu_idx = mmu_idx
        #: the engine's instruction memo; None: each builder keeps its own
        self.shared = shared

    def lower(self, ir_insns: List[IRInsn], tag: str = "code") -> List:
        builder = CodeBuilder(default_tag=tag, shared=self.shared)
        last_use: Dict[Temp, int] = {}
        for position, insn in enumerate(ir_insns):
            for temp in insn.sources():
                last_use[temp] = position
        alloc = RegisterAllocator(builder, last_use)

        for position, insn in enumerate(ir_insns):
            self._lower_insn(builder, alloc, insn, position)
            alloc.kill_dead(position)
        return builder.finish()

    # -- operand helpers ---------------------------------------------------------

    @staticmethod
    def _src_operand(alloc, value, forbidden=frozenset()):
        if isinstance(value, Temp):
            return Reg(alloc.ensure_reg(value, forbidden))
        return Imm(value)

    # -- lowering ------------------------------------------------------------------

    def _lower_insn(self, builder, alloc, insn: IRInsn,
                    position: int) -> None:  # noqa: C901
        op = insn.op

        if op is IROp.LABEL:
            builder.bind(insn.label)
            return
        if op is IROp.MOVI:
            reg = alloc.alloc_dst(insn.dst)
            builder.movi(Reg(reg), insn.args[0])
            return
        if op is IROp.MOV:
            src = self._src_operand(alloc, insn.args[0])
            reg = alloc.alloc_dst(insn.dst,
                                  forbidden={src.number}
                                  if isinstance(src, Reg) else frozenset())
            builder.mov(Reg(reg), src)
            return
        if op in _BINOP_MAP:
            self._binop(builder, alloc, insn, _BINOP_MAP[op], position)
            return
        if op in _SHIFT_MAP:
            self._shift(builder, alloc, insn, _SHIFT_MAP[op], position)
            return
        if op in (IROp.NOT, IROp.NEG):
            a = insn.args[0]
            src = self._src_operand(alloc, a)
            if isinstance(src, Reg) and alloc.dies_here(a, position):
                alloc._release_temp(a)
                alloc.bind(insn.dst, src.number)
                reg = src.number
            else:
                reg = alloc.alloc_dst(insn.dst,
                                      forbidden={src.number}
                                      if isinstance(src, Reg) else frozenset())
                builder.mov(Reg(reg), src)
            builder.emit(X86Op.NOT if op is IROp.NOT else X86Op.NEG,
                         Reg(reg))
            return
        if op is IROp.SETCOND:
            a_op = self._src_operand(alloc, insn.args[0])
            b_op = self._src_operand(alloc, insn.args[1],
                                     {a_op.number}
                                     if isinstance(a_op, Reg) else frozenset())
            builder.cmp(a_op, b_op)
            forbidden = {operand.number for operand in (a_op, b_op)
                         if isinstance(operand, Reg)}
            reg = alloc.alloc_dst(insn.dst, forbidden=forbidden)
            builder.movi(Reg(reg), 0)
            builder.setcc(_COND_MAP[insn.cond], Reg(reg))
            return
        if op is IROp.LD_ENV:
            reg = alloc.alloc_dst(insn.dst)
            builder.mov(Reg(reg), Mem(base=ENV_REG, disp=insn.offset))
            return
        if op is IROp.ST_ENV:
            src = self._src_operand(alloc, insn.args[0])
            builder.mov(Mem(base=ENV_REG, disp=insn.offset), src)
            return
        if op is IROp.QEMU_LD:
            addr_reg = alloc.ensure_reg(insn.args[0], {EAX, EDX})
            alloc.spill_regs((EAX, EDX))
            mmu_codegen.emit_load(builder, addr_reg, insn.size, insn.signed,
                                  self.mmu_idx, insn.imm)
            alloc.bind(insn.dst, EAX)
            return
        if op is IROp.QEMU_ST:
            value, addr = insn.args
            addr_reg = alloc.ensure_reg(addr, {EAX, EDX})
            if isinstance(value, Temp):
                value_reg = alloc.ensure_reg(value, {EAX, EDX, addr_reg})
            else:
                value_reg = alloc._pick_reg({EAX, EDX, addr_reg})
                builder.movi(Reg(value_reg), value)
            alloc.spill_regs((EAX, EDX))
            mmu_codegen.emit_store(builder, addr_reg, value_reg, insn.size,
                                   self.mmu_idx, insn.imm)
            return
        if op is IROp.BRCOND:
            a_op = self._src_operand(alloc, insn.args[0])
            b_op = self._src_operand(alloc, insn.args[1],
                                     {a_op.number}
                                     if isinstance(a_op, Reg) else frozenset())
            builder.cmp(a_op, b_op)
            builder.jcc(_COND_MAP[insn.cond], insn.label)
            return
        if op is IROp.BR:
            builder.jmp(insn.label)
            return
        if op is IROp.CALL:
            arg_operands = []
            for arg in reversed(insn.args):
                src = self._src_operand(alloc, arg)
                builder.push(src, tag="helper")
            for index in range(len(insn.args)):
                arg_operands.append(Mem(base=ESP, disp=4 * index))
            # Our helper stubs preserve host registers (that cost is folded
            # into HELPER_CALL_OVERHEAD); only EAX (the result) is clobbered.
            alloc.spill_regs((EAX,))
            builder.call_helper(insn.helper, args=arg_operands, tag="helper")
            if insn.args:
                builder.add(Reg(ESP), Imm(4 * len(insn.args)), tag="helper")
            if insn.dst is not None:
                alloc.bind(insn.dst, EAX)
            return
        if op is IROp.GOTO_TB:
            builder.goto_tb(insn.imm, tag="chain")
            return
        if op is IROp.EXIT_TB:
            builder.exit_tb(insn.imm, tag="chain")
            return
        raise TranslationError(f"cannot lower IR op {op}")

    def _binop(self, builder, alloc, insn: IRInsn, host_op: X86Op,
               position: int) -> None:
        a, b = insn.args
        b_forbid = set()
        # Reuse a's register when a dies here (classic two-address lowering).
        if isinstance(a, Temp) and alloc.dies_here(a, position) and \
                a in alloc.temp_reg and a != b:
            reg = alloc.temp_reg[a]
            alloc._release_temp(a)
            alloc.bind(insn.dst, reg)
        else:
            a_src = self._src_operand(alloc, a)
            if isinstance(a_src, Reg):
                b_forbid.add(a_src.number)
            b_probe = self._src_operand(alloc, b, frozenset(b_forbid))
            forbidden = set(b_forbid)
            if isinstance(b_probe, Reg):
                forbidden.add(b_probe.number)
            reg = alloc.alloc_dst(insn.dst, forbidden=forbidden)
            builder.mov(Reg(reg), a_src)
        b_src = self._src_operand(alloc, b, {reg})
        builder.emit(host_op, Reg(reg), b_src)

    def _shift(self, builder, alloc, insn: IRInsn, host_op: X86Op,
               position: int) -> None:
        a, b = insn.args
        if isinstance(b, Temp):
            # Variable shift amounts must be in CL.
            if alloc.temp_reg.get(b) != ECX:
                alloc.spill_regs((ECX,))
                src = self._src_operand(alloc, b, {ECX})
                builder.mov(Reg(ECX), src)
            shift_src = Reg(ECX)
        else:
            shift_src = Imm(b & 31)
        if isinstance(a, Temp) and alloc.dies_here(a, position) and \
                a in alloc.temp_reg and alloc.temp_reg[a] != ECX:
            reg = alloc.temp_reg[a]
            alloc._release_temp(a)
            alloc.bind(insn.dst, reg)
        else:
            a_src = self._src_operand(alloc, a, {ECX})
            reg = alloc.alloc_dst(insn.dst,
                                  forbidden={ECX} |
                                  ({a_src.number}
                                   if isinstance(a_src, Reg) else set()))
            builder.mov(Reg(reg), a_src)
        builder.emit(host_op, Reg(reg), shift_src)
