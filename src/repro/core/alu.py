"""Rule-based translation of data-processing instructions.

These emitters are the host-side templates of the learned translation
rules: one guest ALU instruction becomes one (sometimes two or three)
host instructions, with the guest condition codes living directly in the
host FLAGS register.  Compare with the TCG frontend, which expands the
same instructions into ~10-18 host instructions through the IR.

Flag-safety: when the guest CCR is live in EFLAGS and an instruction must
not disturb it, flag-transparent encodings are used (``lea``/``mov``/
``not``).  :meth:`AluEmitter.clobbers_eflags` tells the translator when
no transparent encoding exists, so it can sync-save first.

Carry composition: host ``adc`` consumes CF directly while ARM ``adc``
consumes ARM C, so the translator canonicalizes the carry convention
(one ``cmc``) before ADC-family (needs DIRECT) and SBC-family (needs
INVERTED) bodies — which is a no-op in the natural chains
``adds; adcs`` and ``subs; sbcs``.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..common.bitops import u32
from ..guest.isa import ArmInsn, Op, PC, ShiftKind
from ..host.builder import CodeBuilder
from ..host.isa import EAX, ECX, EDX, Imm, Mem, Reg, X86Cond, X86Op
from .analysis import flags_written
from .condmap import CarryKind
from .regcache import RegCache

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_OP_ADC = Op.ADC
_OP_ADD = Op.ADD
_OP_AND = Op.AND
_OP_BIC = Op.BIC
_OP_CLZ = Op.CLZ
_OP_CMN = Op.CMN
_OP_CMP = Op.CMP
_OP_EOR = Op.EOR
_OP_MLA = Op.MLA
_OP_MOV = Op.MOV
_OP_MUL = Op.MUL
_OP_MVN = Op.MVN
_OP_ORR = Op.ORR
_OP_RSB = Op.RSB
_OP_RSC = Op.RSC
_OP_SBC = Op.SBC
_OP_SUB = Op.SUB
_OP_TEQ = Op.TEQ
_OP_TST = Op.TST
_SHIFT_ASR = ShiftKind.ASR
_SHIFT_LSL = ShiftKind.LSL
_SHIFT_LSR = ShiftKind.LSR
_SHIFT_RRX = ShiftKind.RRX
_CARRY_DIRECT = CarryKind.DIRECT
_CARRY_INVERTED = CarryKind.INVERTED
_X86_CLC = X86Op.CLC
_X86_SBB = X86Op.SBB
_X86_STC = X86Op.STC
_X86_SUB = X86Op.SUB
_X86_E = X86Cond.E

_SHIFT_HOST = {ShiftKind.LSL: X86Op.SHL, ShiftKind.LSR: X86Op.SHR,
               ShiftKind.ASR: X86Op.SAR, ShiftKind.ROR: X86Op.ROR}

_BINOP_HOST = {Op.ADD: X86Op.ADD, Op.ADC: X86Op.ADC, Op.SUB: X86Op.SUB,
               Op.SBC: X86Op.SBB, Op.AND: X86Op.AND, Op.ORR: X86Op.OR,
               Op.EOR: X86Op.XOR, Op.BIC: X86Op.AND}


def _has_real_shift(insn: ArmInsn) -> bool:
    op2 = insn.op2
    if op2 is None or op2.is_imm:
        return False
    return op2.shift != _SHIFT_LSL or op2.shift_imm != 0 or \
        op2.rs is not None


class AluEmitter:
    """Emits rule-translated ALU bodies.  One instance per TB."""

    def __init__(self, builder: CodeBuilder, cache: RegCache):
        self.builder = builder
        self.cache = cache

    # ------------------------------------------------------------------
    # Queries used by the translator's flag tracking.
    # ------------------------------------------------------------------

    @staticmethod
    def clobbers_eflags(insn: ArmInsn) -> bool:
        """True if the *non-flag-setting* body would corrupt a live CCR."""
        if flags_written(insn):
            return False  # a producer, handled by the flag tracker
        op = insn.op
        if op in (_OP_MUL, _OP_MLA):
            return True   # imul rewrites N/Z
        if op is _OP_CLZ:
            return True   # bsr writes ZF
        if _has_real_shift(insn):
            return True   # host shifts rewrite C/N/Z
        if op in (_OP_ADC, _OP_SBC, _OP_RSC):
            return True   # adc/sbb rewrite all flags
        if op in (_OP_ADD, _OP_SUB, _OP_MOV):
            return False  # lea / mov are flag-transparent
        if op is _OP_MVN:
            return False  # mov + not, both transparent
        if op in (_OP_AND, _OP_ORR, _OP_EOR, _OP_BIC, _OP_RSB):
            return True   # need a real ALU op (writes N/Z at least)
        return False

    @staticmethod
    def required_kind(insn: ArmInsn) -> Optional[CarryKind]:
        """Carry convention the body needs in EFLAGS before executing."""
        if insn.op in (_OP_ADC,):
            return _CARRY_DIRECT
        if insn.op in (_OP_SBC, _OP_RSC):
            return _CARRY_INVERTED
        if insn.op2 is not None and not insn.op2.is_imm and \
                insn.op2.shift == _SHIFT_RRX:
            return _CARRY_DIRECT  # rcr consumes CF as the ARM C
        return None

    @staticmethod
    def produces_kind(insn: ArmInsn) -> Tuple[Optional[CarryKind], bool]:
        """(carry kind, partial) left in EFLAGS by this flag producer.

        ``partial`` marks producers that define only N/Z (logical ops,
        multiplies): C and V keep their previous convention.
        """
        op = insn.op
        if op in (_OP_CMP, _OP_SUB, _OP_SBC, _OP_RSB, _OP_RSC):
            return _CARRY_INVERTED, False
        if op in (_OP_CMN, _OP_ADD, _OP_ADC):
            return _CARRY_DIRECT, False
        if flags_written(insn) & 4:  # shifter/rotated-imm writes C directly
            return _CARRY_DIRECT, True
        return None, True

    # ------------------------------------------------------------------
    # Operand-2 materialization.
    # ------------------------------------------------------------------

    def _read_guest(self, number: int, insn: ArmInsn,
                    forbidden: Set[int]) -> int:
        """Host register holding the guest register (PC reads addr+8)."""
        if number == PC:
            self.builder.movi(Reg(EDX), u32(insn.addr + 8))
            return EDX
        return self.cache.read(number, forbidden)

    def operand2_value(self, insn: ArmInsn, forbidden: Set[int]):
        """Materialize operand2 as an Imm or a Reg (scratch EAX if shifted).

        Emits host shifts when needed — the caller has already checked
        :meth:`clobbers_eflags` / arranged a save.
        """
        op2 = insn.op2
        builder = self.builder
        if op2.is_imm:
            return Imm(op2.imm)
        reg = self._read_guest(op2.rm, insn, forbidden)
        if not _has_real_shift(insn):
            return Reg(reg)
        builder.mov(Reg(EAX), Reg(reg))
        if op2.shift == _SHIFT_RRX:
            builder.rcr1(Reg(EAX))
            return Reg(EAX)
        if op2.rs is not None:
            amount_reg = self.cache.read(op2.rs, forbidden | {EAX})
            if amount_reg != ECX:
                self.cache._evict(ECX)
                builder.mov(Reg(ECX), Reg(amount_reg))
            builder.emit(_SHIFT_HOST[op2.shift], Reg(EAX), Reg(ECX))
            return Reg(EAX)
        amount = op2.shift_imm
        if amount == 32 and op2.shift in (_SHIFT_LSR, _SHIFT_ASR):
            if op2.shift == _SHIFT_LSR:
                builder.movi(Reg(EAX), 0)
            else:
                builder.sar(Reg(EAX), Imm(31))
            return Reg(EAX)
        builder.emit(_SHIFT_HOST[op2.shift], Reg(EAX), Imm(amount))
        return Reg(EAX)

    # ------------------------------------------------------------------
    # Main emitters.
    # ------------------------------------------------------------------

    def _emit_imm_carry(self, insn: ArmInsn) -> None:
        """Rotated immediates set the ARM shifter carry to imm[31]."""
        if insn.op2 is not None and insn.op2.is_imm and insn.op2.imm > 0xFF:
            if (insn.op2.imm >> 31) & 1:
                self.builder.emit(_X86_STC)
            else:
                self.builder.emit(_X86_CLC)

    def emit_dp(self, insn: ArmInsn, flags_live: bool) -> None:
        """Emit a data-processing instruction (rd != PC guaranteed)."""
        op = insn.op
        builder = self.builder
        cache = self.cache

        if op.compare:
            self._emit_compare(insn)
            return

        if op in (_OP_ADD, _OP_SUB) and not insn.set_flags and flags_live \
                and not self.clobbers_eflags(insn):
            self._emit_lea_add_sub(insn)
            return

        src = self.operand2_value(insn, forbidden=set())
        src_regs = {src.number} if isinstance(src, Reg) else set()

        if op in (_OP_MOV, _OP_MVN):
            rd = cache.write(insn.rd, forbidden=src_regs)
            builder.mov(Reg(rd), src)
            if op is _OP_MVN:
                builder.not_(Reg(rd))
            if insn.set_flags:
                # mov/not do not set host flags: the learned movs rule
                # carries an explicit test (plus stc/clc for the rotated
                # immediate's shifter carry).
                builder.test(Reg(rd), Reg(rd))
                self._emit_imm_carry(insn)
            return

        if op in (_OP_RSB, _OP_RSC):
            rn_reg = self._read_guest(insn.rn, insn, src_regs)
            if not (isinstance(src, Reg) and src.number == EAX):
                builder.mov(Reg(EAX), src)
            builder.emit(_X86_SUB if op is _OP_RSB else _X86_SBB,
                         Reg(EAX), Reg(rn_reg))
            rd = cache.write(insn.rd, forbidden={EAX})
            builder.mov(Reg(rd), Reg(EAX))
            return

        if op is _OP_BIC:
            if isinstance(src, Imm):
                src = Imm(~src.value & 0xFFFFFFFF)
            else:
                if src.number != EAX:
                    builder.mov(Reg(EAX), src)
                builder.not_(Reg(EAX))
                src = Reg(EAX)
                src_regs = {EAX}

        host_op = _BINOP_HOST[op]
        rn_reg = self._read_guest(insn.rn, insn, src_regs)
        if insn.rd == insn.rn and insn.rn != PC:
            rd = cache.write(insn.rd, forbidden=src_regs)
            builder.emit(host_op, Reg(rd), src)
        elif isinstance(src, Reg) and \
                cache.guest_to_host.get(insn.rd) == src.number:
            # rd aliases operand2 (e.g. "add r1, r0, r1"): writing rd's
            # host register first would destroy the operand.
            if op in (_OP_ADD, _OP_AND, _OP_ORR, _OP_EOR):
                # Commutative: accumulate rn into rd directly.
                rd = cache.write(insn.rd)
                builder.emit(host_op, Reg(rd), Reg(rn_reg))
            else:
                builder.mov(Reg(EDX), Reg(rn_reg))
                builder.emit(host_op, Reg(EDX), src)
                rd = cache.write(insn.rd, forbidden={EDX})
                builder.mov(Reg(rd), Reg(EDX))
        else:
            rd = cache.write(insn.rd, forbidden=src_regs | {rn_reg})
            builder.mov(Reg(rd), Reg(rn_reg))
            builder.emit(host_op, Reg(rd), src)
        if insn.set_flags and op in (_OP_AND, _OP_ORR, _OP_EOR, _OP_BIC):
            self._emit_imm_carry(insn)

    def _emit_lea_add_sub(self, insn: ArmInsn) -> None:
        """Flag-transparent add/sub (immediate or plain register op2)."""
        builder = self.builder
        cache = self.cache
        op2 = insn.op2
        rn_reg = self._read_guest(insn.rn, insn, set())
        if op2.is_imm:
            disp = op2.imm if insn.op is _OP_ADD else -op2.imm
            rd = cache.write(insn.rd, forbidden={rn_reg})
            builder.lea(Reg(rd), Mem(base=rn_reg, disp=disp & 0xFFFFFFFF))
            return
        rm_reg = self.cache.read(op2.rm, {rn_reg})
        if insn.op is _OP_ADD:
            rd = cache.write(insn.rd, forbidden={rn_reg, rm_reg})
            builder.lea(Reg(rd), Mem(base=rn_reg, index=rm_reg))
            return
        # Subtract without touching flags: rn + NOT(rm) + 1.
        builder.mov(Reg(EAX), Reg(rm_reg))
        builder.not_(Reg(EAX))
        rd = cache.write(insn.rd, forbidden={rn_reg, EAX})
        builder.lea(Reg(rd), Mem(base=rn_reg, index=EAX, disp=1))

    def _emit_compare(self, insn: ArmInsn) -> None:
        builder = self.builder
        src = self.operand2_value(insn, forbidden=set())
        src_regs = {src.number} if isinstance(src, Reg) else set()
        rn_reg = self._read_guest(insn.rn, insn, src_regs)
        if insn.op is _OP_CMP:
            builder.cmp(Reg(rn_reg), src)
        elif insn.op is _OP_TST:
            builder.test(Reg(rn_reg), src)
            self._emit_imm_carry(insn)
        elif insn.op is _OP_TEQ:
            builder.mov(Reg(EDX), Reg(rn_reg))
            builder.xor(Reg(EDX), src)
            self._emit_imm_carry(insn)
        else:  # CMN: flags of rn + op2
            builder.mov(Reg(EDX), Reg(rn_reg))
            builder.add(Reg(EDX), src)

    def emit_multiply(self, insn: ArmInsn) -> None:
        builder = self.builder
        cache = self.cache
        rm = cache.read(insn.rm)
        rs = cache.read(insn.rs, {rm})
        if insn.op is _OP_MLA or insn.rd != insn.rm:
            builder.mov(Reg(EAX), Reg(rm))
            builder.imul(Reg(EAX), Reg(rs))
            if insn.op is _OP_MLA:
                rn = cache.read(insn.rn, {rm, rs})
                builder.add(Reg(EAX), Reg(rn))
            rd = cache.write(insn.rd, {EAX})
            builder.mov(Reg(rd), Reg(EAX))
        else:
            rd = cache.write(insn.rd, {rs})
            builder.imul(Reg(rd), Reg(rs))
        if insn.set_flags:
            builder.test(Reg(rd), Reg(rd))

    def emit_clz(self, insn: ArmInsn) -> None:
        builder = self.builder
        cache = self.cache
        rm = cache.read(insn.rm)
        done = builder.new_label("clz_done")
        builder.movi(Reg(EAX), 32)
        builder.bsr(Reg(EDX), Reg(rm))
        builder.jcc(_X86_E, done)
        builder.movi(Reg(EAX), 31)
        builder.sub(Reg(EAX), Reg(EDX))
        builder.bind(done)
        rd = cache.write(insn.rd, {EAX})
        builder.mov(Reg(rd), Reg(EAX))
