"""Inline softmmu fast path, shared by both code generators.

Every guest load/store in system mode becomes: a TLB probe (a handful of
host ALU ops and a compare), the access itself on a hit, and a helper
call on a miss.  The paper measures ~20 host instructions per memory
access in QEMU system mode; this sequence plus the surrounding address
computation reproduces that.  Note that the probe's ``cmp`` clobbers the
host FLAGS register — which is exactly why every memory access is a
coordination site for the rule-based engine (Sec II-C).

The generated sequence (load shown; EDX/EAX are the scratch pair):

    mov  edx, <addr>                 ; entry offset = ((va >> 12) & 255)*16
    shr  edx, 8
    and  edx, 0xff0
    lea  edx, [edx + tlb_base + mmu*4096]   ; entry pointer
    mov  eax, <addr>                 ; tag = va & (page_mask | align_bits)
    and  eax, 0xfffff000 | (size-1)
    cmp  eax, [edx + access*4]
    jne  slow
    mov  eax, [edx + 12]             ; addend
    add  eax, <addr>
    mov/movzx/movsx  eax, [eax]      ; the access (or store to [eax])
    jmp  done
  slow:
    push <addr>  (push <value>)      ; cdecl args
    call helper_ld/st
    add  esp, 4/8
  done:
"""

from __future__ import annotations

from ..host.builder import CodeBuilder
from ..host.isa import EAX, EDX, ESP, Imm, Mem, Reg, X86Cond
from ..softmmu.tlb import SoftTlb
from .env import TLB_BASE
from .helpers import make_ld_helper, make_st_helper

# Enum members bound once for the per-instruction code: on Python 3.10
# and 3.11 each ``Enum.MEMBER`` lookup runs EnumType.__getattr__
# (docs/internals.md, "Per-instruction Python costs").
_X86_NE = X86Cond.NE

_MMU_STRIDE = SoftTlb.SIZE * SoftTlb.ENTRY_SIZE  # 4096 bytes per mmu index


def emit_load(builder: CodeBuilder, addr_reg: int, size: int, signed: bool,
              mmu_idx: int, insn_pc: int, tag: str = "mmu") -> int:
    """Emit a guest load from the address in *addr_reg*.

    The loaded value ends up in EAX (which the sequence clobbers, together
    with EDX).  *addr_reg* must not be EAX or EDX and is preserved.
    Returns the register holding the result (EAX).
    """
    _emit_probe(builder, addr_reg, size, access_offset=0, mmu_idx=mmu_idx,
                tag=tag)
    slow, done = builder.new_label("slow"), builder.new_label("done")
    builder.jcc(_X86_NE, slow, tag=tag)
    builder.mov(Reg(EAX), Mem(base=EDX, disp=12), tag=tag)
    builder.add(Reg(EAX), Reg(addr_reg), tag=tag)
    target = Mem(base=EAX, size=size)
    if size == 4:
        builder.mov(Reg(EAX), target, tag=tag)
    elif signed:
        builder.movsx(Reg(EAX), target, tag=tag)
    else:
        builder.movzx(Reg(EAX), target, tag=tag)
    builder.jmp(done, tag=tag)
    builder.bind(slow)
    helper = make_ld_helper(size, signed, mmu_idx, insn_pc)
    builder.push(Reg(addr_reg), tag=tag)
    builder.call_helper(helper, args=(Mem(base=ESP, disp=0),), tag=tag)
    builder.add(Reg(ESP), Imm(4), tag=tag)  # add esp, 4
    builder.bind(done)
    return EAX


def emit_store(builder: CodeBuilder, addr_reg: int, value_reg: int,
               size: int, mmu_idx: int, insn_pc: int,
               tag: str = "mmu") -> None:
    """Emit a guest store of *value_reg* to the address in *addr_reg*.

    Clobbers EAX and EDX; *addr_reg* and *value_reg* must not be either
    of those and are preserved.
    """
    _emit_probe(builder, addr_reg, size, access_offset=4, mmu_idx=mmu_idx,
                tag=tag)
    slow, done = builder.new_label("slow"), builder.new_label("done")
    builder.jcc(_X86_NE, slow, tag=tag)
    builder.mov(Reg(EAX), Mem(base=EDX, disp=12), tag=tag)
    builder.add(Reg(EAX), Reg(addr_reg), tag=tag)
    builder.mov(Mem(base=EAX, size=size), Reg(value_reg), tag=tag)
    builder.jmp(done, tag=tag)
    builder.bind(slow)
    helper = make_st_helper(size, mmu_idx, insn_pc)
    builder.push(Reg(value_reg), tag=tag)
    builder.push(Reg(addr_reg), tag=tag)
    builder.call_helper(
        helper, args=(Mem(base=ESP, disp=0), Mem(base=ESP, disp=4)),
        tag=tag)
    builder.add(Reg(ESP), Imm(8), tag=tag)  # add esp, 8
    builder.bind(done)


def _emit_probe(builder: CodeBuilder, addr_reg: int, size: int,
                access_offset: int, mmu_idx: int, tag: str) -> None:
    builder.mov(Reg(EDX), Reg(addr_reg), tag=tag)
    builder.shr(Reg(EDX), Imm(8), tag=tag)
    builder.and_(Reg(EDX), Imm(0xFF0), tag=tag)
    # Materialize the entry pointer (QEMU adds the per-mmu-idx table base
    # held in env; modelled as a lea on the index register).
    builder.lea(Reg(EDX), Mem(base=EDX,
                              disp=TLB_BASE + mmu_idx * _MMU_STRIDE),
                tag=tag)
    builder.mov(Reg(EAX), Reg(addr_reg), tag=tag)
    builder.and_(Reg(EAX), Imm(0xFFFFF000 | (size - 1)), tag=tag)
    builder.cmp(Reg(EAX), Mem(base=EDX, disp=access_offset), tag=tag)
