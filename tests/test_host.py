"""Unit tests for the host x86 model: flags semantics, interpreter, builder."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.host.interp as host_interp
from repro.common.errors import HostExecutionError
from repro.core import OptLevel, make_rule_engine
from repro.host import (CodeBuilder, EAX, EBX, ECX, EDX, ESI, ESP, HostCpu,
                        HostInterpreter, HostMemory, Imm, Mem, Reg, X86Cond,
                        X86Insn, X86Op)
from repro.host.interp import HOT_THRESHOLD
from repro.host.isa import REG_NAMES, Xmm
from repro.miniqemu.tb import TbExitException
from repro.observability import Profiler
from repro.robustness import ExecutionWatchdog
from tests.support import run_workload as run_guest

STACK_TOP = 0x2000


def make_host():
    memory = HostMemory()
    memory.map_region(0, bytearray(0x4000), "flat")
    cpu = HostCpu(stack_top=STACK_TOP)
    return HostInterpreter(cpu, memory), cpu, memory


class FakeTb:
    pc = 0

    def __init__(self, code):
        self.code = code
        self.jmp_target = [None, None]


def run(builder: CodeBuilder):
    builder.exit_tb(0)
    interp, cpu, memory = make_host()
    interp.execute(FakeTb(builder.finish()))
    return interp, cpu, memory


# ---------------------------------------------------------------------------
# Arithmetic flags.
# ---------------------------------------------------------------------------

def test_add_sets_carry_and_overflow():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0xFFFFFFFF)
    builder.add(Reg(EAX), Imm(1))
    _, cpu, _ = run(builder)
    assert cpu.regs[EAX] == 0
    assert (cpu.cf, cpu.zf, cpu.of) == (1, 1, 0)


def test_signed_overflow():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0x7FFFFFFF)
    builder.add(Reg(EAX), Imm(1))
    _, cpu, _ = run(builder)
    assert (cpu.of, cpu.sf, cpu.cf) == (1, 1, 0)


def test_sub_borrow():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.sub(Reg(EAX), Imm(2))
    _, cpu, _ = run(builder)
    assert cpu.regs[EAX] == 0xFFFFFFFF
    assert cpu.cf == 1 and cpu.sf == 1


def test_adc_sbb_chain():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0xFFFFFFFF)
    builder.add(Reg(EAX), Imm(1))      # CF=1
    builder.movi(Reg(EBX), 5)
    builder.adc(Reg(EBX), Imm(0))      # 5 + 0 + CF
    _, cpu, _ = run(builder)
    assert cpu.regs[EBX] == 6


def test_logical_preserves_cf_of():
    """Documented deviation: AND/OR/XOR/TEST keep CF/OF (see DESIGN.md)."""
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.sub(Reg(EAX), Imm(2))      # CF=1
    builder.and_(Reg(EAX), Imm(0xFF))
    _, cpu, _ = run(builder)
    assert cpu.cf == 1                 # real x86 would clear it


def test_inc_dec_preserve_carry():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.sub(Reg(EAX), Imm(2))      # CF=1
    builder.emit(X86Op.INC, Reg(EAX))
    _, cpu, _ = run(builder)
    assert cpu.cf == 1 and cpu.regs[EAX] == 0


def test_shift_carry_out():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0x80000001)
    builder.shr(Reg(EAX), Imm(1))
    _, cpu, _ = run(builder)
    assert cpu.cf == 1 and cpu.regs[EAX] == 0x40000000


def test_rcr_rotates_through_carry():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.sub(Reg(EAX), Imm(2))      # CF=1
    builder.movi(Reg(EBX), 2)
    builder.rcr1(Reg(EBX))
    _, cpu, _ = run(builder)
    assert cpu.regs[EBX] == 0x80000001
    assert cpu.cf == 0


def test_cmc_stc_clc():
    builder = CodeBuilder()
    builder.emit(X86Op.STC)
    builder.cmc()
    _, cpu, _ = run(builder)
    assert cpu.cf == 0


# ---------------------------------------------------------------------------
# Flags as a word (the coordination primitives).
# ---------------------------------------------------------------------------

def test_pushfd_popfd_roundtrip():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0)
    builder.sub(Reg(EAX), Imm(1))      # CF=1 SF=1
    builder.pushfd()
    builder.movi(Reg(EBX), 5)
    builder.add(Reg(EBX), Imm(5))      # clobber flags
    builder.popfd()
    _, cpu, _ = run(builder)
    assert cpu.cf == 1 and cpu.sf == 1 and cpu.zf == 0


def test_lahf_sahf():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.sub(Reg(EAX), Imm(1))      # ZF=1
    builder.lahf()
    builder.movi(Reg(EBX), 1)
    builder.add(Reg(EBX), Imm(1))      # ZF=0
    builder.sahf()
    _, cpu, _ = run(builder)
    assert cpu.zf == 1


def test_setcc_writes_low_byte_only():
    builder = CodeBuilder()
    builder.movi(Reg(EBX), 0xAABBCCDD)
    builder.movi(Reg(EAX), 0)
    builder.cmp(Reg(EAX), Imm(0))
    builder.setcc(X86Cond.E, Reg(EBX))
    _, cpu, _ = run(builder)
    assert cpu.regs[EBX] == 0xAABBCC01


def test_setcc_to_memory_byte():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.cmp(Reg(EAX), Imm(1))
    builder.setcc(X86Cond.E, Mem(base=None, disp=0x100, size=1))
    _, _, memory = run(builder)
    assert memory.read(0x100, 4) == 1


# ---------------------------------------------------------------------------
# Control flow, stack, memory operands.
# ---------------------------------------------------------------------------

def test_jcc_and_labels():
    builder = CodeBuilder()
    done = builder.new_label()
    builder.movi(Reg(EAX), 0)
    builder.movi(Reg(ECX), 5)
    loop = builder.new_label()
    builder.bind(loop)
    builder.add(Reg(EAX), Imm(3))
    builder.sub(Reg(ECX), Imm(1))
    builder.jcc(X86Cond.NE, loop)
    builder.bind(done)
    _, cpu, _ = run(builder)
    assert cpu.regs[EAX] == 15


def test_push_pop():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 42)
    builder.push(Reg(EAX))
    builder.movi(Reg(EAX), 0)
    builder.pop(Reg(EBX))
    _, cpu, _ = run(builder)
    assert cpu.regs[EBX] == 42
    assert cpu.regs[ESP] == STACK_TOP


def test_memory_scaled_index():
    builder = CodeBuilder()
    builder.movi(Reg(EBX), 0x200)
    builder.movi(Reg(ECX), 3)
    builder.movi(Reg(EAX), 0x11223344)
    builder.mov(Mem(base=EBX, index=ECX, scale=4), Reg(EAX))
    _, _, memory = run(builder)
    assert memory.read(0x20C, 4) == 0x11223344


def test_movzx_movsx():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 0xFFFFFF80)
    builder.mov(Mem(base=None, disp=0x300, size=1), Reg(EAX))
    builder.movzx(Reg(EBX), Mem(base=None, disp=0x300, size=1))
    builder.movsx(Reg(ECX), Mem(base=None, disp=0x300, size=1))
    _, cpu, _ = run(builder)
    assert cpu.regs[EBX] == 0x80
    assert cpu.regs[ECX] == 0xFFFFFF80


def test_helper_call_receives_stack_args():
    seen = []

    def helper(runtime, a, b):
        seen.append((a, b))
        return a + b

    builder = CodeBuilder()
    builder.movi(Reg(EAX), 7)
    builder.push(Imm(9))
    builder.push(Reg(EAX))
    builder.call_helper(helper, args=(Mem(base=ESP, disp=0),
                                      Mem(base=ESP, disp=4)))
    builder.add(Reg(ESP), Imm(8))
    _, cpu, _ = run(builder)
    assert seen == [(7, 9)]
    assert cpu.regs[EAX] == 16  # result in EAX


def test_unmapped_host_access_raises():
    builder = CodeBuilder()
    builder.mov(Reg(EAX), Mem(base=None, disp=0x999999))
    builder.exit_tb(0)
    interp, _, _ = make_host()
    with pytest.raises(HostExecutionError):
        interp.execute(FakeTb(builder.finish()))


def test_tag_attribution():
    builder = CodeBuilder(default_tag="code")
    with builder.tagged("sync"):
        builder.movi(Reg(EAX), 1)
        builder.movi(Reg(EBX), 2)
    builder.movi(Reg(ECX), 3)
    interp, _, _ = run(builder)
    assert interp.by_tag["sync"] == 2
    assert interp.by_tag["code"] == 2  # movi ecx + exit_tb


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))
def test_flags_add_matches_python(a, b):
    cpu = HostCpu()
    result = cpu.flags_add(a, b)
    assert result == (a + b) & 0xFFFFFFFF
    assert cpu.cf == (1 if a + b > 0xFFFFFFFF else 0)
    assert cpu.zf == (1 if result == 0 else 0)


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))
def test_flags_sub_matches_python(a, b):
    cpu = HostCpu()
    result = cpu.flags_sub(a, b)
    assert result == (a - b) & 0xFFFFFFFF
    assert cpu.cf == (1 if b > a else 0)


# ---------------------------------------------------------------------------
# HostInterpreter._step against the x86 definition.
#
# Compiled code steps the ops the block generator does not cover through
# _step itself, so the differential tests below cannot catch a wrong _step.
# Each row gives the state an instruction starts from and the x86 result:
# keys are register, xmm and flag names, or an address holding a u32.
# Everything a row does not list must stay as it was.  Where the x86
# definition leaves a flag undefined the model keeps it; where the model
# deviates from x86 the row says so (see DESIGN.md, section 5).
# ---------------------------------------------------------------------------

WORD = 0x100                     # a memory word the rows use
AT_WORD = Mem(disp=WORD)
ALL_FLAGS_SET = {"cf": 1, "zf": 1, "sf": 1, "of": 1}
ONE_HALF, TWO_QUARTERS = 0x3FC00000, 0x40100000     # 1.5f, 2.25f

STEP_CASES = [
    # bsr: index of the highest set bit; ZF says whether the source is 0.
    pytest.param(X86Insn(X86Op.BSR, Reg(EAX), Reg(EBX)),
                 {"ebx": 0x00012000, **ALL_FLAGS_SET}, {"eax": 16, "zf": 0},
                 id="bsr"),
    pytest.param(X86Insn(X86Op.BSR, Reg(EAX), AT_WORD),
                 {WORD: 0x80000000}, {"eax": 31}, id="bsr-mem"),
    # A zero source sets ZF and leaves the destination unchanged.
    pytest.param(X86Insn(X86Op.BSR, Reg(EAX), Reg(EBX)),
                 {"eax": 0x1234, "ebx": 0}, {"zf": 1}, id="bsr-zero"),
    # lahf: AH = SF:ZF:0:AF:0:PF:1:CF; bit 1 is always set (AF and PF
    # are not modelled and read 0); the rest of EAX is kept.
    pytest.param(X86Insn(X86Op.LAHF),
                 {"eax": 0x12345678, "sf": 1, "cf": 1, "of": 1},
                 {"eax": 0x12348378}, id="lahf"),
    pytest.param(X86Insn(X86Op.LAHF), {"eax": 0xFFFFFFFF, "zf": 1},
                 {"eax": 0xFFFF42FF}, id="lahf-zf"),
    # sahf: SF, ZF and CF from AH bits 7, 6 and 0; OF is kept.
    pytest.param(X86Insn(X86Op.SAHF), {"eax": 0x0000C100},
                 {"sf": 1, "zf": 1, "cf": 1}, id="sahf"),
    pytest.param(X86Insn(X86Op.SAHF), {"eax": 0xFFFF00FF, **ALL_FLAGS_SET},
                 {"sf": 0, "zf": 0, "cf": 0}, id="sahf-clear"),
    # rcr 1 rotates through CF; SF and ZF are kept.  Model: OF is kept
    # too (x86 sets it to MSB(dst) ^ CF for a one-bit rcr).
    pytest.param(X86Insn(X86Op.RCR, Reg(EBX), Imm(1)),
                 {"ebx": 2, "cf": 1}, {"ebx": 0x80000001, "cf": 0},
                 id="rcr-cf-in"),
    pytest.param(X86Insn(X86Op.RCR, Reg(EBX), Imm(1)),
                 {"ebx": 3, "zf": 1}, {"ebx": 1, "cf": 1}, id="rcr-cf-out"),
    # rol/ror: CF is the bit that wrapped round; the count is taken mod
    # 32 and OF is undefined for counts above 1.  Model: SF and ZF
    # follow the result (x86 rotates keep them).
    pytest.param(X86Insn(X86Op.ROL, Reg(EAX), Imm(4)),
                 {"eax": 0x80000001, "zf": 1}, {"eax": 0x18, "zf": 0},
                 id="rol"),
    pytest.param(X86Insn(X86Op.ROL, Reg(EAX), Reg(ECX)),
                 {"eax": 0x10000000, "ecx": 36}, {"eax": 1, "cf": 1},
                 id="rol-cl"),
    pytest.param(X86Insn(X86Op.ROR, Reg(EAX), Imm(1)),
                 {"eax": 1}, {"eax": 0x80000000, "cf": 1, "sf": 1},
                 id="ror"),
    # Shifts by CL (compiled code steps them): count mod 32, and a zero
    # count changes no flag.
    pytest.param(X86Insn(X86Op.SHR, Reg(EAX), Reg(ECX)),
                 {"eax": 0x80000018, "ecx": 4}, {"eax": 0x08000001, "cf": 1},
                 id="shr-cl"),
    pytest.param(X86Insn(X86Op.SAR, Reg(EAX), Reg(ECX)),
                 {"eax": 0x80000000, "ecx": 31},
                 {"eax": 0xFFFFFFFF, "sf": 1}, id="sar-cl"),
    pytest.param(X86Insn(X86Op.SHL, Reg(EAX), Reg(ECX)),
                 {"eax": 0xC0000000, "ecx": 1},
                 {"eax": 0x80000000, "cf": 1, "sf": 1}, id="shl-cl"),
    pytest.param(X86Insn(X86Op.SHL, Reg(EAX), Reg(ECX)),
                 {"eax": 0xFFFFFFFF, "ecx": 32, "zf": 1}, {},
                 id="shl-cl-zero"),
    # movsx sign-extends a byte register, byte or word; no flag moves.
    pytest.param(X86Insn(X86Op.MOVSX, Reg(EAX), Reg(EBX)),
                 {"ebx": 0x12345680}, {"eax": 0xFFFFFF80}, id="movsx-r8"),
    pytest.param(X86Insn(X86Op.MOVSX, Reg(EAX),
                         Mem(disp=WORD, size=1)),
                 {WORD: 0xFFFFFF7F}, {"eax": 0x7F}, id="movsx-m8"),
    pytest.param(X86Insn(X86Op.MOVSX, Reg(EAX),
                         Mem(disp=WORD, size=2)),
                 {WORD: 0x00008001}, {"eax": 0xFFFF8001}, id="movsx-m16"),
    # dec writes ZF, SF and OF and keeps CF.
    pytest.param(X86Insn(X86Op.DEC, Reg(EAX)),
                 {"eax": 0x80000000, "cf": 1, "sf": 1},
                 {"eax": 0x7FFFFFFF, "of": 1, "sf": 0}, id="dec-overflow"),
    pytest.param(X86Insn(X86Op.DEC, Reg(EAX)), {"eax": 0},
                 {"eax": 0xFFFFFFFF, "sf": 1}, id="dec-wraps-keeps-cf"),
    pytest.param(X86Insn(X86Op.DEC, AT_WORD), {WORD: 1},
                 {WORD: 0, "zf": 1}, id="dec-mem"),
    # clc/stc/cmc write CF only; nop writes nothing.
    pytest.param(X86Insn(X86Op.CLC), ALL_FLAGS_SET, {"cf": 0}, id="clc"),
    pytest.param(X86Insn(X86Op.STC), {}, {"cf": 1}, id="stc"),
    pytest.param(X86Insn(X86Op.CMC), {"cf": 1}, {"cf": 0}, id="cmc"),
    pytest.param(X86Insn(X86Op.NOPSLOT), {"eax": 7, **ALL_FLAGS_SET}, {},
                 id="nopslot"),
    # SSE scalar single precision: bit patterns move unchanged, and the
    # arithmetic rounds to f32; EFLAGS is untouched.
    pytest.param(X86Insn(X86Op.MOVSS, Xmm(0), Xmm(1)),
                 {"xmm1": ONE_HALF}, {"xmm0": ONE_HALF}, id="movss-xmm"),
    pytest.param(X86Insn(X86Op.MOVSS, Xmm(2), AT_WORD),
                 {WORD: TWO_QUARTERS}, {"xmm2": TWO_QUARTERS},
                 id="movss-load"),
    pytest.param(X86Insn(X86Op.MOVSS, AT_WORD, Xmm(3)),
                 {"xmm3": ONE_HALF}, {WORD: ONE_HALF}, id="movss-store"),
    pytest.param(X86Insn(X86Op.ADDSS, Xmm(0), Xmm(1)),
                 {"xmm0": ONE_HALF, "xmm1": TWO_QUARTERS, "cf": 1},
                 {"xmm0": 0x40700000}, id="addss"),              # 3.75
    pytest.param(X86Insn(X86Op.SUBSS, Xmm(0), AT_WORD),
                 {"xmm0": ONE_HALF, WORD: TWO_QUARTERS},
                 {"xmm0": 0xBF400000}, id="subss-mem"),          # -0.75
    pytest.param(X86Insn(X86Op.MULSS, Xmm(4), Xmm(5)),
                 {"xmm4": ONE_HALF, "xmm5": TWO_QUARTERS},
                 {"xmm4": 0x40580000}, id="mulss"),              # 3.375
    pytest.param(X86Insn(X86Op.MULSS, Xmm(4), Xmm(4)),
                 {"xmm4": ONE_HALF}, {"xmm4": 0x40100000},
                 id="mulss-same-reg"),                           # 2.25
]


def _step_state(cpu, data: bytearray) -> dict:
    """Every register, xmm register and flag, and every memory word."""
    state = {name: cpu.regs[n] for n, name in enumerate(REG_NAMES)}
    state.update({f"xmm{n}": value for n, value in enumerate(cpu.xmm)})
    state.update(cf=cpu.cf, zf=cpu.zf, sf=cpu.sf, of=cpu.of)
    state.update({addr: int.from_bytes(data[addr:addr + 4], "little")
                  for addr in range(0, len(data), 4)})
    return state


@pytest.mark.parametrize("insn, before, changes", STEP_CASES)
def test_step_follows_the_x86_definition(insn, before, changes):
    data = bytearray(0x200)
    memory = HostMemory()
    memory.map_region(0, data, "flat")
    cpu = HostCpu(stack_top=len(data))
    for n in range(8):
        if n != ESP:
            cpu.regs[n] = 0x01010101 * (n + 1)   # distinct, so kept ones show
    for key, value in before.items():
        if isinstance(key, int):
            data[key:key + 4] = value.to_bytes(4, "little")
        elif key.startswith("xmm"):
            cpu.xmm[int(key[3:])] = value
        elif key in REG_NAMES:
            cpu.regs[REG_NAMES.index(key)] = value
        else:
            setattr(cpu, key, value)
    expected = {**_step_state(cpu, data), **changes}
    HostInterpreter(cpu, memory)._step(insn)
    assert _step_state(cpu, data) == expected


# ---------------------------------------------------------------------------
# Threaded code vs the interpreter (differential).
#
# A TB entered HOT_THRESHOLD times runs as compiled threaded code; one
# entered fewer times is interpreted.  Both must leave identical
# registers, flags, xmm, memory, counters and errors on every exit path.
# ---------------------------------------------------------------------------

MEM_SIZE = 0x4000
CONTROL_OPS = (X86Op.JMP, X86Op.JCC, X86Op.CALL_HELPER, X86Op.GOTO_TB,
               X86Op.EXIT_TB)
SSE_OPS = (X86Op.MOVSS, X86Op.ADDSS, X86Op.SUBSS, X86Op.MULSS)
BODY_OPS = [op for op in X86Op if op not in CONTROL_OPS]
TAGS = ("code", "sync", "mmu")


class HotTb(FakeTb):
    """A TB-like object entered *exec_count* times."""

    mmu_idx = 0

    def __init__(self, code, exec_count, pc=0):
        super().__init__(code)
        self.exec_count = exec_count
        self.pc = pc
        self.compiled = None


_regs = st.integers(0, 7)
# Small values make memory operands built on them map; the others reach
# carries, overflows and sign bits.
_words = st.one_of(st.integers(0, MEM_SIZE), st.integers(0, 0xFFFFFFFF),
                   st.integers(0x7FFFFF00, 0x800000FF),
                   st.integers(0xFFFFFF00, 0xFFFFFFFF))
_mems = st.builds(Mem, base=st.one_of(st.none(), _regs),
                  disp=st.integers(-8, MEM_SIZE), index=st.one_of(
                      st.none(), _regs), scale=st.sampled_from((1, 2, 4)),
                  size=st.sampled_from((1, 2, 4)))
#: Operand strategies by kind; SSE ops take the Xmm and Mem kinds.
OPERAND_KINDS = {
    "reg": st.builds(Reg, _regs),
    "imm": st.builds(Imm, st.one_of(st.integers(-2 ** 31, 2 ** 32 - 1),
                                    st.integers(0, 40))),
    "mem": _mems,
    "xmm": st.builds(Xmm, _regs),
}
_gpr_operands = st.one_of(*(OPERAND_KINDS[kind]
                            for kind in ("reg", "imm", "mem")))
_sse_operands = st.one_of(OPERAND_KINDS["xmm"], OPERAND_KINDS["mem"])
_tags = st.sampled_from(TAGS)


def operand_kinds(op):
    return ("xmm", "mem") if op in SSE_OPS else ("reg", "imm", "mem")


@st.composite
def body_insns(draw, op=None, dst=None, src=None):
    """One non-control instruction; operands not given are drawn."""
    if op is None:
        op = draw(st.sampled_from(BODY_OPS))
    operands = _sse_operands if op in SSE_OPS else _gpr_operands
    return X86Insn(op, dst if dst is not None else draw(operands),
                   src if src is not None else draw(operands),
                   cond=draw(st.sampled_from(list(X86Cond))),
                   tag=draw(_tags))


@st.composite
def host_states(draw):
    regs = draw(st.lists(_words, min_size=8, max_size=8))
    regs[ESP] = draw(st.integers(8, MEM_SIZE - 8))
    flags = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    xmm = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=8, max_size=8))
    return regs, flags, xmm, draw(st.integers(0, 2 ** 32))


def make_state(state):
    regs, flags, xmm, seed = state
    data = bytearray(random.Random(seed).randbytes(MEM_SIZE))
    memory = HostMemory()
    memory.map_region(0, data, "flat")
    cpu = HostCpu()
    cpu.regs[:] = regs
    cpu.cf, cpu.zf, cpu.sf, cpu.of = flags
    cpu.xmm[:] = xmm
    interp = HostInterpreter(cpu, memory)
    interp.profiler = Profiler()
    return interp, data


def observe(interp, data, run):
    """Run *run()* and snapshot everything it can have changed."""
    try:
        result = run()
        chain = result.chain
        outcome = (result.status, chain and (chain[0].pc, chain[1]))
    except Exception as error:  # compared between the two paths
        outcome = (type(error).__name__, str(error))
    cpu = interp.cpu
    watchdog = interp.watchdog
    return {
        "outcome": outcome,
        "regs": list(cpu.regs), "xmm": list(cpu.xmm),
        "flags": (cpu.cf, cpu.zf, cpu.sf, cpu.of), "memory": bytes(data),
        "total": interp.total, "by_tag": list(interp.by_tag.items()),
        "profile": {key: list(tags.items())
                    for key, tags in interp.profiler._tags.items()},
        "trips": watchdog.trips if watchdog is not None else None,
    }


def run_both_ways(code, state, limit=None):
    """Observations of the interpreted and the compiled run of *code*."""
    seen = []
    for exec_count in (0, HOT_THRESHOLD):
        interp, data = make_state(state)
        if limit is not None:
            interp.watchdog = ExecutionWatchdog(max_host_insns=limit)
        tb = HotTb(code, exec_count)
        seen.append(observe(interp, data, lambda: interp.execute(tb)))
    assert tb.compiled is not None and tb.compiled.entry is not None
    return seen


@pytest.mark.parametrize("op", BODY_OPS, ids=lambda op: op.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), state=host_states())
def test_compiled_op_matches_interpreter(op, data, state):
    """Every op on every operand kind, alone and between two other ops."""
    kinds = operand_kinds(op)
    dsts = {kind: data.draw(OPERAND_KINDS[kind]) for kind in kinds}
    srcs = {kind: data.draw(OPERAND_KINDS[kind]) for kind in kinds}
    before = data.draw(body_insns())
    after = data.draw(body_insns())
    for dst_kind in kinds:
        for src_kind in kinds:
            insn = data.draw(body_insns(op, dsts[dst_kind], srcs[src_kind]))
            for code in ([insn], [before, insn, after]):
                code = code + [X86Insn(X86Op.EXIT_TB, imm=1)]
                interpreted, compiled = run_both_ways(code, state)
                assert compiled == interpreted, (dst_kind, src_kind)


@st.composite
def programs(draw):
    """Random straight-line code with jumps anywhere, loops included."""
    code = draw(st.lists(body_insns(), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from((X86Op.JCC, X86Op.JMP)))
        code.insert(draw(st.integers(0, len(code))),
                    X86Insn(op, cond=draw(st.sampled_from(list(X86Cond))),
                            tag=draw(_tags)))
    code.append(X86Insn(X86Op.EXIT_TB, imm=draw(st.integers(0, 3))))
    for insn in code:
        if insn.op in (X86Op.JCC, X86Op.JMP):
            # len(code) falls off the end of the TB.
            insn.target_index = draw(st.integers(0, len(code)))
    return code


@settings(max_examples=300, deadline=None)
@given(code=programs(), state=host_states(), limit=st.integers(1, 64))
def test_compiled_program_matches_interpreter(code, state, limit):
    """Branches, loops, watchdog trips and faults at any point."""
    interpreted, compiled = run_both_ways(code, state, limit=limit)
    assert compiled == interpreted


def flat_state():
    return [0] * ESP + [STACK_TOP] + [0] * 3, [0] * 4, [0] * 8, 1


def test_watchdog_trip_inside_compiled_block():
    builder = CodeBuilder()
    loop = builder.new_label()
    builder.bind(loop)
    builder.add(Reg(EAX), Imm(1))
    with builder.tagged("sync"):
        builder.mov(Mem(base=None, disp=0x100), Reg(EAX))
    builder.jmp(loop)
    builder.exit_tb(0)
    code = builder.finish()
    interpreted, compiled = run_both_ways(code, flat_state(), limit=10)
    assert compiled == interpreted
    assert compiled["outcome"][0] == "WatchdogTimeout"
    assert compiled["total"] == 11 and compiled["trips"] == 1
    # The trip lands mid-block: 11 = 3 full loops + the add and the mov.
    assert compiled["by_tag"] == [("code", 7), ("sync", 4)]


def test_helper_exit_mid_block_counts_through_the_helper():
    def raising_helper(runtime):
        raise TbExitException(3)

    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.call_helper(raising_helper)
    with builder.tagged("sync"):
        builder.movi(Reg(EBX), 2)
    builder.exit_tb(0)
    interpreted, compiled = run_both_ways(builder.finish(), flat_state())
    assert compiled == interpreted
    assert compiled["outcome"][0] == "TbExitException"
    assert compiled["total"] == 2
    assert compiled["by_tag"] == [("code", 2)]


def test_unmapped_fault_mid_block_counts_up_to_the_fault():
    builder = CodeBuilder()
    builder.movi(Reg(EAX), 1)
    builder.mov(Reg(EBX), Mem(base=None, disp=0x999999))
    with builder.tagged("sync"):
        builder.movi(Reg(ECX), 2)     # never runs: its tag must not appear
    builder.exit_tb(0)
    interpreted, compiled = run_both_ways(builder.finish(), flat_state())
    assert compiled == interpreted
    assert compiled["outcome"][0] == "HostExecutionError"
    assert compiled["total"] == 2
    assert compiled["by_tag"] == [("code", 2)]
    assert compiled["regs"][EAX] == 1


def chain_tb(pc, exec_count, value):
    builder = CodeBuilder()
    builder.add(Reg(EAX), Imm(value))
    builder.emit(X86Op.GOTO_TB, imm=0)
    builder.exit_tb(0)
    return HotTb(builder.finish(), exec_count, pc=pc)


def run_chain(exec_counts):
    interp, data = make_state(flat_state())
    first, middle, last = (chain_tb(pc, count, value) for pc, count, value in
                           zip((0x10, 0x20, 0x30), exec_counts, (1, 10, 100)))
    first.jmp_target[0] = middle
    middle.jmp_target[0] = last
    entered = []
    interp.on_tb_enter = entered.append
    seen = observe(interp, data, lambda: interp.execute(first))
    return seen, entered, (first, middle, last)


def test_hot_cold_hot_chain_matches_interpreter():
    threshold = HOT_THRESHOLD
    seen, entered, tbs = run_chain((threshold, 0, threshold))
    reference, reference_entered, _ = run_chain((0, 0, 0))
    assert seen == reference
    assert [tb.pc for tb in entered] == [tb.pc for tb in reference_entered]
    assert [tb.pc for tb in entered] == [0x20, 0x30]
    assert seen["regs"][EAX] == 111
    assert seen["profile"].keys() == {(0x10, 0), (0x20, 0), (0x30, 0)}
    first, middle, last = tbs
    assert first.compiled is not None and last.compiled is not None
    assert middle.compiled is None      # cold: interpreted, never compiled


def test_unlinked_chain_target_is_not_entered():
    interp, _ = make_state(flat_state())
    first = chain_tb(0x10, HOT_THRESHOLD, 1)
    second = chain_tb(0x20, 0, 10)
    first.jmp_target[0] = second
    entered = []
    interp.on_tb_enter = entered.append
    interp.execute(first)               # compiles first, chains to second
    assert entered == [second] and first.compiled is not None
    first.jmp_target[0] = None          # what CodeCache.invalidate does
    exit_info = interp.execute(first)
    assert entered == [second]
    assert exit_info.chain == (first, 0)
    assert interp.cpu.regs[EAX] == 12


def test_program_of_another_interpreter_runs_interpreted():
    """The self-check sandbox runs copies of live TBs on its own host."""
    builder = CodeBuilder()
    builder.add(Reg(EAX), Imm(5))
    builder.exit_tb(0)
    tb = HotTb(builder.finish(), HOT_THRESHOLD)
    owner, _ = make_state(flat_state())
    owner.execute(tb)
    program = tb.compiled
    sandbox, _ = make_state(flat_state())
    shadow = copy.copy(tb)
    sandbox.execute(shadow)
    assert shadow.compiled is program and program.owner is owner
    assert sandbox.cpu.regs[EAX] == 5 and sandbox.total == 2


def test_selfcheck_on_hot_tbs_and_counters_match_interpreted_run(
        monkeypatch):
    body = """
main:
    mov r4, #0
    mov r5, #0
loop:
    add r4, r4, r5
    eor r4, r4, r5, lsl #2
    add r5, r5, #1
    cmp r5, #300
    blt loop
    mov r0, r4
    bl updec
    mov r0, #0
    bl uexit
"""
    kwargs = {"engine": "rules", "selfcheck_interval": 1,
              "rule_engine_factory": make_rule_engine(OptLevel.FULL)}
    code, text, machine = run_guest(body, **kwargs)
    stats = machine.stats()
    assert code == 0
    assert stats["robust.selfcheck_checks"] > HOT_THRESHOLD
    assert stats["robust.selfcheck_failures"] == 0
    compiled = [tb.compiled for tb in machine.engine.cache.all_tbs()
                if tb.compiled is not None]
    assert compiled
    assert all(program.owner is machine.host for program in compiled)
    # Never compiling must change nothing a run reports.
    monkeypatch.setattr(host_interp, "HOT_THRESHOLD", 10 ** 9)
    code, reference_text, reference = run_guest(body, **kwargs)
    assert reference_text == text
    assert reference.stats() == stats
    assert list(reference.stats()) == list(stats)


def shaped_code(disp, value):
    """One block: load [ebx + disp], add *value*, store it 4 bytes on."""
    builder = CodeBuilder()
    builder.mov(Reg(EAX), Mem(base=EBX, disp=disp))
    builder.add(Reg(EAX), Imm(value))
    builder.mov(Mem(base=EBX, disp=disp + 4), Reg(EAX))
    builder.exit_tb(0)
    return builder.finish()


def test_bodies_of_one_shape_share_code_but_not_constants():
    codes = [shaped_code(0x100, 5), shaped_code(0x208, 0x7FFFFFFF)]
    for code in codes:
        interpreted, compiled = run_both_ways(code, flat_state())
        assert compiled == interpreted
    # Both TBs hot in one interpreter against both interpreted.
    seen = []
    for exec_count in (0, HOT_THRESHOLD):
        interp, data = make_state(flat_state())
        tbs = [HotTb(code, exec_count, pc=pc)
               for pc, code in zip((0x10, 0x20), codes)]
        seen.append(observe(interp, data, lambda: [
            interp.execute(tb) for tb in tbs][-1]))
    assert seen[1] == seen[0]
    assert all(tb.compiled.entry.body is not None for tb in tbs)
    assert tbs[0].compiled.entry.body is not tbs[1].compiled.entry.body
    assert len(interp._codes) == 1      # one code object for both bodies


TABLE = 0x80      # low-region address table the region loop walks
HIGH_BASE = 0x1000


def region_loop():
    """Walk TABLE: for each entry, mov eax, [entry] and store a sum."""
    builder = CodeBuilder()
    loop = builder.new_label()
    builder.bind(loop)
    builder.mov(Reg(EBX), Mem(base=ESI, disp=0))
    builder.mov(Reg(EAX), Mem(base=EBX, disp=0))
    builder.add(Reg(ECX), Reg(EAX))
    builder.mov(Mem(base=EBX, disp=4), Reg(ECX))
    builder.add(Reg(ESI), Imm(4))
    builder.sub(Reg(EDX), Imm(1))
    builder.jcc(X86Cond.NE, loop)
    builder.exit_tb(0)
    return builder.finish()


def run_two_regions(exec_count, iterations):
    """The region loop on a low and a high region with a gap between."""
    low, high = bytearray(range(256)), bytearray(range(255, -1, -1))
    addresses = [0x10, HIGH_BASE + 0x20, 0x30, HIGH_BASE + 0x40, 0x800,
                 HIGH_BASE + 0x50]
    for slot, address in enumerate(addresses):
        low[TABLE + 4 * slot:TABLE + 4 * slot + 4] = \
            address.to_bytes(4, "little")
    memory = HostMemory()
    memory.map_region(0, low, "low")
    memory.map_region(HIGH_BASE, high, "high")
    finds = []
    find = memory._find
    memory._find = lambda addr, size: finds.append(addr) or find(addr,
                                                                 size)
    cpu = HostCpu(stack_top=0x100)
    cpu.regs[ESI], cpu.regs[EDX] = TABLE, iterations
    interp = HostInterpreter(cpu, memory)
    interp.profiler = Profiler()
    tb = HotTb(region_loop(), exec_count)
    seen = observe(interp, low, lambda: interp.execute(tb))
    seen["high"] = bytes(high)
    return seen, finds


@pytest.mark.parametrize("iterations", [4, 6])
def test_memory_site_follows_its_operand_across_regions(iterations):
    """Four iterations alternate regions; six also reach the unmapped
    0x800 on the fifth, which must fault as the interpreter faults."""
    interpreted, _ = run_two_regions(0, iterations)
    compiled, finds = run_two_regions(HOT_THRESHOLD, iterations)
    assert compiled == interpreted
    assert len(finds) >= 4             # the sites refilled on region changes
    if iterations == 6:
        assert compiled["outcome"][0] == "HostExecutionError"
        assert "0x00000800" in compiled["outcome"][1]
    else:
        assert compiled["outcome"] == (0, None)
