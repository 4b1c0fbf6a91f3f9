"""Unit tests for the TCG-like IR, its optimizer, and the backend."""

from repro.host.isa import X86Op
from repro.ir.ops import IRBuilder, IRCond, IROp
from repro.ir.opt import (eliminate_dead_env_stores, eliminate_dead_temps,
                          optimize)
from repro.miniqemu.backend import TcgBackend


def test_builder_temps_are_fresh():
    build = IRBuilder()
    a = build.movi(1)
    b = build.movi(2)
    assert a != b
    total = build.add(a, b)
    assert build.insns[-1].dst == total


def test_dead_env_store_elimination():
    build = IRBuilder()
    value1 = build.movi(1)
    build.st_env(value1, 0x40)
    value2 = build.movi(2)
    build.st_env(value2, 0x40)    # overwrites before any read
    build.exit_tb(0)
    optimized = eliminate_dead_env_stores(build.insns)
    stores = [i for i in optimized if i.op is IROp.ST_ENV]
    assert len(stores) == 1
    assert stores[0].args[0] == value2


def test_env_store_kept_when_read_between():
    build = IRBuilder()
    value1 = build.movi(1)
    build.st_env(value1, 0x40)
    build.ld_env(0x40)
    value2 = build.movi(2)
    build.st_env(value2, 0x40)
    build.exit_tb(0)
    optimized = eliminate_dead_env_stores(build.insns)
    stores = [i for i in optimized if i.op is IROp.ST_ENV]
    assert len(stores) == 2


def test_env_store_kept_across_call_barrier():
    build = IRBuilder()
    value1 = build.movi(1)
    build.st_env(value1, 0x40)
    build.call(lambda runtime: None)
    value2 = build.movi(2)
    build.st_env(value2, 0x40)
    build.exit_tb(0)
    optimized = eliminate_dead_env_stores(build.insns)
    stores = [i for i in optimized if i.op is IROp.ST_ENV]
    assert len(stores) == 2


def test_dead_temp_elimination_cascades():
    build = IRBuilder()
    a = build.movi(1)
    b = build.add(a, 2)
    build.add(b, 3)               # c: never used
    keep = build.movi(9)
    build.st_env(keep, 0x10)
    build.exit_tb(0)
    optimized = eliminate_dead_temps(build.insns)
    # a, b and c all die together.
    assert len([i for i in optimized if i.op in (IROp.MOVI, IROp.ADD)]) == 1


def test_optimize_pipeline_shrinks_flag_stores():
    """Two consecutive flag computations: the first is dead."""
    build = IRBuilder()
    for value in (1, 2):
        reg = build.movi(value)
        n = build.and_(build.shr(reg, 31), 1)
        build.st_env(n, 0x40)
        z = build.setcond(IRCond.EQ, reg, 0)
        build.st_env(z, 0x44)
    build.exit_tb(0)
    optimized = optimize(build.insns)
    stores = [i for i in optimized if i.op is IROp.ST_ENV]
    assert len(stores) == 2  # only the second N/Z pair survives


def test_backend_reuses_dying_source_register():
    build = IRBuilder()
    a = build.movi(5)
    b = build.add(a, 7)           # a dies here: two-address reuse
    build.st_env(b, 0x20)
    build.exit_tb(0)
    code = TcgBackend(0).lower(build.insns)
    movs = [i for i in code if i.op is X86Op.MOV]
    adds = [i for i in code if i.op is X86Op.ADD]
    assert len(adds) == 1
    # mov reg,5 ; add reg,7 ; mov [env],reg ; exit -- no extra copy.
    assert len(movs) == 2


def test_backend_spills_when_out_of_registers():
    build = IRBuilder()
    temps = [build.movi(i) for i in range(8)]  # more than 6 registers
    total = temps[0]
    for temp in temps[1:]:
        total = build.add(total, temp)
    build.st_env(total, 0x20)
    build.exit_tb(0)
    code = TcgBackend(0).lower(build.insns)
    # It must lower without raising, producing at least one spill store.
    spill_stores = [i for i in code if i.op is X86Op.MOV and
                    hasattr(i.dst, "disp") and i.dst.disp >= 0x64]
    assert spill_stores


def test_backend_variable_shift_uses_cl():
    build = IRBuilder()
    value = build.movi(0xF0)
    amount = build.movi(4)
    build.st_env(build.shr(value, amount), 0x20)
    build.exit_tb(0)
    code = TcgBackend(0).lower(build.insns)
    shifts = [i for i in code if i.op is X86Op.SHR]
    assert len(shifts) == 1
    assert shifts[0].src.number == 1  # ECX
