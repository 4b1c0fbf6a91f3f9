"""Shared test helpers: boot a machine with the mini-kernel and a
workload, and hand-made candidate rules the rule verifier must refute."""

from __future__ import annotations

from repro.guest.asm import assemble
from repro.guest.decoder import decode
from repro.host.builder import CodeBuilder
from repro.host.isa import EBX, ESI, Imm, Reg
from repro.kernel.kernel import (DEFAULT_TIMER_RELOAD, build_kernel,
                                 build_user_program)
from repro.learning.extract import CandidateRule
from repro.miniqemu.machine import Machine


def boot_machine(user_body: str, engine: str = "interp",
                 timer_reload: int = DEFAULT_TIMER_RELOAD,
                 rule_engine_factory=None, **machine_kwargs) -> Machine:
    """Create a machine with the kernel + a user program loaded, pc at reset."""
    machine = Machine(engine=engine, rule_engine_factory=rule_engine_factory,
                      **machine_kwargs)
    kernel = build_kernel(timer_reload=timer_reload)
    user = build_user_program(user_body)
    machine.memory.load_program(kernel)
    machine.memory.load_program(user)
    machine.cpu.regs[15] = 0  # reset vector
    machine.env.load_from_cpu(machine.cpu)
    return machine


def run_workload(user_body: str, engine: str = "interp",
                 max_insns: int = 20_000_000, **kwargs):
    """Boot, run to halt; returns (exit_code, uart_text, machine)."""
    machine = boot_machine(user_body, engine=engine, **kwargs)
    code = machine.run(max_insns)
    return code, machine.uart.text, machine


def _guest_fragment(source: str):
    program = assemble(source, base=0)
    return [decode(int.from_bytes(program.data[i:i + 4], "little"), i)
            for i in range(0, len(program.data), 4)]


def refutable_fixture() -> CandidateRule:
    """A candidate whose host code computes the wrong value.

    Guest: ``add r4, r4, r5`` — host: ``sub ebx, esi``.
    """
    builder = CodeBuilder()
    builder.sub(Reg(EBX), Reg(ESI))
    return CandidateRule(
        function="__fixture_wrong_add", line=1,
        guest=_guest_fragment("    add r4, r4, r5"),
        host=list(builder.insns),
        guest_vars={"a": "r4", "b": "r5"},
        host_vars={"a": EBX, "b": ESI})


#: the only 12-bit pattern on which the alternating-mask guest is 1.
ALTERNATING_WITNESS = 0x555


def alternating_mask_fixture() -> CandidateRule:
    """A candidate wrong on one input in 4096: sampling rarely sees it.

    Guest: ``y = x & ~(x>>1) & (x>>2) & ~(x>>3) & ... & ~(x>>11) & 1``,
    an ``and``/``bic`` chain with ``lsr #k`` operands that is 1 exactly
    when the low 12 bits of ``x`` are ``0x555``.  Host: ``y = 0``.
    """
    lines = ["    bic r5, r4, r4, lsr #1"]
    lines += [f"    {'and' if k % 2 == 0 else 'bic'} r5, r5, r4, lsr #{k}"
              for k in range(2, 12)]
    lines.append("    and r5, r5, #1")
    builder = CodeBuilder()
    builder.mov(Reg(ESI), Imm(0))
    return CandidateRule(
        function="__fixture_alternating_mask", line=1,
        guest=_guest_fragment("\n".join(lines)),
        host=list(builder.insns),
        guest_vars={"x": "r4", "y": "r5"},
        host_vars={"x": EBX, "y": ESI})
