#!/usr/bin/env python3
"""Quickstart: boot the mini guest OS and run a program on every engine.

Builds the machine (guest CPU + softmmu + devices), loads the ARMv7
mini-kernel and a small user program, and executes it on:

- the reference ARM interpreter,
- MiniQEMU (the TCG-style baseline),
- the rule-based DBT at Base and at full optimization,

then prints each engine's console output and cost metrics.

Run:  python examples/quickstart.py
"""

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.harness.report import format_table
from repro.kernel.kernel import build_kernel, build_user_program
from repro.miniqemu.machine import Machine

PROGRAM = r"""
main:
    adr r0, banner
    mov r1, #33
    bl uputs
    @ compute sum of cubes 1..20 = 44100
    mov r4, #0
    mov r5, #1
loop:
    mul r6, r5, r5
    mul r6, r6, r5
    add r4, r4, r6
    add r5, r5, #1
    cmp r5, #20
    ble loop
    mov r0, r4
    bl updec
    mov r0, #0
    bl uexit
banner:
    .asciz "hello from the guest kernel!\n   "
"""


def run(engine: str, factory=None) -> dict:
    machine = Machine(engine=engine, rule_engine_factory=factory)
    machine.memory.load_program(build_kernel())
    machine.memory.load_program(build_user_program(PROGRAM))
    machine.cpu.regs[15] = 0  # reset vector
    machine.env.load_from_cpu(machine.cpu)
    exit_code = machine.run()
    stats = machine.stats()
    return {
        "output": machine.uart.text,
        "exit": exit_code,
        "guest_insns": machine.guest_icount,
        "host_cost": stats["engine.host_cost"],
        "per_guest": stats["engine.host_cost"] / machine.guest_icount,
    }


def main():
    results = {
        "interpreter": run("interp"),
        "MiniQEMU (TCG)": run("tcg"),
        "rules (Base)": run("rules",
                            make_rule_engine(OptLevel.BASE)),
        "rules (full opt)": run("rules",
                                make_rule_engine(OptLevel.FULL)),
    }
    reference = results["interpreter"]["output"]
    print("guest console output:")
    print("  " + reference.replace("\n", "\n  "))
    rows = []
    qemu_cost = results["MiniQEMU (TCG)"]["host_cost"]
    for name, result in results.items():
        assert result["output"] == reference, f"{name} diverged!"
        rows.append([
            name, result["guest_insns"], f"{result['host_cost']:.0f}",
            f"{result['per_guest']:.2f}",
            f"{qemu_cost / result['host_cost']:.2f}x"
            if name != "interpreter" else "--",
        ])
    print(format_table(
        ["Engine", "Guest insns", "Host cost", "Cost/guest",
         "Speedup vs QEMU"], rows))
    print("\nAll engines produced identical guest behaviour.")


if __name__ == "__main__":
    main()
