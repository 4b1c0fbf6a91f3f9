#!/usr/bin/env python3
"""Interrupt behaviour under the rule-based DBT.

Runs a compute loop under an aggressive timer on each engine and shows
that (a) interrupts are delivered identically everywhere, (b) the
paper's lazy condition-code protocol only *parses* the packed FLAGS
word when an interrupt actually needs the bits (Sec III-B / Fig 7).

Run:  python examples/interrupt_latency.py
"""

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.harness.report import format_table
from repro.kernel.kernel import build_kernel, build_user_program
from repro.miniqemu.machine import Machine

PROGRAM = r"""
main:
    ldr r4, =120000             @ spin while the timer fires repeatedly
spin:
    subs r4, r4, #1
    bne spin
    bl uticks                   @ read the tick count
    bl updec
    mov r0, #0
    bl uexit
"""

TIMER_RELOAD = 700


def run(engine, factory=None):
    machine = Machine(engine=engine, rule_engine_factory=factory)
    machine.memory.load_program(build_kernel(timer_reload=TIMER_RELOAD))
    machine.memory.load_program(build_user_program(PROGRAM))
    machine.cpu.regs[15] = 0
    machine.env.load_from_cpu(machine.cpu)
    machine.run()
    stats = machine.stats()
    return {
        "ticks": machine.uart.text.strip(),
        "delivered": machine.irq_delivered,
        "parses": int(stats.get("engine.flag_parses", 0)),
        "sync_ops": int(stats.get("engine.sync_ops_dyn", 0)),
        "checks": int(stats.get("engine.interrupt_checks_dyn", 0)),
    }


def main():
    rows = []
    engines = [
        ("interpreter", "interp", None),
        ("MiniQEMU", "tcg", None),
        ("rules Base", "rules", make_rule_engine(OptLevel.BASE)),
        ("rules full", "rules", make_rule_engine(OptLevel.FULL)),
    ]
    for name, engine, factory in engines:
        result = run(engine, factory)
        rows.append([name, result["ticks"], result["delivered"],
                     result["checks"], result["sync_ops"],
                     result["parses"]])
    print(format_table(
        ["Engine", "Guest ticks", "IRQs delivered", "Interrupt checks",
         "Sync ops", "Lazy flag parses"], rows,
        title=f"Interrupt handling with a {TIMER_RELOAD}-instruction "
              "timer period"))
    print("\nThe optimized rule engine executes hundreds of interrupt "
          "checks per\ndelivery, but parses the packed FLAGS word only "
          "when an interrupt is\nactually taken — the Fig 7 behaviour.")


if __name__ == "__main__":
    main()
