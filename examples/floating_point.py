#!/usr/bin/env python3
"""Floating point under the rule-based DBT (the paper's footnote 3).

Runs a SAXPY kernel on QEMU and on the rule engine and shows why FP
workloads speed up far more than integer ones: QEMU emulates every VFP
instruction through a softfloat helper, while the learned FP rules
lower to three scalar-SSE host instructions with no helper call and —
because SSE ops never touch the host FLAGS register — no CPU-state
coordination at all.

Run:  python examples/floating_point.py
"""

from repro.analysis.justify import sync_counts
from repro.core.config import OptLevel
from repro.core.engine import RuleEngine
from repro.guest.asm import assemble
from repro.harness.report import format_table
from repro.harness.runner import run_workload
from repro.miniqemu.machine import Machine, TcgEngine
from repro.workloads.specfp import SPECFP_WORKLOADS


def show_block():
    block = """
    vldr s0, [r0]
    vldr s1, [r1]
    vmul.f32 s0, s0, s7
    vadd.f32 s1, s1, s0
    vstr s1, [r1]
    bx lr
"""
    machine = Machine(engine="tcg")
    machine.memory.load_program(assemble(block, base=0x40000))
    print("guest SAXPY inner block:")
    for line in block.strip().splitlines():
        print("   " + line.strip())

    tcg_tb = TcgEngine(machine).translate(0x40000, 0)
    helper_calls = [insn for insn in tcg_tb.code
                    if insn.op.value == "call"]
    print(f"\nQEMU translation: {len(tcg_tb.code)} host instructions, "
          f"{len(helper_calls)} helper calls "
          f"({', '.join(i.helper.__name__ for i in helper_calls)})")

    engine = RuleEngine(machine, level=OptLevel.FULL)
    tb = engine.translate(0x40000, 0)
    sse = [insn for insn in tb.code if insn.op.value.endswith("ss")]
    print(f"rule translation: {len(tb.code)} host instructions, "
          f"{len(sse)} SSE instructions, "
          f"{sync_counts(tb.meta).insns} sync instructions for the FP ops")


def main():
    show_block()
    print("\nend-to-end FP workload speedups (QEMU vs rules-full):")
    rows = []
    for name in sorted(SPECFP_WORKLOADS):
        workload = SPECFP_WORKLOADS[name]
        qemu = run_workload(workload, "tcg")
        rules = run_workload(workload, "rules-full")
        assert qemu.output == rules.output
        rows.append([name, f"{qemu.runtime:.0f}", f"{rules.runtime:.0f}",
                     f"{qemu.runtime / rules.runtime:.2f}x"])
    print(format_table(["Workload", "QEMU cost", "Rules cost", "Speedup"],
                       rows))
    print("\nThe paper's footnote 3: with FP applications included the "
          "average speedup\nrises from 1.36x to 1.92x — this is the "
          "mechanism behind it.")


if __name__ == "__main__":
    main()
