#!/usr/bin/env python3
"""Run the rule-learning pipeline end to end and use the learned rules.

Reproduces the paper's learning flow (Sec II-A) on the built-in corpus:

1. compile every training function with the toycc ARM and x86 back ends,
2. extract candidate rules by pairing instructions via debug line info,
3. formally verify each candidate by symbolic execution,
4. parameterize registers/immediates/opcodes into the final rule set,

then boots the system emulator with the *learned* rulebook driving the
rule-based DBT and reports its dynamic coverage on a real workload.

Run:  python examples/learn_rules.py
"""

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.harness.runner import make_machine
from repro.learning.learn import learn
from repro.workloads.spec import SPEC_WORKLOADS


def main():
    print("=== learning translation rules from the corpus ===")
    result = learn()
    print(result.summary())
    if result.rejected:
        print("rejected candidates:")
        for reason in result.rejected:
            print("  -", reason)

    print("\n=== a sample of the learned, parameterized rules ===")
    for rule in sorted(result.rules, key=lambda r: -len(r.origins))[:10]:
        marker = " [opcode-class]" if rule.opcode_class else ""
        print(f"  ({len(rule.origins):2d} origins){marker}")
        print(f"     guest: {'; '.join(rule.guest_pattern)}")
        print(f"     host:  {'; '.join(rule.host_pattern)}")

    print("\n=== running mcf under the learned rulebook ===")
    workload = SPEC_WORKLOADS["mcf"]
    machine = make_machine(workload, "tcg")
    machine.run(workload.max_insns)
    qemu_cost = machine.stats()["engine.host_cost"]

    factory = make_rule_engine(OptLevel.FULL, rulebook=result.rulebook)
    from repro.miniqemu.machine import Machine
    from repro.kernel.kernel import build_kernel, build_user_program
    machine = Machine(engine="rules", rule_engine_factory=factory)
    machine.memory.load_program(build_kernel(
        timer_reload=workload.timer_reload))
    machine.memory.load_program(build_user_program(workload.body))
    machine.cpu.regs[15] = 0
    machine.env.load_from_cpu(machine.cpu)
    machine.run(workload.max_insns)
    assert machine.uart.text == workload.expected_output
    stats = machine.stats()

    covered = stats["engine.rule_covered_insns_dyn"]
    uncovered = stats["engine.rule_uncovered_insns_dyn"]
    print(f"output verified: {machine.uart.text.strip()!r}")
    print(f"dynamic rule coverage: "
          f"{100 * covered / (covered + uncovered):.1f}% "
          f"({uncovered:.0f} uncovered instructions fell back to QEMU)")
    print(f"speedup over QEMU with learned rules only: "
          f"{qemu_cost / stats['engine.host_cost']:.2f}x")


if __name__ == "__main__":
    main()
