"""Host-speed calibration for the wall-clock benchmark.

On a shared virtual machine the CPU's speed can drift by up to 2x over
minutes (measured on 2-vCPU 2.1 GHz Xeon guests), which moves every
wall time by far more than any bound a benchmark could keep.  Each
measured program run is therefore bracketed by two runs of a fixed
calibration kernel, and its times are rescaled to *reference-host
seconds*::

    reported = measured * REFERENCE_S / calibration_time

The kernel is a small register-machine interpreter (dispatch on an
opcode, list and dict traffic, byte loads and stores over 1 MiB), the
same kind of work as the DBT's host-code interpreter, so it slows down
with the DBT when the host does.  It uses no repro code: a change to the
system under test cannot change the calibration.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import List

#: Interpreter steps per calibration (30-60 ms on a 2.1 GHz Xeon vCPU).
STEPS = 100_000
#: Calibration time that defines one reference-host second: a
#: calibration that takes this long leaves measured times unchanged.
REFERENCE_S = 0.035
_OPS = ("add", "sub", "ld", "st", "and", "jnz")


class _Insn:
    __slots__ = ("op", "a", "b", "c")

    def __init__(self, op: str, a: int, b: int, c: int):
        self.op, self.a, self.b, self.c = op, a, b, c


class Calibrator:
    """Times the calibration kernel; one instance per benchmark run."""

    def __init__(self) -> None:
        rng = random.Random(20240302)
        self.program: List[_Insn] = [
            _Insn(rng.choice(_OPS), rng.randrange(8), rng.randrange(8),
                  rng.randrange(256)) for _ in range(256)]
        self.memory = bytearray(1 << 20)

    def _kernel(self, steps: int) -> int:
        program = self.program
        memory = self.memory
        regs = [1, 2, 3, 4, 5, 6, 7, 8]
        counts: dict = {}
        pc = 0
        for _ in range(steps):
            insn = program[pc]
            op = insn.op
            counts[op] = counts.get(op, 0) + 1
            if op == "add":
                regs[insn.a] = (regs[insn.a] + regs[insn.b] + insn.c) \
                    & 0xFFFFFFFF
            elif op == "sub":
                regs[insn.a] = (regs[insn.a] - regs[insn.b]) & 0xFFFFFFFF
            elif op == "ld":
                regs[insn.a] = memory[(regs[insn.b] * 2654435761) & 0xFFFFF]
            elif op == "st":
                memory[(regs[insn.b] * 40503 + insn.c) & 0xFFFFF] = \
                    regs[insn.a] & 0xFF
            elif op == "and":
                regs[insn.a] &= regs[insn.b] | insn.c
            elif op == "jnz" and regs[insn.a] & 1:
                pc = insn.c
                continue
            pc = (pc + 1) & 255
        return regs[0] + len(counts)

    def measure(self) -> float:
        """Wall time of one calibration run, in seconds."""
        start = perf_counter()
        self._kernel(STEPS)
        return perf_counter() - start
