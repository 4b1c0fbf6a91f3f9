"""Execution watchdog, halt fast-forward, and machine-state snapshots.

Three hang classes are converted into structured, recoverable errors:

- **runaway TBs**: :class:`ExecutionWatchdog` bounds host instructions
  per :meth:`HostInterpreter.execute` call; tripping raises
  :class:`~repro.common.errors.WatchdogTimeout` with a machine-state
  snapshot attached (the degradation ladder then treats the TB like any
  other codegen bug);
- **wakeup deadlocks**: :func:`fast_forward_halt` is the single shared
  halt fast-forward (both the interpreter engine and the DBT engines
  call it) and raises :class:`~repro.common.errors.WakeupDeadlock` with
  the timer/interrupt-controller state when a halted guest can never
  wake;
- **unsafe recovery**: :class:`MachineSnapshot` captures the
  architectural state (env bytes, guest CPU, time, timer/intc) before a
  TB executes so the engine can roll back and replay after a fault that
  surfaced before any non-idempotent (MMIO/exception) side effect, or
  undo a run the self-check found wrong.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from ..common.errors import WakeupDeadlock
from ..host.interp import RUNAWAY_LIMIT

#: Halt fast-forward iterations before declaring a wakeup deadlock.  Each
#: iteration advances guest time by at least one timer period, so any
#: functioning wakeup source fires on the first few iterations.
MAX_HALT_ITERATIONS = 1_000_000


class ExecutionWatchdog:
    """Bounds on host work per engine step, shared by all engines."""

    def __init__(self, max_host_insns: int = RUNAWAY_LIMIT,
                 max_halt_iterations: int = MAX_HALT_ITERATIONS):
        self.max_host_insns = max_host_insns
        self.max_halt_iterations = max_halt_iterations
        self.trips = 0


def fast_forward_halt(machine, awake: Callable[[], bool]) -> None:
    """Advance guest time until *awake()* — the one shared wfi skipper.

    Raises :class:`WakeupDeadlock` (with timer/IRQ state and machine
    diagnostics) instead of a bare ``ReproError`` when no wakeup source
    exists or the wait cannot terminate.
    """
    timer = machine.timer
    watchdog = getattr(machine, "watchdog", None)
    limit = watchdog.max_halt_iterations if watchdog is not None \
        else MAX_HALT_ITERATIONS

    def deadlock(reason: str) -> WakeupDeadlock:
        error = WakeupDeadlock(
            reason, timer_enabled=timer.enabled, timer_reload=timer.reload,
            timer_value=timer.value, irq_line=machine.cpu.irq_line,
            intc_pending=machine.intc.pending,
            intc_enabled=machine.intc.enabled)
        return error.attach_context(machine.diag_context(phase="wfi"))

    if not timer.enabled or timer.reload == 0:
        raise deadlock("guest halted with no wakeup source (wfi)")
    iterations = 0
    while not awake():
        machine.advance_time(max(timer.value, 1))
        iterations += 1
        if not machine.cpu.irq_line and not timer.enabled:
            raise deadlock("halted guest cannot wake up (timer disabled "
                           "while waiting)")
        if iterations > limit:
            raise deadlock(f"halted guest did not wake within {limit} "
                           f"timer periods")


class MachineSnapshot:
    """Copy of the rollback-relevant machine state at a TB boundary.

    Host RAM is deliberately *not* copied: replayed computation is
    deterministic, so RAM stores replay idempotently given the restored
    env/CPU state.  Recovery is therefore only attempted when the
    partial execution performed no non-idempotent work (MMIO, exception
    delivery) — the host interpreter tracks that per execute() call.
    """

    __slots__ = ("env_data", "cpu_state", "guest_icount", "io_cost",
                 "irq_delivered", "timer_state", "intc_state")

    def __init__(self, machine):
        self.env_data = bytes(machine.env.data)
        self.cpu_state = _save_cpu(machine.cpu)
        self.guest_icount = machine.guest_icount
        self.io_cost = machine.io_cost
        self.irq_delivered = machine.irq_delivered
        timer = machine.timer
        self.timer_state = (timer.reload, timer.value, timer.enabled,
                            timer.ticks)
        self.intc_state = (machine.intc.pending, machine.intc.enabled)

    def restore(self, machine) -> None:
        machine.env.data[:] = self.env_data
        _restore_cpu(machine.cpu, self.cpu_state)
        machine.guest_icount = self.guest_icount
        machine.io_cost = self.io_cost
        machine.irq_delivered = self.irq_delivered
        timer = machine.timer
        (timer.reload, timer.value, timer.enabled, timer.ticks) = \
            self.timer_state
        machine.intc.pending, machine.intc.enabled = self.intc_state


def _save_cpu(cpu) -> Tuple:
    return (list(cpu.regs), cpu.cpsr, dict(cpu._banked_sp_lr),
            dict(cpu._spsr), cpu.halted, cpu.irq_line, cpu.fpscr,
            list(cpu.vfp), _save_cp15(cpu.cp15))


def _restore_cpu(cpu, state) -> None:
    (regs, cpsr, banked, spsr, halted, irq_line, fpscr, vfp, cp15) = state
    cpu.regs[:] = regs
    cpu.cpsr = cpsr
    cpu._banked_sp_lr = dict(banked)
    cpu._spsr = dict(spsr)
    cpu.halted = halted
    cpu.irq_line = irq_line
    cpu.fpscr = fpscr
    cpu.vfp[:] = vfp
    _restore_cp15(cpu.cp15, cp15)


def _cp15_fields(cp15) -> List[str]:
    return [field.name for field in dataclasses.fields(cp15)]


def _save_cp15(cp15) -> Tuple:
    return tuple(getattr(cp15, name) for name in _cp15_fields(cp15))


def _restore_cp15(cp15, state) -> None:
    for name, value in zip(_cp15_fields(cp15), state):
        setattr(cp15, name, value)
