"""Workload runner: boots a machine, applies device setup, collects metrics.

The *runtime* metric of a run is ``host_cost + io_cost``: dynamic host
instructions executed by generated code, plus the modelled cost of
runtime work (helpers, translation, TB lookup) and device time.  All
speedups in the experiment suite are ratios of this quantity
(see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..common.errors import ReproError
from ..core.config import OptConfig, OptLevel
from ..core.engine import make_rule_engine
from ..kernel.kernel import build_kernel, build_user_program
from ..miniqemu.machine import Machine
from ..robustness.faultinject import (FaultInjector, FaultPlan,
                                      parse_inject_spec)
from ..robustness.guard import ExecutionWatchdog
from ..workloads.spec import Workload

#: Engine specifications accepted by :func:`run_workload`.
ENGINE_SPECS = ("interp", "tcg", "rules-base", "rules-reduction",
                "rules-elimination", "rules-full")

_LEVEL_BY_SPEC = {
    "rules-base": OptLevel.BASE,
    "rules-reduction": OptLevel.REDUCTION,
    "rules-elimination": OptLevel.ELIMINATION,
    "rules-full": OptLevel.FULL,
}


@dataclass
class RunResult:
    workload: str
    engine: str
    exit_code: int
    output: str
    guest_icount: int
    host_instructions: float
    host_cost: float
    io_cost: float
    runtime: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def cost_per_guest(self) -> float:
        return self.host_cost / max(self.guest_icount, 1)


def _robustness_kwargs(inject) -> Dict:
    """Machine kwargs for an ``--inject`` spec (str or FaultPlan)."""
    if not inject:
        return {}
    plan = parse_inject_spec(inject) if isinstance(inject, str) else inject
    if not isinstance(plan, FaultPlan):
        raise ValueError(f"bad inject value {inject!r}")
    return {
        "fault_injector": FaultInjector(plan),
        "watchdog": ExecutionWatchdog(),
        # Silent wrong-result rules are only catchable by the online
        # differential self-check of every eligible TB run.
        "selfcheck": bool(plan.wrong_rules),
    }


def make_machine(workload: Workload, engine: str,
                 config: Optional[OptConfig] = None,
                 inject=None, tracer=None, profiler=None,
                 check: bool = False,
                 cache_dir: Optional[str] = None) -> Machine:
    """Build a machine with the kernel + workload loaded and devices set up.

    *check* enables the rules engine's verify-before-enter mode: every
    rules-tier TB is statically verified before entering the code cache
    (``repro run --check``; ignored by the interp/tcg engines).

    *cache_dir* attaches the persistent cross-run translation cache
    (``--cache-dir``; a no-op for engines without a rules tier).  The
    caller is responsible for ``machine.engine.persistent.save()`` after
    the run — :func:`run_workload` does this."""
    kwargs = _robustness_kwargs(inject)
    if tracer is not None:
        kwargs["tracer"] = tracer
    if profiler is not None:
        kwargs["profiler"] = profiler
    if engine in _LEVEL_BY_SPEC:
        factory = make_rule_engine(_LEVEL_BY_SPEC[engine], config=config,
                                   check=check)
        machine = Machine(engine="rules", rule_engine_factory=factory,
                          **kwargs)
    elif engine == "rules-custom":
        if config is None:
            raise ValueError("rules-custom requires an OptConfig")
        factory = make_rule_engine(OptLevel.FULL, config=config,
                                   check=check)
        machine = Machine(engine="rules", rule_engine_factory=factory,
                          **kwargs)
    elif engine in ("interp", "tcg"):
        machine = Machine(engine=engine, **kwargs)
    else:
        raise ValueError(f"unknown engine spec {engine!r}")

    kernel = build_kernel(timer_reload=workload.timer_reload)
    user = build_user_program(workload.body)
    machine.memory.load_program(kernel)
    machine.memory.load_program(user)
    machine.cpu.regs[15] = 0
    machine.env.load_from_cpu(machine.cpu)

    if workload.disk_image is not None:
        machine.blockdev.load_image(workload.disk_image)
    for packet in workload.nic_packets:
        machine.nic.queue_rx(packet)
    if cache_dir:
        # After load_program: the store key includes the image digest.
        # Imported here so a run without a cache directory never loads
        # the store, and resolved by name at each call.
        from ..cache import attach_cache
        attach_cache(machine, cache_dir)
    return machine


def run_workload(workload: Workload, engine: str,
                 config: Optional[OptConfig] = None,
                 inject=None, tracer=None, profiler=None,
                 check: bool = False,
                 cache_dir: Optional[str] = None) -> RunResult:
    machine = make_machine(workload, engine, config, inject=inject,
                           tracer=tracer, profiler=profiler, check=check,
                           cache_dir=cache_dir)
    exit_code = machine.run(workload.max_insns)
    loader = getattr(machine.engine, "persistent", None)
    if loader is not None:
        loader.save()
    output = machine.uart.text
    if workload.expected_output is not None and \
            output != workload.expected_output:
        raise ReproError(
            f"{workload.name} on {engine}: wrong output {output!r} "
            f"(expected {workload.expected_output!r})")
    if exit_code != 0:
        raise ReproError(f"{workload.name} on {engine}: exit {exit_code}")
    stats = machine.stats()
    host_cost = stats.get("engine.host_cost", 0.0)
    return RunResult(
        workload=workload.name,
        engine=engine,
        exit_code=exit_code,
        output=output,
        guest_icount=machine.guest_icount,
        host_instructions=stats.get("engine.host_instructions", 0.0),
        host_cost=host_cost,
        io_cost=float(machine.io_cost),
        runtime=host_cost + machine.io_cost,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Process-wide memoization: the figure benchmarks share one sweep.
# ---------------------------------------------------------------------------

_CACHE: Dict[Tuple[str, str, str, str], RunResult] = {}

#: Fault plan applied to every ``run_cached`` miss (see
#: :func:`set_cache_inject`); part of the cache key, so injected and
#: clean sweeps never alias.
_CACHE_INJECT: Optional[FaultPlan] = None
_CACHE_INJECT_SPEC: str = ""


def set_cache_inject(inject=None) -> Optional[FaultPlan]:
    """Install a fault plan for the shared sweep (``None`` clears it).

    The ``repro bench`` orchestrator uses this to thread an ``--inject``
    spec through the whole figure pipeline without changing any
    experiment's code — which is how the injector's ``extra-sync`` site
    doubles as an end-to-end regression simulator for the perf gate.
    Returns the parsed plan.
    """
    global _CACHE_INJECT, _CACHE_INJECT_SPEC
    if not inject:
        _CACHE_INJECT, _CACHE_INJECT_SPEC = None, ""
        return None
    plan = parse_inject_spec(inject) if isinstance(inject, str) else inject
    if not isinstance(plan, FaultPlan):
        raise ValueError(f"bad inject value {inject!r}")
    _CACHE_INJECT, _CACHE_INJECT_SPEC = plan, plan.describe()
    return plan


def current_cache_inject() -> Optional[FaultPlan]:
    """The fault plan the shared sweep currently runs under (or None)."""
    return _CACHE_INJECT


#: Persistent translation-cache directory for the shared sweep (see
#: :func:`set_cache_dir`); part of the memo key like the fault plan.
_CACHE_DIR: Optional[str] = None


def set_cache_dir(cache_dir: Optional[str] = None) -> Optional[str]:
    """Thread ``--cache-dir`` through the shared figure sweep
    (``None`` clears it).  Warm-start state is per-store on disk; the
    in-process memo key includes the directory so cached and uncached
    sweeps never alias."""
    global _CACHE_DIR
    _CACHE_DIR = cache_dir or None
    return _CACHE_DIR


def run_cached(workload: Workload, engine: str) -> RunResult:
    key = (workload.name, engine, _CACHE_INJECT_SPEC, _CACHE_DIR or "")
    if key not in _CACHE:
        _CACHE[key] = run_workload(workload, engine,
                                   inject=_CACHE_INJECT,
                                   cache_dir=_CACHE_DIR)
    return _CACHE[key]


def cached_results() -> Tuple[RunResult, ...]:
    """Every result memoized by the current sweep (for reporting, e.g.
    the bench orchestrator's warm-start summary)."""
    return tuple(_CACHE.values())


def clear_cache() -> None:
    _CACHE.clear()
