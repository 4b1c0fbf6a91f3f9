"""Wall-clock benchmark of the repro DBT, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 24 --trace 0

One process runs one guest program at a time (a closed loop, no
threads), always on the ``rules-full`` engine.  A run first records each
program's reference output (the workload's ``expected_output``, or the
``interp`` engine's console output), then measures *rounds* until
``--seconds`` is used up.  A round builds and runs every program of the
workload once (the last round may be partial); each program's setup and
run times are the median over its runs, and the reported times sum
those medians.  Every time is given
in reference-host seconds: measured, then rescaled by the host speed a
calibration kernel sees around the same program run (:mod:`calib`), so
that the shared host's drifting speed does not swamp the comparison.
The measured times and the speed factors are printed before the result.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``hot-mix``: SPEC CINT and Fig 19 device analogs, no translation
  store.  The memcached request stream and the untar archive come from
  the seed.
- ``cold-code``: seed-generated programs (:mod:`gen`), each run once
  per round against a fresh, empty store; the timed section includes
  ``CacheLoader.save``.
- ``warm-code``: the same programs rerun against the store an untimed
  cold pass wrote.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds; the traced ones wrap the layer boundaries
of each built machine (:mod:`spans`) and give the per-layer metrics,
and the pair gives the tracing overhead.  The spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A program run
fails on an exception, a non-zero exit, console output that differs
from the reference, or a broken invariant (deterministic counters that
change between rounds, or a warm start that does not revive exactly
what the cold pass stored).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import calib
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("hot-mix", "cold-code", "warm-code")
ENGINE = "rules-full"
#: hot-mix programs: three SPEC CINT analogs of different character
#: (game-tree search, branchy tree walking, memory-heavy block matching)
#: and the three device analogs (NIC, block device, UART console).
#: The set is fixed so that a round is the same work for every seed.
HOT_MIX = ("memcached", "untar", "fileio", "sjeng", "xalancbmk", "h264ref")
#: Generated programs per cold-code / warm-code round.
CODE_PROGRAMS = 2
IMPORT_SAMPLES = 5
#: Modules a user of ``repro run`` imports (timed in a fresh process).
IMPORT_STMT = "import repro.harness.runner, repro.cache, repro.workloads"

#: Deterministic counters compared across rounds (and cold vs warm).
DETERMINISTIC_KEYS = ("engine.guest_icount", "engine.host_cost",
                      "engine.host_instructions", "io.cost")


@dataclass
class Program:
    name: str
    workload: object                # repro.workloads.Workload
    reference: str = ""


@dataclass
class Sample:
    """One measured program run."""

    program: str
    setup_s: float = 0.0
    run_s: float = 0.0
    raw_run_s: float = 0.0          # as measured, before rescaling
    speed: float = 1.0              # reference-host seconds per second
    elapsed: float = 0.0            # whole sample, calibrations included
    traced: bool = False
    run_id: int = -1                # the tracer's program-run id
    counts: Dict[str, float] = field(default_factory=dict)  # probe counts
    problems: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    store_bytes: int = 0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_programs(workload: str, seed: int) -> List[Program]:
    import gen
    from repro.workloads import ALL_WORKLOADS, Workload

    if workload == "hot-mix":
        seeded = {
            "memcached": {"nic_packets": gen.memcached_requests(seed)},
            "untar": {"disk_image": gen.untar_archive(seed)},
        }
        return [Program(name, replace(ALL_WORKLOADS[name],
                                      **seeded.get(name, {})))
                for name in HOT_MIX]
    return [Program(f"gen{index}",
                    Workload(f"gen{index}", category="generated",
                             body=gen.cold_code_program(seed, index)))
            for index in range(CODE_PROGRAMS)]


def record_references(programs: List[Program]) -> None:
    """Reference output per program: the workload's own
    ``expected_output`` where it has one (the SPEC analogs), otherwise
    the reference ``interp`` engine's console output."""
    from repro.harness.runner import make_machine

    for program in programs:
        workload = program.workload
        if workload.expected_output is not None:
            program.reference = workload.expected_output
            continue
        machine = make_machine(workload, "interp")
        exit_code = machine.run(workload.max_insns)
        if exit_code != 0:
            raise RuntimeError(f"{program.name}: interp reference exited "
                               f"{exit_code}")
        program.reference = machine.uart.text


def check_run(sample: Sample, reference: str, exit_code: Optional[int],
              output: str) -> None:
    """Record a non-zero exit or a wrong console output as a problem."""
    if exit_code != 0:
        sample.problems.append(f"exit code {exit_code}")
    if output != reference:
        sample.problems.append(f"output {output!r} != reference "
                               f"{reference!r}")


def deterministic(stats: Dict[str, float]) -> Dict[str, float]:
    """The counters that must not change between runs of one program:
    the cost-model totals and every host-instruction tag counter."""
    return {key: value for key, value in stats.items()
            if key in DETERMINISTIC_KEYS or key.startswith("engine.tag_")}


def measure_import() -> float:
    """Median time to import repro in a fresh interpreter (the parent
    has already written the bytecode caches), in reference-host
    seconds: each child brackets its import with two calibrations."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import calib, time; "
            "cal = calib.Calibrator(); before = cal.measure(); "
            f"start = time.perf_counter(); {IMPORT_STMT}; "
            "took = time.perf_counter() - start; after = cal.measure(); "
            "print(took * calib.REFERENCE_S * 2 / (before + after))")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _, names in os.walk(path) for name in names)


# ---------------------------------------------------------------------------
# Tracing: wrap the built objects' layer boundaries
# ---------------------------------------------------------------------------


class LayerProbe:
    """Installs the span wrappers on each traced program run and keeps
    the counts that are not spans, summed over the traced runs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # Setup: make_machine resolves these module attributes at call time.
    def patch_setup(self) -> None:
        import repro.cache
        import repro.harness.runner as runner

        tracer = self.tracer
        for module, attr, name in (
                (runner, "build_kernel", "setup.kernel_build"),
                (runner, "build_user_program", "setup.kernel_build"),
                (runner, "Machine", "setup.machine_init"),
                (repro.cache, "attach_cache", "cache.attach")):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return tracer.span(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)

    def unpatch_setup(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def instrument(self, machine) -> None:
        tracer = self.tracer
        counts = self.counts = {"get_tb": 0.0, "translated_insns": 0.0}
        engine = machine.engine
        tracer.wrap(machine, "run", "loop")
        tracer.wrap(engine, "translate", "translate", on_result=lambda tb:
                    counts.__setitem__("translated_insns",
                                       counts["translated_insns"] +
                                       tb.guest_insn_count))
        tracer.wrap(engine, "fetch_block", "guest.fetch_block")
        if hasattr(engine, "successor_live_in"):
            tracer.wrap(engine, "successor_live_in", "core.live_in")
        get_tb = engine.get_tb

        def counted_get_tb(pc, mmu_idx):
            counts["get_tb"] += 1
            return get_tb(pc, mmu_idx)

        engine.get_tb = counted_get_tb
        tracer.wrap(machine.host, "execute", "host.execute")
        runtime = machine.runtime
        tracer.wrap(runtime, "memory_access", "helpers.mem_slow")
        tracer.wrap(runtime, "translate_slow", "softmmu.translate_slow")
        tracer.wrap(runtime, "deliver_exception", "helpers.exception")
        enter = tracer.wrap_aggregated(engine, "_on_tb_enter",
                                       "loop.tb_enter")
        machine.host.on_tb_enter = enter
        tracer.wrap_aggregated(machine, "advance_time", "devices.advance")
        loader = engine.persistent
        if loader is not None:
            tracer.wrap(loader, "fetch", "cache.fetch")
            tracer.wrap(loader, "save", "cache.save")


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.programs: List[Program] = []
        #: warm-code: per program, the cold pass's deterministic
        #: counters and the number of TBs it stored
        self.cold_pass: Dict[str, Tuple[Dict[str, float], float]] = {}
        self.samples: List[List[Sample]] = []       # [program][sample]
        self.extra_attempted = 0
        self.extra_failed = 0
        self.probe = LayerProbe(Tracer()) if trace else None
        self.calibrator = calib.Calibrator()

    # -- one program run ---------------------------------------------------

    def store_for(self, round_index: int, index: int) -> Optional[str]:
        if self.workload == "cold-code":
            path = os.path.join(self.work, f"cold-{round_index}-{index}")
            os.makedirs(path)
            return path
        if self.workload == "warm-code":
            return os.path.join(self.work, f"warm-{index}")
        return None

    def run_program(self, program: Program, store: Optional[str],
                    probe: Optional[LayerProbe] = None,
                    save: bool = False) -> Sample:
        """Build, run and check one program.  Its times are measured
        between two calibrations and rescaled to reference-host
        seconds (see :mod:`calib`)."""
        from repro.harness.runner import make_machine

        sample = Sample(program.name, traced=probe is not None)
        workload = program.workload
        gc.collect()
        began = perf_counter()
        before = self.calibrator.measure()
        try:
            if probe is not None:
                tracer = probe.tracer
                sample.run_id = tracer.begin_run()
                probe.patch_setup()
                start = perf_counter()
                try:
                    machine = tracer.span("setup", make_machine, workload,
                                          ENGINE, cache_dir=store)
                finally:
                    probe.unpatch_setup()
                setup = perf_counter() - start
                probe.instrument(machine)
                loader = machine.engine.persistent
                middle = perf_counter()
                root = tracer.open("program")
                try:
                    exit_code = machine.run(workload.max_insns)
                    if save:
                        loader.save()
                finally:
                    tracer.close(root)
                sample.counts = probe.counts
            else:
                start = perf_counter()
                machine = make_machine(workload, ENGINE, cache_dir=store)
                middle = perf_counter()
                setup = middle - start
                loader = machine.engine.persistent
                exit_code = machine.run(workload.max_insns)
                if save:
                    loader.save()
            end = perf_counter()
        except Exception:   # noqa: BLE001 - a failed run is counted
            sample.problems.append(traceback.format_exc())
            sample.elapsed = perf_counter() - began
            return sample
        after = self.calibrator.measure()
        sample.elapsed = perf_counter() - began
        sample.speed = calib.REFERENCE_S / ((before + after) / 2.0)
        sample.raw_run_s = end - middle
        sample.setup_s = setup * sample.speed
        sample.run_s = sample.raw_run_s * sample.speed
        check_run(sample, program.reference, exit_code, machine.uart.text)
        sample.stats = machine.stats()
        if store is not None and save:
            sample.store_bytes = dir_bytes(store)
        return sample

    # -- phases ------------------------------------------------------------

    def prepare(self) -> None:
        self.programs = make_programs(self.workload, self.seed)
        record_references(self.programs)
        if self.workload != "warm-code":
            return
        # The untimed cold pass that writes the warm-code stores.
        for index, program in enumerate(self.programs):
            store = self.store_for(0, index)
            sample = self.run_program(program, store, save=True)
            self.extra_attempted += 1
            stored = sample.stats.get("cache.store_entries", 0.0)
            if not sample.problems and stored <= 0:
                sample.problems.append("cold pass stored no TB")
            if sample.problems:
                self.extra_failed += 1
                self.report(sample)
            self.cold_pass[program.name] = (deterministic(sample.stats),
                                            stored)

    def check_sample(self, sample: Sample, index: int) -> None:
        """Invariants beyond the output check."""
        if sample.problems or not sample.stats:
            return
        earlier = self.samples[index]
        if earlier and earlier[0].stats and \
                deterministic(earlier[0].stats) != deterministic(sample.stats):
            sample.problems.append(
                "deterministic counters differ from the first run")
        if self.workload == "warm-code":
            sample.problems.extend(warm_problems(
                sample.stats, *self.cold_pass[sample.program]))

    def measure(self) -> None:
        """Run the programs in rounds until ``--seconds`` is used up.

        A program gets another sample only while its previous one would
        still fit in the budget, so the last round may be partial;
        every program gets at least two.  With ``--trace 1`` the odd
        rounds are traced."""
        self.samples = [[] for _ in self.programs]
        start = perf_counter()
        round_index = 0
        while True:
            probe = self.probe if round_index % 2 == 1 else None
            ran = False
            for index, program in enumerate(self.programs):
                taken = self.samples[index]
                if round_index >= 2 and perf_counter() - start + \
                        taken[-1].elapsed > self.seconds:
                    continue
                store = self.store_for(round_index, index)
                sample = self.run_program(
                    program, store, probe=probe,
                    save=self.workload == "cold-code")
                if self.workload == "cold-code":
                    shutil.rmtree(store)
                self.check_sample(sample, index)
                taken.append(sample)
                ran = True
                if sample.problems:
                    self.report(sample)
            if not ran:
                break
            round_index += 1

    @staticmethod
    def report(sample: Sample) -> None:
        for problem in sample.problems:
            print(f"FAILED {sample.program}: {problem}", file=sys.stderr)

    # -- reduction ---------------------------------------------------------

    def median_sum(self, attr: str, traced: bool = False) -> float:
        """Sum over programs of the per-program median over samples."""
        return sum(statistics.median(getattr(sample, attr)
                                     for sample in samples
                                     if sample.traced == traced)
                   for samples in self.samples)

    def counts(self) -> Tuple[int, int]:
        done = [sample for samples in self.samples for sample in samples]
        failed = sum(bool(sample.problems) for sample in done)
        return (self.extra_attempted + len(done),
                self.extra_failed + failed)

    def model_totals(self) -> Dict[str, float]:
        """Deterministic totals over one run of every program."""
        totals: Dict[str, float] = {}
        for samples in self.samples:
            for key, value in samples[0].stats.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals


def warm_problems(stats: Dict[str, float], cold: Dict[str, float],
                  stored: float) -> List[str]:
    """A warm run must revive every TB the cold pass stored, find no
    stale or corrupt entry, translate nothing, and reproduce the cold
    pass's deterministic counters exactly."""
    problems = []
    if stats.get("cache.tb_loaded") != stored:
        problems.append(f"revived {stats.get('cache.tb_loaded')} of "
                        f"{stored} stored TBs")
    for key in ("cache.tb_stale", "cache.tb_corrupt", "cache.tb_fresh"):
        if stats.get(key, 0.0) != 0:
            problems.append(f"{key} = {stats[key]}")
    if deterministic(stats) != cold:
        problems.append("deterministic counters differ from the cold pass")
    return problems


def ratio(top: float, bottom: float) -> float:
    """top / bottom, or 0 when there is nothing to divide by (a failed
    run, or a layer the workload never reaches)."""
    return top / bottom if bottom else 0.0


def end_to_end(bench: Bench, import_s: float) -> Dict[str, Tuple[float, str]]:
    wall_s = bench.median_sum("run_s")
    totals = bench.model_totals()
    icount = totals.get("engine.guest_icount", 0.0)
    attempted, failed = bench.counts()
    return {
        "wall_s": (wall_s, "s"),
        "guest_kips": (ratio(icount, wall_s) / 1000.0, "kinsn/s"),
        "setup_s": (import_s + bench.median_sum("setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "model_cost_per_insn": (
            ratio(totals.get("engine.host_cost", 0.0) +
                  totals.get("io.cost", 0.0), icount), "cost/insn"),
        "host_insns_per_insn": (
            ratio(totals.get("engine.host_instructions", 0.0), icount),
            "insn/insn"),
        "pass_frac": (1.0 - ratio(failed, attempted), "fraction"),
    }


def per_layer(bench: Bench, import_s: float) -> Dict[str, Tuple[float, str]]:
    from repro.observability.profile import coordination_breakdown

    # One traced round: every quantity is averaged over each program's
    # traced samples, then summed over programs.  Layer times are
    # rescaled by their sample's host-speed factor like the e2e times.
    by_run = bench.probe.tracer.totals_by_run()
    stats: Dict[str, float] = {}
    for samples in bench.samples:
        traced = [sample for sample in samples if sample.traced]
        for sample in traced:
            flat = dict(sample.stats)
            flat.update(sample.counts)
            flat["store_bytes"] = float(sample.store_bytes)
            for name, row in by_run.get(sample.run_id, {}).items():
                for key, value in row.items():
                    flat[f"{name}:{key}"] = \
                        value if key == "calls" else value * sample.speed
            for key, value in flat.items():
                stats[key] = stats.get(key, 0.0) + value / len(traced)

    def get(name: str, key: str) -> float:
        return stats.get(f"{name}:{key}", 0.0)

    store_bytes = stats.get("store_bytes", 0.0)
    if bench.workload == "warm-code":
        store_bytes = float(sum(dir_bytes(os.path.join(bench.work,
                                                       f"warm-{index}"))
                                for index in range(len(bench.programs))))

    icount = stats.get("engine.guest_icount", 0.0)
    host_insns = stats.get("engine.host_instructions", 0.0)
    execute_calls = get("host.execute", "calls")
    tb_entries = get("loop.tb_enter", "calls")
    translate_calls = get("translate", "calls")
    fetch_calls = get("cache.fetch", "calls")
    covered = stats.get("engine.rule_covered_insns_dyn", 0.0)
    uncovered = stats.get("engine.rule_uncovered_insns_dyn", 0.0)
    breakdown = coordination_breakdown(stats)
    program_busy = get("program", "busy")
    untraced_wall = bench.median_sum("run_s", traced=False)
    traced_wall = bench.median_sum("run_s", traced=True)
    return {
        "setup.import_s": (import_s, "s"),
        "setup.kernel_build_s": (get("setup.kernel_build", "busy"), "s"),
        "setup.machine_init_s": (get("setup.machine_init", "busy"), "s"),
        "cache.attach_s": (get("cache.attach", "busy"), "s"),
        "cache.fetch_s": (get("cache.fetch", "busy"), "s"),
        "cache.fetch_calls": (fetch_calls, "count"),
        "cache.revive_frac": (ratio(stats.get("cache.tb_loaded", 0.0),
                                    fetch_calls), "fraction"),
        "cache.save_s": (get("cache.save", "busy"), "s"),
        "cache.store_mb": (store_bytes / 1e6, "MB"),
        "translate.busy_s": (get("translate", "busy"), "s"),
        "translate.self_s": (get("translate", "self"), "s"),
        "translate.calls": (translate_calls, "count"),
        "translate.us_per_guest_insn": (
            ratio(get("translate", "busy") * 1e6,
                  stats.get("translated_insns", 0.0)), "us"),
        "guest.fetch_block_s": (get("guest.fetch_block", "busy"), "s"),
        "guest.fetch_block_calls": (get("guest.fetch_block", "calls"),
                                    "count"),
        "core.live_in_s": (get("core.live_in", "busy"), "s"),
        "core.live_in_calls": (get("core.live_in", "calls"), "count"),
        "code_cache.miss_frac": (ratio(translate_calls,
                                       stats.get("get_tb", 0.0)),
                                 "fraction"),
        "host.execute_s": (get("host.execute", "busy"), "s"),
        "host.execute_self_s": (get("host.execute", "self"), "s"),
        "host.execute_calls": (execute_calls, "count"),
        "host.insns": (host_insns, "count"),
        "host.ns_per_insn": (ratio(get("host.execute", "self") * 1e9,
                                   host_insns), "ns"),
        "host.insns_per_call": (ratio(host_insns, execute_calls), "count"),
        "loop.self_s": (get("loop", "self"), "s"),
        "loop.tb_entries": (tb_entries, "count"),
        "loop.chain_frac": (1.0 - ratio(execute_calls, tb_entries),
                            "fraction"),
        "loop.irq_delivered": (stats.get("engine.irq_delivered", 0.0),
                               "count"),
        "devices.advance_s": (get("devices.advance", "busy"), "s"),
        "devices.advance_calls": (get("devices.advance", "calls"), "count"),
        "helpers.mem_slow_s": (get("helpers.mem_slow", "busy"), "s"),
        "helpers.mem_slow_calls": (get("helpers.mem_slow", "calls"),
                                   "count"),
        "softmmu.translate_slow_s": (get("softmmu.translate_slow", "busy"),
                                     "s"),
        "softmmu.translate_slow_calls": (
            get("softmmu.translate_slow", "calls"), "count"),
        "softmmu.tlb_fills": (stats.get("engine.tlb_fills", 0.0), "count"),
        "helpers.exception_s": (get("helpers.exception", "busy"), "s"),
        "helpers.exception_calls": (get("helpers.exception", "calls"),
                                    "count"),
        "helpers.flag_parses": (stats.get("engine.flag_parses", 0.0),
                                "count"),
        "core.sync_ops_per_insn": (ratio(stats.get("engine.sync_ops_dyn",
                                                   0.0), icount),
                                   "ops/insn"),
        "core.sync_elisions_dyn": (stats.get("engine.sync_elisions_dyn",
                                             0.0), "count"),
        "core.rule_coverage": (ratio(covered, covered + uncovered),
                               "fraction"),
        "core.coord_cost_frac": (ratio(breakdown.get("coordination", 0.0),
                                       stats.get("engine.host_cost", 0.0)),
                                 "fraction"),
        "trace.overhead_frac": (ratio(traced_wall, untraced_wall) - 1.0,
                                "fraction"),
        "trace.unattributed_frac": (ratio(get("program", "self"),
                                          program_busy), "fraction"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.harness.runner  # noqa: F401 - writes the bytecode caches

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(bench.work, exist_ok=True)
    try:
        import_s = measure_import()
        bench.prepare()
        bench.measure()
        if bench.trace:
            metrics = per_layer(bench, import_s)
            bench.probe.tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            metrics = end_to_end(bench, import_s)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    attempted, failed = bench.counts()
    speeds = [sample.speed for samples in bench.samples
              for sample in samples]
    print(f"{args.workload:10s} {len(speeds)} program runs; measured "
          f"wall {bench.median_sum('raw_run_s'):.3f} s before rescaling; "
          f"host-speed factor median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:30s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
