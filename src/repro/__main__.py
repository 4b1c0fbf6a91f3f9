"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — available workloads, engines and experiments.
- ``run WORKLOAD [--engine E]`` — run a named workload, print its guest
  console output and the cost metrics.
- ``exec FILE.s [--engine E]`` — assemble a user program (the body after
  the kernel's syscall prelude; must define ``main``) and run it under
  the mini guest OS.
- ``bench [EXPERIMENT]`` — with an experiment name, reproduce one paper
  table/figure (or ``all``); without one, run the continuous-benchmark
  suite: write a trajectory snapshot (``BENCH_<n>.json``), and with
  ``--compare BASELINE --fail-on regressed`` gate it against a blessed
  baseline, attributing any regression to the Sec III coordination-cost
  category that moved.  ``--quick`` keeps the SPEC-sweep experiments
  only; ``--inject seed=1,extra-sync=0.5`` turns the fault injector
  into a regression simulator the gate must catch.  Both modes check
  the paper's claims against the experiments that ran and exit 1 when
  any is violated.
- ``cache info|clear|verify DIR`` — inspect, delete or deep-verify the
  persistent translation cache at ``DIR`` (``--cache-dir``).  ``verify``
  exits 1 when any store is tampered or corrupt; such stores are also
  refused (entry by entry) by the engine's load path.
- ``learn [--save PATH]`` — run the rule-learning pipeline; optionally
  save the rulebook as JSON.
- ``compare WORKLOAD`` — run one workload on every engine and print a
  side-by-side cost comparison.
- ``faultsmoke [--seeds N]`` — the robustness smoke matrix: run a
  seeded fault-injection scenario grid and check every run still
  produces the correct guest output and exit code, and that every run
  that injected a wrong result caught it in the self-check; two
  scenarios run again on a warm translation store.
- ``check [--all]`` — the translation soundness checker: report the
  classification ``learn()`` gave every learned rule (proved /
  tested-only / refuted) and run the dataflow verifier over the TB
  population of representative workloads.  ``--format json|table`` selects the output, ``--out``
  writes the findings JSON, and the exit code is 0 (clean), 1
  (findings above ``--fail-on``), or 2 (usage error).
- ``profile WORKLOAD [--engine E] [--top N]`` — run with tracing and
  profiling enabled, print the hot-TB table and the coordination-cost
  breakdown, and export profile + Chrome trace JSON under
  ``benchmarks/results/``.
- ``validate-trace FILE.json`` — check an exported trace against the
  Chrome trace-event schema (exit 1 on problems).

``run`` and ``exec`` accept ``--inject SPEC`` to enable deterministic
fault injection, e.g. ``--inject seed=7,mem=0.01,rule-corrupt=SUB``
(see ``repro.robustness.faultinject``), ``--trace PATH`` to record a
Chrome trace of the run, and ``--check`` to enable verify-before-enter:
every rules-tier TB is statically verified before entering the code
cache and demoted down the degradation ladder on an ERROR finding.
``run``, ``exec`` and ``bench`` also accept ``--cache-dir DIR`` to
warm-start translation from a persistent cross-run cache (see
``docs/caching.md``).
"""

from __future__ import annotations

import argparse
import sys

from .harness.experiments import ALL_EXPERIMENTS
from .harness.report import format_table
from .harness.runner import ENGINE_SPECS, run_workload
from .workloads import ALL_WORKLOADS


def cmd_list(_args) -> int:
    print("workloads:")
    for name, workload in sorted(ALL_WORKLOADS.items()):
        print(f"  {name:12s} [{workload.category}]")
    print("\nengines:", ", ".join(ENGINE_SPECS))
    print("\nexperiments:", ", ".join(sorted(ALL_EXPERIMENTS)), "| all")
    return 0


def _print_run(result) -> None:
    print(result.output, end="")
    print(f"--- {result.workload} on {result.engine} ---")
    print(f"guest instructions : {result.guest_icount}")
    print(f"host instructions  : {result.host_instructions:.0f}")
    print(f"host cost          : {result.host_cost:.0f}")
    print(f"device time        : {result.io_cost:.0f}")
    print(f"cost per guest insn: {result.cost_per_guest:.2f}")
    _print_robustness(result.stats)


def _print_robustness(stats) -> None:
    """Degradation-ladder report (quarantines, fallback tiers, faults)."""
    quarantined = stats.get("robust.quarantined_rules", 0)
    fallback = sum(count for key, count in stats.items()
                   if key.startswith("robust.tier_") and
                   key.endswith("_tbs") and key != "robust.tier_rules_tbs")
    injected = {key[len("robust.inj_"):]: int(count)
                for key, count in stats.items()
                if key.startswith("robust.inj_")}
    if not (quarantined or fallback or injected or
            stats.get("robust.recovered_faults") or
            stats.get("robust.watchdog_trips")):
        return
    print(f"quarantined rules  : {quarantined:.0f}")
    tiers = {key[len("robust.tier_"):-4]: int(count)
             for key, count in stats.items()
             if key.startswith("robust.tier_") and key.endswith("_tbs")}
    print("fallback tiers     : " +
          " ".join(f"{tier}={count}" for tier, count in tiers.items()))
    print(f"faults recovered   : "
          f"{stats.get('robust.recovered_faults', 0):.0f}"
          f" (transient {stats.get('robust.transient_faults', 0):.0f})")
    if injected:
        print("injected           : " +
              " ".join(f"{site}={count}"
                       for site, count in sorted(injected.items())))
    if stats.get("robust.watchdog_trips"):
        print(f"watchdog trips     : "
              f"{stats['robust.watchdog_trips']:.0f}")


def cmd_run(args) -> int:
    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    return _run_and_print(workload, args)


def cmd_exec(args) -> int:
    from .workloads.spec import Workload

    with open(args.file) as handle:
        body = handle.read()
    workload = Workload(name=args.file, body=body)
    return _run_and_print(workload, args)


def _run_and_print(workload, args) -> int:
    from .common.errors import ReproError

    tracer = None
    if getattr(args, "trace", None):
        from .observability.trace import Tracer
        tracer = Tracer()
    try:
        result = run_workload(workload, args.engine, inject=args.inject,
                              tracer=tracer,
                              check=getattr(args, "check", False),
                              cache_dir=getattr(args, "cache_dir", None))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_run(result)
    if getattr(args, "cache_dir", None):
        stats = result.stats
        print("cache: "
              f"{stats.get('cache.tb_loaded', 0):.0f} loaded, "
              f"{stats.get('cache.tb_fresh', 0):.0f} fresh, "
              f"{stats.get('cache.tb_saved', 0):.0f} saved, "
              f"{stats.get('cache.tb_stale', 0):.0f} stale, "
              f"{stats.get('cache.tb_corrupt', 0):.0f} corrupt, "
              f"{stats.get('cache.tb_evicted', 0):.0f} evicted")
    if getattr(args, "check", False):
        stats = result.stats
        print(f"check: {stats.get('engine.check_tbs', 0):.0f} TB "
              f"verification(s), "
              f"{stats.get('engine.check_rejected', 0):.0f} rejected, "
              f"{stats.get('engine.check_findings', 0):.0f} finding(s)")
    if tracer is not None:
        from .observability.export import write_chrome_trace
        path = write_chrome_trace(args.trace, tracer.events())
        print(f"trace written to {path} ({tracer.emitted} events, "
              f"{tracer.dropped} dropped)")
    return 0


#: The fault-smoke scenario grid: (name, spec template).  Every scenario
#: must finish with the workload's expected output and exit code 0.
SMOKE_SCENARIOS = (
    ("fetch", "seed={seed},fetch=0.05"),
    ("mem", "seed={seed},mem=0.05"),
    ("helper", "seed={seed},helper=0.05"),
    ("irq-storm", "seed={seed},irq-storm=0.0002"),
    ("rule-crash", "seed={seed},rule-crash=0.02"),
    ("rule-corrupt", "seed={seed},rule-corrupt=SUB,rule-corrupt=EOR"),
    # Uncovered memory instructions meet the define-before-use scheduler
    # and the translation-time memo end to end.
    ("rule-corrupt-mem", "seed={seed},rule-corrupt=LDR,rule-corrupt=STR"),
    ("rule-wrong", "seed={seed},rule-wrong=SUB"),
    ("extra-sync", "seed={seed},extra-sync=0.5"),
)

#: Scenarios run a second time on a copy of a store that an uninjected
#: pass wrote: there the injector edits revived TBs, whose host code is
#: shared (see repro.cache.store.decode_code).
SMOKE_WARM_SCENARIOS = ("rule-wrong", "extra-sync")

SMOKE_WORKLOADS = ("cpu-prime", "fileio")


def cmd_faultsmoke(args) -> int:
    import os
    import shutil
    import tempfile

    from .harness.report import format_table

    rows = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="faultsmoke-") as scratch:
        # One uninjected store per workload for the warm scenarios (an
        # engine without a rules tier writes none and skips them).
        stores = {}
        for workload_name in SMOKE_WORKLOADS:
            store = os.path.join(scratch, workload_name)
            result = run_workload(ALL_WORKLOADS[workload_name], args.engine,
                                  cache_dir=store)
            if result.stats.get("cache.tb_saved"):
                stores[workload_name] = store
        scenarios = [(name, template, False)
                     for name, template in SMOKE_SCENARIOS]
        scenarios += [(f"{name} (warm)", template, True)
                      for name, template in SMOKE_SCENARIOS
                      if name in SMOKE_WARM_SCENARIOS]
        for name, template, warm in scenarios:
            for seed in range(1, args.seeds + 1):
                for workload_name in SMOKE_WORKLOADS:
                    cache_dir = None
                    if warm:
                        if workload_name not in stores:
                            continue
                        cache_dir = os.path.join(scratch, "run")
                        shutil.rmtree(cache_dir, ignore_errors=True)
                        shutil.copytree(stores[workload_name], cache_dir)
                    try:
                        result = run_workload(ALL_WORKLOADS[workload_name],
                                              args.engine,
                                              inject=template.format(
                                                  seed=seed),
                                              cache_dir=cache_dir)
                    except Exception as error:  # noqa: BLE001 - report all
                        failures += 1
                        rows.append([name, seed, workload_name, "FAIL",
                                     "-", "-", "-", str(error)[:60]])
                        continue
                    stats = result.stats
                    row = _smoke_row(name, seed, workload_name, stats, warm)
                    # A warm run that revived nothing, or a wrong result
                    # injected but never detected, tested nothing it was
                    # meant to.
                    if warm and not stats.get("cache.tb_loaded") or \
                            stats.get("robust.inj_rule_wrong") and \
                            not stats.get("robust.selfcheck_failures"):
                        failures += 1
                        row[3] = "FAIL"
                    rows.append(row)
    print(format_table(
        ["Scenario", "Seed", "Workload", "Result", "Injected",
         "Quarantined", "Recovered", "Notes"], rows,
        title=f"fault-injection smoke matrix ({args.engine})"))
    if failures:
        print(f"{failures} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(rows)} scenarios passed")
    return 0


def _smoke_row(name, seed, workload_name, stats, warm):
    injected = sum(int(count) for key, count in stats.items()
                   if key.startswith("robust.inj_"))
    fallback = sum(
        int(count) for key, count in stats.items()
        if key.startswith("robust.tier_") and
        key.endswith("_tbs") and key != "robust.tier_rules_tbs")
    notes = f"fallback_tbs={fallback}"
    if warm:
        notes += f" loaded={stats.get('cache.tb_loaded', 0):.0f}"
    return [name, seed, workload_name, "ok", injected,
            f"{stats.get('robust.quarantined_rules', 0):.0f}",
            f"{stats.get('robust.recovered_faults', 0):.0f}", notes]


def cmd_check(args) -> int:
    from .analysis.checker import (ALL_CHECK_ENGINES, ALL_CHECK_WORKLOADS,
                                   DEFAULT_ENGINES, DEFAULT_WORKLOADS,
                                   run_check)
    from .analysis.findings import severity_from_name
    from .common.errors import ReproError

    try:
        threshold = severity_from_name(args.fail_on)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload:
        unknown = [w for w in args.workload if w not in ALL_WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return 2
        workloads = tuple(args.workload)
    else:
        workloads = ALL_CHECK_WORKLOADS if args.all else DEFAULT_WORKLOADS
    engines = ALL_CHECK_ENGINES if args.all else DEFAULT_ENGINES
    try:
        report = run_check(workloads=workloads, engines=engines,
                           rules=not args.no_rules,
                           include_waivers=args.waivers,
                           inject=args.inject, profile=args.profile)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        import os
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_table())
    return report.exit_code(threshold)


#: Default export directory for ``repro profile`` artifacts.
RESULTS_DIR = "benchmarks/results"


def cmd_profile(args) -> int:
    import os

    from .common.errors import ReproError
    from .harness.runner import make_machine
    from .observability.export import write_chrome_trace, write_profile_json
    from .observability.profile import Profiler, build_profile, render_profile
    from .observability.trace import Tracer

    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    tracer = Tracer()
    profiler = Profiler()
    machine = make_machine(workload, args.engine, inject=args.inject,
                           tracer=tracer, profiler=profiler)
    try:
        machine.run(workload.max_insns)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    profile = build_profile(machine, workload=args.workload,
                            engine=args.engine)
    print(render_profile(profile, top=args.top))

    slug = f"{args.workload}_{args.engine}".replace("-", "_")
    profile_path = args.json or os.path.join(
        RESULTS_DIR, f"profile_{slug}.json")
    trace_path = args.trace or os.path.join(
        RESULTS_DIR, f"trace_{slug}.json")
    write_profile_json(profile_path, profile)
    write_chrome_trace(trace_path, tracer.events())
    print(f"\nprofile written to {profile_path}")
    print(f"trace written to {trace_path} ({tracer.emitted} events, "
          f"{tracer.dropped} dropped) — load it in Perfetto or "
          f"chrome://tracing")
    return 0


def cmd_validate_trace(args) -> int:
    import json

    from .observability.export import validate_chrome_trace

    with open(args.file) as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as error:
            print(f"{args.file}: not valid JSON: {error}",
                  file=sys.stderr)
            return 1
    problems = validate_chrome_trace(obj)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    count = len(obj["traceEvents"])
    print(f"{args.file}: valid Chrome trace ({count} events)")
    return 0


def cmd_compare(args) -> int:
    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rows = []
    baseline = None
    for engine in ("interp", "tcg", "rules-base", "rules-full"):
        result = run_workload(workload, engine)
        if engine == "tcg":
            baseline = result.runtime
        rows.append([engine, result.guest_icount,
                     f"{result.runtime:.0f}",
                     f"{result.cost_per_guest:.2f}", result.runtime])
    for row in rows:
        runtime = row.pop()
        row.append(f"{baseline / runtime:.2f}x" if row[0] != "interp"
                   else "--")
    print(format_table(
        ["Engine", "Guest insns", "Runtime", "Cost/guest",
         "Speedup vs QEMU"], rows,
        title=f"{args.workload}: engine comparison"))
    return 0


def cmd_cache(args) -> int:
    """The ``cache`` maintenance verb: info | clear | verify.

    Exit codes: 0 (ok — including an empty or missing cache dir),
    1 (``verify`` found problems), 2 (usage error, via argparse)."""
    import json
    import os

    from .cache.store import (clear_stores, iter_store_dirs, store_info,
                              verify_store)

    root = args.dir
    if args.action == "clear":
        removed = clear_stores(root)
        print(f"removed {removed} store(s) from {root}")
        return 0
    dirs = iter_store_dirs(root)
    if args.action == "info":
        infos = [store_info(directory) for directory in dirs]
        if args.format == "json":
            print(json.dumps({"root": root, "stores": infos},
                             indent=1, sort_keys=True))
        else:
            rows = [[info["key"], info["entries"],
                     info["format_version"], info["bytes"]]
                    for info in infos]
            print(format_table(["Store", "Entries", "Format", "Bytes"],
                               rows,
                               title=f"translation cache at {root}"))
        return 0
    reports = []
    bad = 0
    for directory in dirs:
        problems = verify_store(directory)
        bad += bool(problems)
        reports.append({"key": os.path.basename(directory),
                        "problems": problems})
    if args.format == "json":
        print(json.dumps({"root": root, "stores": reports,
                          "ok": not bad}, indent=1, sort_keys=True))
    else:
        for report in reports:
            print(f"{report['key']}: "
                  f"{'ok' if not report['problems'] else 'CORRUPT'}")
            for problem in report["problems"]:
                print(f"  - {problem}")
        print(f"{len(reports)} store(s), {bad} with problems")
    return 1 if bad else 0


def cmd_bench(args) -> int:
    if args.experiment is not None:
        return _bench_experiment(args)
    return _bench_suite(args)


def _report_claims(results, out=None) -> int:
    """Print paper-claim verdicts; 1 if any claim is violated."""
    from .observability.bench import CLAIM_VIOLATED, render_claims

    print(render_claims(results), file=out)
    violated = [claim for claim, verdict in results
                if verdict == CLAIM_VIOLATED]
    for claim in violated:
        print(f"paper claim VIOLATED: {claim.experiment}: {claim.text}",
              file=sys.stderr)
    return 1 if violated else 0


def _bench_experiment(args) -> int:
    """Print one paper figure (or ``all``) and check its claims."""
    from .observability.bench import check_claims

    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    figures = {}
    for name in names:
        experiment = ALL_EXPERIMENTS.get(name)
        if experiment is None:
            print(f"unknown experiment {name!r} "
                  f"(one of: {', '.join(sorted(ALL_EXPERIMENTS))})",
                  file=sys.stderr)
            return 2
        result = experiment()
        figures[name] = {"rows": result.rows, "summary": result.summary}
        print(result.text)
        print()
    return _report_claims([(claim, verdict) for claim, verdict
                           in check_claims({"figures": figures})
                           if claim.experiment in figures])


def _bench_suite(args) -> int:
    """Suite mode: run the benchmark suite, write a trajectory snapshot,
    optionally compare against a blessed baseline and gate."""
    import json

    from .common.errors import ReproError
    from .observability.baseline import (load_snapshot, next_snapshot_path,
                                         validate_snapshot, write_snapshot)
    from .observability.bench import check_claims, render_snapshot, run_suite
    from .observability.regress import (GATE_LEVELS, IncomparableSnapshots,
                                        compare_snapshots)

    if args.fail_on not in GATE_LEVELS:
        print(f"unknown --fail-on level {args.fail_on!r} "
              f"(one of: {', '.join(sorted(GATE_LEVELS))})",
              file=sys.stderr)
        return 2
    if args.workload:
        unknown = [w for w in args.workload if w not in ALL_WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return 2
        mode = "custom"
        sweep = tuple(args.workload)
    else:
        mode = "quick" if args.quick else "full"
        sweep = None

    def progress(message: str) -> None:
        print(f"bench: {message}", file=sys.stderr)

    try:
        snapshot = run_suite(
            mode=mode, sweep_workloads=sweep, inject=args.inject,
            results_dir=RESULTS_DIR if args.export_results else None,
            cache_dir=args.cache_dir,
            progress=progress)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems = validate_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"internal error: snapshot invalid: {problem}",
                  file=sys.stderr)
        return 2

    out = args.out or next_snapshot_path(".")
    write_snapshot(out, snapshot)
    print(f"snapshot written to {out}", file=sys.stderr)

    # Claim verdicts go to stderr under --format json, so stdout stays
    # one JSON document.
    def claims_code() -> int:
        return _report_claims(
            check_claims(snapshot),
            out=sys.stderr if args.format == "json" else None)

    if args.compare is None:
        if args.format == "json":
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        else:
            print(render_snapshot(snapshot))
        return claims_code()

    try:
        baseline = load_snapshot(args.compare)
    except (OSError, ValueError) as error:
        print(f"error: cannot load baseline {args.compare!r}: {error}",
              file=sys.stderr)
        return 2
    try:
        report = compare_snapshots(baseline, snapshot)
    except IncomparableSnapshots as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_table())
    code = report.exit_code(args.fail_on)
    if code:
        failing = report.gating_verdicts(args.fail_on)
        print(f"perf gate FAILED: {len(failing)} metric(s) at or above "
              f"--fail-on {args.fail_on}", file=sys.stderr)
    return max(code, claims_code())


def cmd_learn(args) -> int:
    from .learning.learn import learn
    from .learning.serialize import save_rulebook

    result = learn()
    print(result.summary())
    for reason in result.rejected:
        print("  rejected:", reason)
    if args.save:
        save_rulebook(result.rulebook, args.save)
        print(f"rulebook saved to {args.save} "
              f"({len(result.rules)} rules)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="System-level rule-based DBT reproduction (CGO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/engines/experiments")

    run_parser = sub.add_parser("run", help="run a named workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--engine", default="rules-full",
                            choices=ENGINE_SPECS)
    run_parser.add_argument("--inject", metavar="SPEC", default=None,
                            help="fault-injection spec, e.g. "
                                 "seed=7,mem=0.01,rule-corrupt=SUB")
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a Chrome trace JSON of the run")
    run_parser.add_argument("--check", action="store_true",
                            help="verify every rules-tier TB before it "
                                 "enters the code cache")
    run_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="persistent translation cache: warm-"
                                 "start from DIR and persist new "
                                 "rules-tier TBs there")

    exec_parser = sub.add_parser("exec", help="run a guest assembly file")
    exec_parser.add_argument("file")
    exec_parser.add_argument("--engine", default="rules-full",
                             choices=ENGINE_SPECS)
    exec_parser.add_argument("--inject", metavar="SPEC", default=None,
                             help="fault-injection spec")
    exec_parser.add_argument("--trace", metavar="PATH", default=None,
                             help="write a Chrome trace JSON of the run")
    exec_parser.add_argument("--check", action="store_true",
                             help="verify every rules-tier TB before it "
                                  "enters the code cache")
    exec_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                             help="persistent translation cache "
                                  "directory")

    cache_parser = sub.add_parser(
        "cache", help="inspect, clear or verify a persistent "
                      "translation cache directory")
    cache_parser.add_argument("action", choices=("info", "clear",
                                                 "verify"))
    cache_parser.add_argument("dir", help="the --cache-dir root")
    cache_parser.add_argument("--format", choices=("table", "json"),
                              default="table")

    check_parser = sub.add_parser(
        "check", help="run the translation soundness checker")
    check_parser.add_argument("--all", action="store_true",
                              help="full matrix: representative workloads "
                                   "at every optimization level")
    check_parser.add_argument("--workload", action="append", default=[],
                              metavar="NAME",
                              help="check this workload (repeatable; "
                                   "overrides the default set)")
    check_parser.add_argument("--no-rules", action="store_true",
                              help="skip the symbolic rulebook phase")
    check_parser.add_argument("--waivers", action="store_true",
                              help="also report info-level waivers "
                                   "(documented imprecisions)")
    check_parser.add_argument("--profile", action="store_true",
                              help="attach profiler cost to findings")
    check_parser.add_argument("--inject", metavar="SPEC", default=None,
                              help="fault-injection spec (the checker "
                                   "must flag what it corrupts)")
    check_parser.add_argument("--format", choices=("table", "json"),
                              default="table")
    check_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the findings report JSON here")
    check_parser.add_argument("--fail-on", metavar="SEVERITY",
                              default="info",
                              help="exit 1 when any finding exceeds this "
                                   "severity (info/warning/error; "
                                   "default info)")

    profile_parser = sub.add_parser(
        "profile", help="profile a workload (hot TBs + cost breakdown)")
    profile_parser.add_argument("workload")
    profile_parser.add_argument("--engine", default="rules-full",
                                choices=ENGINE_SPECS)
    profile_parser.add_argument("--top", type=int, default=20,
                                help="rows in the hot-TB table")
    profile_parser.add_argument("--inject", metavar="SPEC", default=None,
                                help="fault-injection spec")
    profile_parser.add_argument("--json", metavar="PATH", default=None,
                                help="profile JSON output path")
    profile_parser.add_argument("--trace", metavar="PATH", default=None,
                                help="Chrome trace JSON output path")

    validate_parser = sub.add_parser(
        "validate-trace",
        help="validate a Chrome trace JSON export")
    validate_parser.add_argument("file")

    smoke_parser = sub.add_parser(
        "faultsmoke", help="run the fault-injection smoke matrix")
    smoke_parser.add_argument("--engine", default="rules-full",
                              choices=ENGINE_SPECS)
    smoke_parser.add_argument("--seeds", type=int, default=2,
                              help="seeds per scenario (default 2)")

    compare_parser = sub.add_parser("compare",
                                    help="compare engines on a workload")
    compare_parser.add_argument("workload")

    bench_parser = sub.add_parser(
        "bench",
        help="run the benchmark suite (snapshot + regression gate), or "
             "print one paper figure")
    bench_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="print this experiment (or 'all') and check its paper "
             "claims; omit to run the suite")
    bench_parser.add_argument("--quick", action="store_true",
                              help="SPEC-sweep experiments only (skips "
                                   "ablation/fig19/footnote3)")
    bench_parser.add_argument("--workload", action="append", default=[],
                              metavar="NAME",
                              help="custom sweep over these workloads "
                                   "(repeatable; skips figure experiments)")
    bench_parser.add_argument("--inject", metavar="SPEC", default=None,
                              help="fault-injection spec threaded through "
                                   "the sweep (extra-sync simulates a "
                                   "perf regression)")
    bench_parser.add_argument("--out", metavar="PATH", default=None,
                              help="snapshot output path (default: next "
                                   "free BENCH_<n>.json in the repo root)")
    bench_parser.add_argument("--compare", metavar="BASELINE",
                              default=None,
                              help="compare against this baseline "
                                   "snapshot and gate")
    bench_parser.add_argument("--fail-on", metavar="LEVEL",
                              default="regressed",
                              help="gate level: regressed/changed/never "
                                   "(default regressed)")
    bench_parser.add_argument("--format", choices=("table", "json"),
                              default="table")
    bench_parser.add_argument("--export-results", action="store_true",
                              help="also write benchmarks/results/"
                                   "<name>.{txt,json} companions")
    bench_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                              help="persistent translation cache threaded "
                                   "through the whole sweep (warm-start "
                                   "counts go to stderr, never into the "
                                   "snapshot)")

    learn_parser = sub.add_parser("learn", help="run the learning pipeline")
    learn_parser.add_argument("--save", metavar="PATH", default=None)

    args = parser.parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "exec": cmd_exec,
                "compare": cmd_compare, "bench": cmd_bench,
                "cache": cmd_cache, "learn": cmd_learn,
                "faultsmoke": cmd_faultsmoke,
                "profile": cmd_profile, "check": cmd_check,
                "validate-trace": cmd_validate_trace}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
