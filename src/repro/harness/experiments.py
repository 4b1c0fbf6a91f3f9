"""Per-experiment reproduction: one function per paper table/figure.

Each experiment returns a structured result (plus a rendered text table).
:data:`CLAIMS` states the paper's qualitative claims — who wins,
monotonic improvements, relative orderings — as predicates over those
results, without depending on exact magnitudes; ``repro bench`` checks
them.  Paper reference values are attached for side-by-side reporting
in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..workloads.realworld import REALWORLD_WORKLOADS
from ..workloads.spec import SPEC_WORKLOADS
from ..workloads.specfp import SPECFP_WORKLOADS
from .report import format_table, geomean, percent
from .runner import RunResult, run_cached

SPEC_ORDER = ["perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
              "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk"]

REALWORLD_ORDER = ["memcached", "sqlite", "fileio", "untar", "cpu-prime"]

RULE_LEVELS = ["rules-base", "rules-reduction", "rules-elimination",
               "rules-full"]

LEVEL_LABELS = {"rules-base": "Base", "rules-reduction": "+Reduction",
                "rules-elimination": "+Elimination",
                "rules-full": "+Scheduling"}

#: Paper-reported values for EXPERIMENTS.md side-by-sides.
PAPER = {
    "fig14_unopt_geomean": 0.95,
    "fig14_full_geomean": 1.36,
    "fig15_qemu": 17.39,
    "fig15_rules": 15.40,
    "fig16": {"Base": 0.95, "+Reduction": 1.22, "+Elimination": 1.30,
              "+Scheduling": 1.36},
    "fig17": {"Base": 8.36, "+Reduction": 1.79, "+Elimination": 1.33,
              "+Scheduling": 0.89},
    "fig18_qemu": 18.73,
    "fig18_rules": 13.83,
    "fig19_geomean": 1.15,
    "table1_geomean": {"system": 0.25, "memory": 33.46, "check": 15.12},
    "fig8_before": 14,
    "fig8_after": 3,
    "coordination_before_pct": 48.83,
    "coordination_after_pct": 24.61,
}


@dataclass
class ExperimentResult:
    name: str
    rows: List[Dict] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    text: str = ""


def _spec_results(engine: str) -> Dict[str, RunResult]:
    return {name: run_cached(SPEC_WORKLOADS[name], engine)
            for name in SPEC_ORDER}


# ---------------------------------------------------------------------------
# Table I.
# ---------------------------------------------------------------------------


def table1() -> ExperimentResult:
    """Distribution of coordination-requiring categories (QEMU baseline)."""
    result = ExperimentResult("table1")
    rows = []
    for name in SPEC_ORDER:
        run = run_cached(SPEC_WORKLOADS[name], "tcg")
        stats = run.stats
        guest = max(run.guest_icount, 1)
        row = {
            "benchmark": name,
            "system_pct": percent(stats["engine.system_insns_dyn"], guest),
            "memory_pct": percent(stats["engine.memory_insns_dyn"], guest),
            "check_pct": percent(stats["engine.interrupt_checks_dyn"], guest),
        }
        rows.append(row)
    result.rows = rows
    result.summary = {
        "system_geomean": geomean([r["system_pct"] for r in rows]),
        "memory_geomean": geomean([r["memory_pct"] for r in rows]),
        "check_geomean": geomean([r["check_pct"] for r in rows]),
    }
    table_rows = [[r["benchmark"], r["system_pct"], r["memory_pct"],
                   r["check_pct"]] for r in rows]
    table_rows.append(["GEOMEAN", result.summary["system_geomean"],
                       result.summary["memory_geomean"],
                       result.summary["check_geomean"]])
    result.text = format_table(
        ["Benchmark", "System-level %", "Memory %", "Interrupt check %"],
        table_rows, title="Table I: coordination-requiring categories "
                          "(measured on the QEMU baseline)")
    return result


# ---------------------------------------------------------------------------
# Figure 8: host instructions per coordination operation.
# ---------------------------------------------------------------------------


def fig8() -> ExperimentResult:
    """Sync sequence length: parsed (Base) vs packed (+Reduction)."""
    result = ExperimentResult("fig8")
    per_level = {}
    for engine in ("rules-base", "rules-reduction"):
        runs = _spec_results(engine)
        ops = sum(r.stats["engine.sync_ops_dyn"] for r in runs.values())
        insns = sum(r.stats["engine.sync_insns_weighted"] for r in runs.values())
        per_level[engine] = insns / max(ops, 1)
    result.summary = {
        "parsed_insns_per_sync": per_level["rules-base"],
        "packed_insns_per_sync": per_level["rules-reduction"],
        "saving_pct": percent(
            per_level["rules-base"] - per_level["rules-reduction"],
            per_level["rules-base"]),
    }
    result.text = format_table(
        ["Scheme", "Host instructions / coordination op", "Paper"],
        [["parsed (Base)", per_level["rules-base"], PAPER["fig8_before"]],
         ["packed (+Reduction)", per_level["rules-reduction"],
          PAPER["fig8_after"]],
         ["saving %", result.summary["saving_pct"], 78.0]],
        title="Fig 8: coordination overhead reduction")
    return result


# ---------------------------------------------------------------------------
# Figures 14 and 16: speedups over QEMU.
# ---------------------------------------------------------------------------


def fig14() -> ExperimentResult:
    """Per-benchmark speedup: un-optimized and fully-optimized rules."""
    result = ExperimentResult("fig14")
    qemu = _spec_results("tcg")
    unopt = _spec_results("rules-base")
    full = _spec_results("rules-full")
    rows = []
    for name in SPEC_ORDER:
        rows.append({
            "benchmark": name,
            "unopt_speedup": qemu[name].runtime / unopt[name].runtime,
            "full_speedup": qemu[name].runtime / full[name].runtime,
        })
    result.rows = rows
    result.summary = {
        "unopt_geomean": geomean([r["unopt_speedup"] for r in rows]),
        "full_geomean": geomean([r["full_speedup"] for r in rows]),
    }
    table_rows = [[r["benchmark"], r["unopt_speedup"], r["full_speedup"]]
                  for r in rows]
    table_rows.append(["GEOMEAN", result.summary["unopt_geomean"],
                       result.summary["full_geomean"]])
    result.text = format_table(
        ["Benchmark", "Un-opt rules (x)", "Full opt (x)"], table_rows,
        title="Fig 14: speedup over QEMU on SPEC CINT2006 analogs "
              f"(paper: {PAPER['fig14_unopt_geomean']}x un-opt, "
              f"{PAPER['fig14_full_geomean']}x full)")
    return result


def fig16() -> ExperimentResult:
    """Cumulative speedup after each optimization."""
    result = ExperimentResult("fig16")
    qemu = _spec_results("tcg")
    for engine in RULE_LEVELS:
        runs = _spec_results(engine)
        speedups = [qemu[name].runtime / runs[name].runtime
                    for name in SPEC_ORDER]
        result.summary[LEVEL_LABELS[engine]] = geomean(speedups)
    rows = [[label, value, PAPER["fig16"][label]]
            for label, value in result.summary.items()]
    result.text = format_table(
        ["Configuration", "Speedup (x)", "Paper (x)"], rows,
        title="Fig 16: cumulative speedup per optimization")
    return result


# ---------------------------------------------------------------------------
# Figure 15: host instructions per translated guest instruction.
# ---------------------------------------------------------------------------


def fig15() -> ExperimentResult:
    result = ExperimentResult("fig15")
    per_engine = {}
    for engine in ("tcg", "rules-full"):
        runs = _spec_results(engine)
        static_host = sum(r.stats["engine.static_host_insns"]
                          for r in runs.values())
        static_guest = sum(r.stats["engine.static_guest_insns"]
                           for r in runs.values())
        per_engine[engine] = static_host / max(static_guest, 1)
    result.summary = {
        "qemu": per_engine["tcg"],
        "rules_full": per_engine["rules-full"],
        "reduction_pct": percent(
            per_engine["tcg"] - per_engine["rules-full"],
            per_engine["tcg"]),
    }
    result.text = format_table(
        ["System", "Host instr / guest instr (static)", "Paper"],
        [["QEMU", per_engine["tcg"], PAPER["fig15_qemu"]],
         ["rule-based (full opt)", per_engine["rules-full"],
          PAPER["fig15_rules"]],
         ["reduction %", result.summary["reduction_pct"], 11.44]],
        title="Fig 15: average host instructions per guest instruction")
    return result


# ---------------------------------------------------------------------------
# Figure 17: sync host instructions per guest instruction.
# ---------------------------------------------------------------------------


def fig17() -> ExperimentResult:
    result = ExperimentResult("fig17")
    for engine in RULE_LEVELS:
        runs = _spec_results(engine)
        sync = sum(r.stats.get("engine.tag_sync", 0.0) for r in runs.values())
        guest = sum(r.guest_icount for r in runs.values())
        result.summary[LEVEL_LABELS[engine]] = sync / max(guest, 1)
    rows = [[label, value, PAPER["fig17"][label]]
            for label, value in result.summary.items()]
    result.text = format_table(
        ["Configuration", "Sync host instr / guest instr", "Paper"], rows,
        title="Fig 17: coordination host instructions per guest "
              "instruction")
    return result


# ---------------------------------------------------------------------------
# Figure 18: slowdown vs native execution.
# ---------------------------------------------------------------------------


def fig18() -> ExperimentResult:
    result = ExperimentResult("fig18")
    rows = []
    for name in SPEC_ORDER:
        qemu = run_cached(SPEC_WORKLOADS[name], "tcg")
        rules = run_cached(SPEC_WORKLOADS[name], "rules-full")
        native = max(qemu.guest_icount, 1)  # 1 guest instr = 1 native unit
        rows.append({
            "benchmark": name,
            "qemu_slowdown": qemu.runtime / native,
            "rules_slowdown": rules.runtime / native,
        })
    result.rows = rows
    result.summary = {
        "qemu_geomean": geomean([r["qemu_slowdown"] for r in rows]),
        "rules_geomean": geomean([r["rules_slowdown"] for r in rows]),
    }
    table_rows = [[r["benchmark"], r["qemu_slowdown"], r["rules_slowdown"]]
                  for r in rows]
    table_rows.append(["GEOMEAN", result.summary["qemu_geomean"],
                       result.summary["rules_geomean"]])
    result.text = format_table(
        ["Benchmark", "QEMU slowdown (x)", "Rule-based slowdown (x)"],
        table_rows,
        title="Fig 18: slowdown vs native execution "
              f"(paper: {PAPER['fig18_qemu']}x vs {PAPER['fig18_rules']}x)")
    return result


# ---------------------------------------------------------------------------
# Figure 19: real-world applications.
# ---------------------------------------------------------------------------


def fig19() -> ExperimentResult:
    result = ExperimentResult("fig19")
    rows = []
    for name in REALWORLD_ORDER:
        workload = REALWORLD_WORKLOADS[name]
        qemu = run_cached(workload, "tcg")
        rules = run_cached(workload, "rules-full")
        rows.append({
            "application": name,
            "speedup": qemu.runtime / rules.runtime,
            "io_fraction": qemu.io_cost / max(qemu.runtime, 1),
        })
    result.rows = rows
    result.summary = {
        "geomean": geomean([r["speedup"] for r in rows]),
    }
    table_rows = [[r["application"], r["speedup"],
                   100.0 * r["io_fraction"]] for r in rows]
    table_rows.append(["GEOMEAN", result.summary["geomean"], ""])
    result.text = format_table(
        ["Application", "Speedup (x)", "I/O time %"], table_rows,
        title="Fig 19: real-world application speedup over QEMU "
              f"(paper geomean: {PAPER['fig19_geomean']}x)")
    return result


# ---------------------------------------------------------------------------
# Sec IV-B coordination-percentage claims.
# ---------------------------------------------------------------------------


def coordination_claims() -> ExperimentResult:
    """48.83% of guest instructions need coordination before the
    optimizations; 24.61% keep a coordination op after."""
    result = ExperimentResult("coordination")
    qemu = _spec_results("tcg")
    guest = sum(r.guest_icount for r in qemu.values())
    sites = sum(r.stats["engine.memory_insns_dyn"] + r.stats["engine.system_insns_dyn"] +
                r.stats["engine.interrupt_checks_dyn"] for r in qemu.values())
    base = _spec_results("rules-base")
    full = _spec_results("rules-full")
    base_ops = sum(r.stats["engine.sync_ops_dyn"] for r in base.values())
    full_ops = sum(r.stats["engine.sync_ops_dyn"] for r in full.values())
    result.summary = {
        "sites_pct": percent(sites, guest),
        "base_coordination_pct": percent(base_ops / 2, guest),
        "full_coordination_pct": percent(full_ops / 2, guest),
    }
    result.text = format_table(
        ["Quantity", "Measured %", "Paper %"],
        [["instructions that are coordination sites",
          result.summary["sites_pct"], PAPER["coordination_before_pct"]],
         ["coordination pairs per instruction (Base)",
          result.summary["base_coordination_pct"], ""],
         ["coordination pairs per instruction (full opt)",
          result.summary["full_coordination_pct"],
          PAPER["coordination_after_pct"]]],
        title="Sec IV-B: coordination elimination")
    return result


def footnote3() -> ExperimentResult:
    """With FP workloads included the speedup grows (paper: 1.92x vs
    1.36x), because FP rules need neither helpers nor coordination."""
    result = ExperimentResult("footnote3")
    qemu_int = _spec_results("tcg")
    full_int = _spec_results("rules-full")
    int_speedups = [qemu_int[name].runtime / full_int[name].runtime
                    for name in SPEC_ORDER]
    fp_speedups = []
    rows = []
    for name in sorted(SPECFP_WORKLOADS):
        workload = SPECFP_WORKLOADS[name]
        qemu = run_cached(workload, "tcg")
        rules = run_cached(workload, "rules-full")
        speedup = qemu.runtime / rules.runtime
        fp_speedups.append(speedup)
        rows.append([name, speedup])
    result.summary = {
        "int_geomean": geomean(int_speedups),
        "combined_geomean": geomean(int_speedups + fp_speedups),
        "fp_geomean": geomean(fp_speedups),
    }
    rows.append(["CINT geomean", result.summary["int_geomean"]])
    rows.append(["CINT+CFP geomean", result.summary["combined_geomean"]])
    result.text = format_table(
        ["Workload", "Speedup (x)"], rows,
        title="Footnote 3: floating-point workloads "
              "(paper: 1.92x combined vs 1.36x integer-only)")
    return result


# ---------------------------------------------------------------------------
# Ablation over the individual optimization switches (not a paper
# figure; complements Fig 16's cumulative view).
# ---------------------------------------------------------------------------

#: Representative subset (memory-heavy, branchy, balanced).
ABLATION_SUBSET = ["mcf", "xalancbmk", "bzip2", "hmmer"]


def _ablation_configs() -> Dict[str, "OptConfig"]:
    from ..core import OptConfig

    return {
        "base": OptConfig(),
        "packed only": OptConfig(packed_sync=True),
        "elimination only": OptConfig(eliminate_redundant=True,
                                      inter_tb=True),
        "packed + elimination": OptConfig(packed_sync=True,
                                          eliminate_redundant=True,
                                          inter_tb=True),
        "full (no inter-TB)": OptConfig(packed_sync=True,
                                        eliminate_redundant=True,
                                        scheduling=True),
        "full": OptConfig(packed_sync=True, eliminate_redundant=True,
                          inter_tb=True, scheduling=True),
        "full + irq-relocation": OptConfig(packed_sync=True,
                                           eliminate_redundant=True,
                                           inter_tb=True, scheduling=True,
                                           irq_scheduling=True),
    }


def ablation() -> ExperimentResult:
    """Per-switch ablation on a representative workload subset."""
    from .runner import current_cache_inject, run_workload

    result = ExperimentResult("ablation")
    inject = current_cache_inject()
    qemu = {name: run_cached(SPEC_WORKLOADS[name], "tcg").runtime
            for name in ABLATION_SUBSET}
    for label, config in _ablation_configs().items():
        runtimes = [run_workload(SPEC_WORKLOADS[name], "rules-custom",
                                 config=config, inject=inject).runtime
                    for name in ABLATION_SUBSET]
        result.summary[label] = geomean(
            [qemu[name] / runtime
             for name, runtime in zip(ABLATION_SUBSET, runtimes)])
    result.text = format_table(
        ["Configuration", "Speedup (x)"],
        [[label, value] for label, value in result.summary.items()],
        title="Ablation: individual optimization switches "
              f"(subset: {', '.join(ABLATION_SUBSET)})")
    return result


ALL_EXPERIMENTS = {
    "table1": table1,
    "fig8": fig8,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "ablation": ablation,
    "coordination": coordination_claims,
    "footnote3": footnote3,
}


# ---------------------------------------------------------------------------
# The paper's shape claims, checked by ``repro bench``.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``holds(summary, rows)`` over one experiment."""

    experiment: str
    text: str
    holds: Callable[[Dict[str, float], List[Dict]], bool]


def _by(rows: List[Dict], key: str) -> Dict[str, Dict]:
    return {row[key]: row for row in rows}


CLAIMS = [
    # Table I: memory accesses dominate, interrupt checks second,
    # system-level instructions are a small fraction; gcc is the most
    # system-heavy, hmmer has the longest blocks (fewest checks), mcf
    # and hmmer are among the most memory-intensive.
    Claim("table1", "memory > interrupt check > system-level (geomean %)",
          lambda s, r: s["memory_geomean"] > s["check_geomean"] >
          s["system_geomean"]),
    Claim("table1", "system-level geomean < 1%",
          lambda s, r: s["system_geomean"] < 1.0),
    Claim("table1", "10% < memory geomean < 60%",
          lambda s, r: 10.0 < s["memory_geomean"] < 60.0),
    Claim("table1", "5% < interrupt-check geomean < 30%",
          lambda s, r: 5.0 < s["check_geomean"] < 30.0),
    Claim("table1", "gcc has the largest system-level share",
          lambda s, r: _by(r, "benchmark")["gcc"]["system_pct"] ==
          max(row["system_pct"] for row in r)),
    Claim("table1", "hmmer has the smallest interrupt-check share",
          lambda s, r: _by(r, "benchmark")["hmmer"]["check_pct"] ==
          min(row["check_pct"] for row in r)),
    Claim("table1", "mcf and hmmer are among the 4 most memory-intensive",
          lambda s, r: {"mcf", "hmmer"} <= {
              row["benchmark"] for row in
              sorted(r, key=lambda row: -row["memory_pct"])[:4]}),
    # Fig 8: packed sync is several times cheaper than parsed (14 -> 3).
    Claim("fig8", "parsed insns/sync > 2.5 x packed insns/sync",
          lambda s, r: s["parsed_insns_per_sync"] >
          2.5 * s["packed_insns_per_sync"]),
    Claim("fig8", "packed insns/sync < 4",
          lambda s, r: s["packed_insns_per_sync"] < 4.0),
    Claim("fig8", "50% < saving < 90%",
          lambda s, r: 50.0 < s["saving_pct"] < 90.0),
    # Fig 14: naive rule application is not faster than QEMU (the paper
    # measures a 5% slowdown); full optimization wins everywhere.
    Claim("fig14", "un-optimized geomean < 1.05",
          lambda s, r: s["unopt_geomean"] < 1.05),
    Claim("fig14", "fully-optimized geomean > 1.2",
          lambda s, r: s["full_geomean"] > 1.2),
    Claim("fig14", "full speedup > 1 on every benchmark",
          lambda s, r: all(row["full_speedup"] > 1.0 for row in r)),
    Claim("fig14", "full speedup > un-optimized on every benchmark",
          lambda s, r: all(row["full_speedup"] > row["unopt_speedup"]
                           for row in r)),
    # Fig 15: rules emit denser code than the two-step IR pipeline
    # (paper: 17.39 -> 15.40).
    Claim("fig15", "rules host/guest insns < QEMU host/guest insns",
          lambda s, r: s["rules_full"] < s["qemu"]),
    Claim("fig15", "5% < reduction < 50%",
          lambda s, r: 5.0 < s["reduction_pct"] < 50.0),
    Claim("fig15", "8 < QEMU host/guest insns < 25",
          lambda s, r: 8.0 < s["qemu"] < 25.0),
    # Fig 16: monotone improvement; Base at best marginal vs QEMU.
    Claim("fig16", "Base < 1.05",
          lambda s, r: s["Base"] < 1.05),
    Claim("fig16", "Base < +Reduction",
          lambda s, r: s["Base"] < s["+Reduction"]),
    Claim("fig16", "+Reduction < +Elimination",
          lambda s, r: s["+Reduction"] < s["+Elimination"]),
    Claim("fig16", "+Scheduling >= 0.98 x +Elimination",
          lambda s, r: s["+Scheduling"] >= 0.98 * s["+Elimination"]),
    Claim("fig16", "+Scheduling > 1.2",
          lambda s, r: s["+Scheduling"] > 1.2),
    # Fig 17: each optimization reduces coordination traffic
    # (paper: 8.36 -> 1.79 -> 1.33 -> 0.89).
    Claim("fig17", "Base > +Reduction",
          lambda s, r: s["Base"] > s["+Reduction"]),
    Claim("fig17", "+Reduction > +Elimination",
          lambda s, r: s["+Reduction"] > s["+Elimination"]),
    Claim("fig17", "+Scheduling <= 1.01 x +Elimination",
          lambda s, r: s["+Scheduling"] <= s["+Elimination"] * 1.01),
    Claim("fig17", "+Scheduling < 1",
          lambda s, r: s["+Scheduling"] < 1.0),
    Claim("fig17", "Base > 3",
          lambda s, r: s["Base"] > 3.0),
    # Fig 18: both systems are far slower than native; rules are closer
    # (paper: 18.73x vs 13.83x).
    Claim("fig18", "5 < rules geomean < QEMU geomean < 30",
          lambda s, r: 5.0 < s["rules_geomean"] < s["qemu_geomean"] <
          30.0),
    Claim("fig18", "rules slowdown < QEMU slowdown on every benchmark",
          lambda s, r: all(row["rules_slowdown"] < row["qemu_slowdown"]
                           for row in r)),
    # Fig 19: everything speeds up; the I/O- and network-bound
    # applications gain the least, the CPU-bound ones the most.
    Claim("fig19", "speedup > 1 on every application",
          lambda s, r: all(row["speedup"] > 1.0 for row in r)),
    Claim("fig19", "max(cpu-prime, sqlite) > min(fileio, untar, memcached)",
          lambda s, r: max(_by(r, "application")[name]["speedup"]
                           for name in ("cpu-prime", "sqlite")) >
          min(_by(r, "application")[name]["speedup"]
              for name in ("fileio", "untar", "memcached"))),
    Claim("fig19", "fileio I/O fraction > 0.4",
          lambda s, r: _by(r, "application")["fileio"]["io_fraction"] >
          0.4),
    Claim("fig19", "1 < geomean < 1.6",
          lambda s, r: 1.0 < s["geomean"] < 1.6),
    # Sec IV-B: coordination sites are a large fraction of instructions
    # (paper: 48.83%), and the optimizations remove most coordination
    # operations (paper: down to 24.61%).
    Claim("coordination", "20% < coordination sites < 70%",
          lambda s, r: 20.0 < s["sites_pct"] < 70.0),
    Claim("coordination", "full coordination < 0.6 x Base coordination",
          lambda s, r: s["full_coordination_pct"] <
          0.6 * s["base_coordination_pct"]),
    # Footnote 3: FP rules avoid the softfloat helpers and all
    # coordination, so FP workloads lift the geomean.  With 3 CFP
    # analogs against 12 CINT ones the combined lift is smaller than
    # the paper's; the direction must hold clearly.
    Claim("footnote3", "FP geomean > 1.5 x integer geomean",
          lambda s, r: s["fp_geomean"] > 1.5 * s["int_geomean"]),
    Claim("footnote3", "combined geomean > 1.1 x integer geomean",
          lambda s, r: s["combined_geomean"] > 1.1 * s["int_geomean"]),
    # Ablation: packing and elimination each help on their own,
    # combined they beat either alone, and inter-TB does not hurt.
    Claim("ablation", "packed only > base",
          lambda s, r: s["packed only"] > s["base"]),
    Claim("ablation", "elimination only > base",
          lambda s, r: s["elimination only"] > s["base"]),
    Claim("ablation", "packed + elimination > packed only",
          lambda s, r: s["packed + elimination"] > s["packed only"]),
    Claim("ablation", "packed + elimination > elimination only",
          lambda s, r: s["packed + elimination"] > s["elimination only"]),
    Claim("ablation", "full >= 0.99 x full (no inter-TB)",
          lambda s, r: s["full"] >= 0.99 * s["full (no inter-TB)"]),
]
