"""Continuous-benchmarking orchestrator behind ``repro bench``.

One call to :func:`run_suite` drives the paper experiments through the
shared sweep cache (:mod:`repro.harness.runner`), folds the sweep into
per-engine-tier totals, Sec III coordination breakdowns, sync-site
counters and rule-coverage fractions, and returns one schema-validated
snapshot dict (see :mod:`.baseline`) ready to be written as
``BENCH_<n>.json`` and gated by :mod:`.regress`.  :func:`check_claims`
checks the paper's shape claims (``repro.harness.experiments.CLAIMS``)
against the snapshot's figures.

This is the modelled-cost half of benchmarking.  The real wall-clock
of the Python system is measured per layer by ``perfbench/run.py``.

The suite accepts an ``--inject`` fault plan, threaded through every
cached run: the injector's ``extra-sync`` site turns the harness into a
regression *simulator*, so the gate's detection path is testable end to
end (`repro bench --inject seed=1,extra-sync=0.5 --compare BENCH_0.json`
must exit nonzero and attribute the damage to the coordination
category).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.experiments import ALL_EXPERIMENTS, CLAIMS, SPEC_ORDER
from ..harness.report import format_table
from ..harness.runner import (cached_results, run_cached, set_cache_dir,
                              set_cache_inject)
from ..workloads import ALL_WORKLOADS
from .baseline import SCHEMA, SCHEMA_VERSION, fingerprint
from .profile import coordination_breakdown

# NOTE: the harness imports the machine, which imports this package's
# trace/stats submodules — so every harness import below is deferred
# into the function bodies to keep the package import acyclic.

#: Engine tiers whose totals every snapshot records (the sweep the
#: figure experiments already need, so tier totals cost zero extra runs).
TIER_ENGINES = ("tcg", "rules-base", "rules-reduction",
                "rules-elimination", "rules-full")

#: Experiments a ``--quick`` run keeps: everything computable from the
#: SPEC sweep alone (the cache makes them nearly free once the sweep
#: ran).  Skipped relative to full: fig19 (real-world workloads),
#: footnote3 (SPEC CFP analogs) and the ablation grid.
QUICK_EXPERIMENTS = ("coordination", "fig8", "fig14", "fig15", "fig16",
                     "fig17", "fig18", "table1")

FULL_EXPERIMENTS = QUICK_EXPERIMENTS + ("ablation", "fig19", "footnote3")

def _sum_stat(runs: List[Any], key: str) -> float:
    return float(sum(run.stats.get(key, 0.0) for run in runs))


def run_suite(mode: str = "full",
              experiments: Optional[Tuple[str, ...]] = None,
              sweep_workloads: Optional[Tuple[str, ...]] = None,
              engines: Tuple[str, ...] = TIER_ENGINES,
              inject: Optional[str] = None,
              name: str = "bench",
              cache_dir: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Run the benchmark suite and return one snapshot dict.

    *mode* is ``full`` / ``quick`` / ``custom``; ``custom`` (used with a
    *sweep_workloads* override) runs no figure experiments — they are
    hard-wired to the full SPEC analog set — and records only the
    tier/coordination/sync/coverage sections over the given workloads.

    *cache_dir* threads ``--cache-dir`` through the whole sweep: every
    run warm-starts from (and persists to) that directory.  Warm-start
    accounting goes to *progress* only — never into the snapshot, whose
    deterministic metrics must be bit-identical cold vs warm.
    """
    if experiments is None:
        experiments = {"full": FULL_EXPERIMENTS,
                       "quick": QUICK_EXPERIMENTS}.get(mode, ())
    if sweep_workloads is None:
        sweep_workloads = tuple(SPEC_ORDER)
    unknown = [w for w in sweep_workloads if w not in ALL_WORKLOADS]
    if unknown:
        raise ValueError(f"unknown sweep workload(s): {unknown}")
    say = progress or (lambda _message: None)

    plan = set_cache_inject(inject)
    set_cache_dir(cache_dir)
    try:
        figures: Dict[str, Dict[str, Any]] = {}
        for experiment in experiments:
            say(f"experiment {experiment}")
            result = ALL_EXPERIMENTS[experiment]()
            figures[experiment] = {"rows": list(result.rows),
                                   "summary": dict(result.summary)}

        tiers: Dict[str, Dict[str, float]] = {}
        coordination: Dict[str, Dict[str, float]] = {}
        sync: Dict[str, Dict[str, float]] = {}
        coverage: Dict[str, Dict[str, float]] = {}
        for engine in engines:
            say(f"sweep {engine}")
            runs = [run_cached(ALL_WORKLOADS[w], engine)
                    for w in sweep_workloads]
            tiers[engine] = {
                "guest_icount": float(sum(r.guest_icount for r in runs)),
                "host_instructions":
                    float(sum(r.host_instructions for r in runs)),
                "host_cost": float(sum(r.host_cost for r in runs)),
                "io_cost": float(sum(r.io_cost for r in runs)),
                "runtime": float(sum(r.runtime for r in runs)),
                "translation_cost":
                    _sum_stat(runs, "engine.translation_cost"),
            }
            tag_totals: Dict[str, float] = {}
            for run in runs:
                for key, value in run.stats.items():
                    if key.startswith("engine.tag_"):
                        tag_totals[key] = tag_totals.get(key, 0.0) + value
            breakdown = coordination_breakdown(tag_totals)
            breakdown["total"] = sum(breakdown.values())
            coordination[engine] = breakdown
            if any("engine.sync_ops_dyn" in run.stats for run in runs):
                ops = _sum_stat(runs, "engine.sync_ops_dyn")
                insns = _sum_stat(runs, "engine.sync_insns_weighted")
                sync[engine] = {
                    "sync_ops_dyn": ops,
                    "sync_insns_weighted": insns,
                    "insns_per_sync": insns / max(ops, 1.0),
                    "sync_elisions_dyn":
                        _sum_stat(runs, "engine.sync_elisions_dyn"),
                    "interrupt_checks_dyn":
                        _sum_stat(runs, "engine.interrupt_checks_dyn"),
                }
            if any("engine.rule_covered_insns_dyn" in run.stats
                   for run in runs):
                covered = _sum_stat(runs, "engine.rule_covered_insns_dyn")
                uncovered = _sum_stat(runs,
                                      "engine.rule_uncovered_insns_dyn")
                coverage[engine] = {
                    "covered_insns_dyn": covered,
                    "uncovered_insns_dyn": uncovered,
                    "covered_fraction":
                        covered / max(covered + uncovered, 1.0),
                }

        if cache_dir:
            runs = cached_results()
            summary = {key: sum(r.stats.get(f"cache.{key}", 0.0)
                                for r in runs)
                       for key in ("tb_loaded", "tb_fresh", "tb_saved",
                                   "tb_stale", "tb_evicted")}
            say("persistent cache: loaded {tb_loaded:.0f} TBs, "
                "translated {tb_fresh:.0f} fresh, saved {tb_saved:.0f}, "
                "stale {tb_stale:.0f}, evicted {tb_evicted:.0f}"
                .format(**summary))

        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "mode": mode,
            "figures": figures,
            "tiers": tiers,
            "coordination": coordination,
            "sync": sync,
            "coverage": coverage,
            "fingerprint": fingerprint(
                mode, tuple(sweep_workloads), tuple(engines),
                tuple(experiments),
                inject=plan.describe() if plan is not None else None),
        }
    finally:
        set_cache_inject(None)
        set_cache_dir(None)


# ---------------------------------------------------------------------------
# Snapshot rendering (the ``repro bench --format table`` view).
# ---------------------------------------------------------------------------


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable summary of one snapshot."""
    sections = []
    tiers = snapshot.get("tiers", {})
    rows = []
    for engine, totals in tiers.items():
        guest = max(totals.get("guest_icount", 0.0), 1.0)
        rows.append([engine, f"{totals.get('guest_icount', 0):.0f}",
                     f"{totals.get('host_cost', 0):.0f}",
                     f"{totals.get('io_cost', 0):.0f}",
                     f"{totals.get('host_cost', 0) / guest:.2f}"])
    sections.append(format_table(
        ["Engine", "Guest insns", "Host cost", "IO cost", "Cost/guest"],
        rows, title=f"benchmark snapshot '{snapshot.get('name')}' "
                    f"({snapshot.get('mode')} mode)"))

    coordination = snapshot.get("coordination", {})
    if coordination:
        categories = sorted({category for breakdown
                             in coordination.values()
                             for category in breakdown
                             if category != "total"})
        rows = [[engine] + [f"{breakdown.get(c, 0.0):.0f}"
                            for c in categories] +
                [f"{breakdown.get('total', 0.0):.0f}"]
                for engine, breakdown in coordination.items()]
        sections.append(format_table(
            ["Engine"] + categories + ["total"], rows,
            title="Sec III coordination-cost attribution "
                  "(sums exactly to host_cost)"))

    sync = snapshot.get("sync", {})
    if sync:
        rows = [[engine, f"{m['sync_ops_dyn']:.0f}",
                 f"{m['insns_per_sync']:.2f}",
                 f"{m['sync_elisions_dyn']:.0f}"]
                for engine, m in sync.items()]
        sections.append(format_table(
            ["Engine", "Sync ops (dyn)", "Insns/sync", "Elisions (dyn)"],
            rows, title="coordination sites (Fig 8 trajectory)"))

    coverage = snapshot.get("coverage", {})
    if coverage:
        rows = [[engine, f"{100 * m['covered_fraction']:.1f}%"]
                for engine, m in coverage.items()]
        sections.append(format_table(
            ["Engine", "Rule coverage (dyn)"], rows,
            title="learned-rule dynamic coverage"))

    figures = snapshot.get("figures", {})
    if figures:
        rows = []
        for figure, payload in sorted(figures.items()):
            for key, value in sorted(payload.get("summary", {}).items()):
                rows.append([f"{figure}.{key}", f"{value:.4g}"])
        sections.append(format_table(
            ["Figure metric", "Value"], rows,
            title="per-figure summary scalars"))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# The paper's shape claims.
# ---------------------------------------------------------------------------

CLAIM_HELD, CLAIM_VIOLATED, CLAIM_SKIPPED = "held", "violated", "skipped"


def check_claims(snapshot: Dict[str, Any]) -> List[Tuple[Any, str]]:
    """Evaluate every paper claim against *snapshot*'s figures.

    Returns ``(claim, verdict)`` pairs in ``CLAIMS`` order.  A claim is
    ``held`` or ``violated`` when its experiment is in the snapshot, and
    ``skipped`` when that experiment did not run (``--quick`` and custom
    sweeps skip some or all of them).  Verdicts are derived, never
    stored: the snapshot's ``figures`` are the whole input.
    """
    figures = snapshot.get("figures", {})
    results = []
    for claim in CLAIMS:
        payload = figures.get(claim.experiment)
        if payload is None:
            verdict = CLAIM_SKIPPED
        elif claim.holds(payload["summary"], payload["rows"]):
            verdict = CLAIM_HELD
        else:
            verdict = CLAIM_VIOLATED
        results.append((claim, verdict))
    return results


def render_claims(results: List[Tuple[Any, str]]) -> str:
    """One row per claim under a held/violated/skipped count line; only
    the count line when no claim was checked."""
    counts = {verdict: sum(1 for _, v in results if v == verdict)
              for verdict in (CLAIM_HELD, CLAIM_VIOLATED, CLAIM_SKIPPED)}
    title = ("paper claims: {held} held, {violated} violated, "
             "{skipped} skipped".format(**counts))
    if counts[CLAIM_SKIPPED] == len(results):
        return title
    return format_table(
        ["Experiment", "Claim", "Verdict"],
        [[claim.experiment, claim.text, verdict]
         for claim, verdict in results], title=title)
