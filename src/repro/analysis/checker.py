"""Orchestration behind ``repro check``: rules phase + TB phase.

The checker has two halves, both reporting into one :class:`Report`:

**Rules phase** (:func:`check_rulebook`): run the learning pipeline and
report the verdict ``learn()`` reached for every rulebook candidate
(:func:`repro.learning.verify.verify`) — every entry that is not
``proved`` becomes a finding.  A ``refuted`` candidate is an ERROR and —
when a quarantine is supplied — is auto-quarantined through the
degradation ladder, exactly as a crashing rule would be at runtime.

**TB phase** (:func:`check_workloads`): boot a machine per (workload,
engine) pair, run the workload so the code cache fills with the real TB
population, then run the dataflow verifier (:mod:`.dataflow`) over every
rules-tier block.  When profiling is enabled each finding carries the
profiler-attributed cost of its TB, so findings sort by how much of the
run they taint.

A clean tree is expected to produce an empty report: every deliberate
imprecision is either waived inside the dataflow checker or reported at
``info`` only when explicitly requested (``include_waivers``).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

from ..harness.runner import make_machine
from ..learning.learn import learn
from ..learning.verify import CLASS_PROVED, CLASS_REFUTED, CLASS_TESTED, verify
from ..observability.profile import Profiler
from ..workloads import ALL_WORKLOADS
from .dataflow import check_tb
from .findings import Finding, Report, Severity

#: Default TB-phase matrix: one CPU-bound workload at the two extreme
#: optimization levels (base = parsed sync only, full = everything on).
DEFAULT_WORKLOADS = ("cpu-prime",)
DEFAULT_ENGINES = ("rules-base", "rules-full")

#: The ``--all`` matrix: representative workloads covering ALU, memory,
#: VFP, block I/O and network paths, at every optimization level.
ALL_CHECK_WORKLOADS = ("cpu-prime", "fileio", "fppoly", "untar",
                       "memcached")
ALL_CHECK_ENGINES = ("rules-base", "rules-reduction", "rules-elimination",
                     "rules-full")


def check_rulebook(report: Report, quarantine=None,
                   extra_candidates=()) -> None:
    """Report learn()'s verdicts on the rulebook's candidates.

    ``learn()`` never admits a refuted candidate, so a shipped rulebook
    can only yield ``tested-only`` findings.  *extra_candidates* lets
    tests smuggle deliberately-broken fixtures past that gate: they are
    verified here, then reported and quarantined like rulebook entries,
    but do not join the rulebook counts.
    """
    result = learn()
    candidates = list(result.verified_candidates) + list(extra_candidates)
    verdicts = {c.site: result.verdicts[c.site]
                for c in result.verified_candidates}
    verdicts.update((c.site, verify(c)) for c in extra_candidates)
    counts = Counter(v.classification for v in verdicts.values())
    report.meta["rules"] = len(result.rules)
    report.meta["candidates_proved"] = counts[CLASS_PROVED]
    report.meta["candidates_tested_only"] = counts[CLASS_TESTED]
    report.meta["candidates_refuted"] = counts[CLASS_REFUTED]

    for index, rule in enumerate(result.rules):
        for function, line in rule.origins:
            verdict = verdicts[f"{function}:{line}"]
            if verdict.classification == CLASS_TESTED:
                report.findings.append(Finding(
                    severity=Severity.INFO, code="rule-tested-only",
                    message=("rule not closed symbolically "
                             f"({verdict.reason})"),
                    rule=f"rule{index}({rule.guest_pattern[0]})"))
                break
    for candidate in candidates:
        verdict = verdicts[candidate.site]
        if verdict.refuted:
            report.findings.append(Finding(
                severity=Severity.ERROR, code="rule-refuted",
                message=f"candidate refuted: {verdict.reason}",
                rule=candidate.site,
                witness={k: f"0x{v:x}" if isinstance(v, int) else v
                         for k, v in (verdict.witness or {}).items()}
                or None))
    if quarantine is not None:
        keys = quarantine_refuted(candidates, verdicts, quarantine)
        if keys:
            report.meta["rules_quarantined"] = ",".join(keys)


def quarantine_refuted(candidates, verdicts, quarantine) -> List[str]:
    """Quarantine every rule key a refuted candidate covers.

    *verdicts* maps ``function:line`` to the candidate's
    :class:`~repro.learning.verify.RuleVerdict`; *quarantine* is a
    :class:`repro.core.rulebook.QuarantineFilter` (or anything with its
    ``quarantine(key, reason)`` signature).  Returns the quarantined
    keys.
    """
    keys: List[str] = []
    for candidate in candidates:
        verdict = verdicts.get(candidate.site)
        if verdict is None or not verdict.refuted:
            continue
        for insn in candidate.guest:
            key = insn.op.name
            if key not in keys:
                quarantine.quarantine(
                    key, f"refuted by symbolic verifier: {verdict.reason}")
                keys.append(key)
    return keys


def check_machine_tbs(machine, report: Report,
                      include_waivers: bool = False) -> int:
    """Dataflow-check every rules-tier TB in *machine*'s code cache.

    Returns the number of TBs checked.  Injected TBs are checked like
    any other — catching them is the point of the exercise.
    """
    engine = machine.engine
    profiler = machine.profiler
    checked = 0
    for tb in engine.cache.all_tbs():
        if tb.meta.get("tier") != "rules":
            continue
        checked += 1
        findings = check_tb(tb, engine.config,
                            live_in_of=engine.successor_live_in,
                            include_waivers=include_waivers)
        if profiler is not None and findings:
            cost = sum(profiler.tags_for((tb.pc, tb.mmu_idx)).values())
            for finding in findings:
                finding.cost = cost
        report.extend(findings)
    return checked


def check_workloads(report: Report,
                    workloads: Iterable[str] = DEFAULT_WORKLOADS,
                    engines: Iterable[str] = DEFAULT_ENGINES,
                    include_waivers: bool = False,
                    inject=None, profile: bool = False) -> None:
    """Run each (workload, engine) pair and check the resulting TBs."""
    total_tbs = 0
    pairs = 0
    for name in workloads:
        workload = ALL_WORKLOADS[name]
        for engine in engines:
            profiler = Profiler() if profile else None
            machine = make_machine(workload, engine, inject=inject,
                                   profiler=profiler)
            machine.run(workload.max_insns)
            total_tbs += check_machine_tbs(machine, report,
                                           include_waivers=include_waivers)
            pairs += 1
    report.meta["tbs_checked"] = total_tbs
    report.meta["runs"] = pairs


def run_check(workloads: Iterable[str] = DEFAULT_WORKLOADS,
              engines: Iterable[str] = DEFAULT_ENGINES,
              rules: bool = True, include_waivers: bool = False,
              inject=None,
              profile: bool = False, quarantine=None) -> Report:
    """The full ``repro check`` pipeline; returns the aggregate report."""
    report = Report()
    if rules:
        check_rulebook(report, quarantine=quarantine)
    check_workloads(report, workloads=workloads, engines=engines,
                    include_waivers=include_waivers, inject=inject,
                    profile=profile)
    return report
