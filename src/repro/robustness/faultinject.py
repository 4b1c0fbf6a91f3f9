"""Deterministic, seed-driven fault injection for the whole DBT stack.

Every injection point is *named* and consulted through one
:class:`FaultInjector` owned by the machine, so a run is reproducible
from ``(seed, plan)`` alone: each site draws from its own
:class:`random.Random` stream (keyed by seed and site name), which makes
firing patterns independent of how often *other* sites are consulted.

Injection sites threaded through the stack:

===============  ============================================  ==========
site             where it fires                                effect
===============  ============================================  ==========
``fetch``        translation-time guest fetch                  transient
                 (:meth:`DbtEngineBase.fetch_block`)           retry
``mem``          softmmu slow-path entry                       transient
                 (:meth:`QemuRuntime.memory_access`)           retry
``helper``       system/VFP helper entry                       rollback +
                 (:mod:`repro.miniqemu.helpers`)               replay
``irq-storm``    :meth:`Machine.advance_time` — spurious but   guest
                 *ackable* timer interrupts                    handles it
``rule-crash``   rule application at translate time            quarantine
                 (:meth:`RuleEngine.translate`)
``rule-corrupt`` post-translate TB instrumentation: a trap     quarantine
                 that models a crashing rule body              +invalidate
``rule-wrong``   post-translate TB instrumentation: a silent   self-check
                 wrong-result corruption of a pure TB          catches it
``drop-save``    post-translate TB instrumentation: delete a   checker
                 sync-save (and its audit event)               flags it
``forge-elide``  post-translate TB instrumentation: delete a   checker
                 sync-save and forge an elision justification  flags it
``extra-sync``   post-translate TB instrumentation: insert     perf gate
                 redundant sync-save instructions at TB entry  flags it
``cache-corrupt``  persistent-cache entry fetch: hand the      evict +
                 checksum validation a bit-flipped entry       fresh xlate
``cache-stale-bytes``  persistent-cache entry fetch: hand the  evict +
                 guest-byte validation non-matching words      fresh xlate
===============  ============================================  ==========

Rate sites (``fetch``/``mem``/``helper``/``irq-storm``/``rule-crash``)
fire probabilistically; the op-targeted sites (``rule-corrupt=OP``,
``rule-wrong=OP``) fire deterministically on every rules-tier TB that
applied the named rule, modelling a *persistently* bad learned rule.

The *analysis* sites (``drop-save``/``forge-elide``) are rate sites
consulted once per eligible rules-tier TB: they model a translator that
silently failed to coordinate (or lied about why coordination was
unnecessary).  The running guest may or may not notice; the static
soundness checker (``repro check`` / ``--check``) must.

The *performance* site (``extra-sync``) is the inverse: a rate site
that inserts behaviour-preserving but *redundant* coordination
instructions into rules-tier TBs, modelling a translator whose
sync-save optimizations (Sec III-B/C) silently stopped firing.  Neither
the guest nor the soundness checker can object — only the continuous
benchmarking gate (``repro bench --compare``) detects it, which makes
the gate's own detection path testable end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional

from ..analysis.justify import (AUDIT_KEY, EV_SAVE, JUSTIFY_KEY,
                                elide_save_justification, shift_indices)
from ..common.errors import InjectedFault, ReproError, RuleApplicationError
from ..host.isa import X86Insn, X86Op

#: Rate-style sites (value is a firing probability per consultation).
RATE_SITES = ("fetch", "mem", "helper", "irq-storm", "rule-crash")
#: Op-targeted sites (value is a guest Op name, e.g. ``EOR``).
OP_SITES = ("rule-corrupt", "rule-wrong")
#: Analysis-level sites (rate per eligible rules-tier TB): soundness
#: violations the static checker must detect.
ANALYSIS_SITES = ("drop-save", "forge-elide")
#: Performance-regression site (rate per rules-tier TB): sound but slow
#: code only the benchmark gate can flag.
PERF_SITES = ("extra-sync",)
#: Persistent-cache sites (rate per persisted-entry fetch): simulated
#: store corruption / staleness that the loader's validation must catch
#: (see repro.cache.loader) — the entry is evicted, never executed.
CACHE_SITES = ("cache-corrupt", "cache-stale-bytes")

#: Redundant sync instructions ``extra-sync`` inserts per fired TB —
#: two packed saves' worth (Fig 8: a packed save is ~3 instructions).
EXTRA_SYNC_INSNS = 6


@dataclass(frozen=True)
class FaultPlan:
    """What to inject: per-site rates plus targeted-rule corruption."""

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    corrupt_rules: FrozenSet[str] = frozenset()   # trap on application
    wrong_rules: FrozenSet[str] = frozenset()     # silent wrong result

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts += [f"{site}={rate}" for site, rate in sorted(self.rates.items())]
        parts += [f"rule-corrupt={op}" for op in sorted(self.corrupt_rules)]
        parts += [f"rule-wrong={op}" for op in sorted(self.wrong_rules)]
        return ",".join(parts)


def parse_inject_spec(spec: str) -> FaultPlan:
    """Parse a ``--inject`` spec like ``seed=7,mem=0.001,rule-corrupt=EOR``.

    Comma-separated ``key=value`` pairs; ``seed`` is an integer, rate
    sites take floats in [0, 1], and the op-targeted sites take a guest
    Op name (repeatable).
    """
    seed = 0
    rates: Dict[str, float] = {}
    corrupt = set()
    wrong = set()
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if "=" not in item:
            raise ReproError(f"bad --inject item {item!r} (want key=value)")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            seed = int(value, 0)
        elif key in RATE_SITES or key in ANALYSIS_SITES or \
                key in PERF_SITES or key in CACHE_SITES:
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"--inject rate for {key!r} out of [0,1]: "
                                 f"{value}")
            rates[key] = rate
        elif key == "rule-corrupt":
            corrupt.add(value.upper())
        elif key == "rule-wrong":
            wrong.add(value.upper())
        else:
            known = ", ".join(RATE_SITES + ANALYSIS_SITES + PERF_SITES +
                              CACHE_SITES + OP_SITES + ("seed",))
            raise ReproError(f"unknown --inject site {key!r} (one of: "
                             f"{known})")
    return FaultPlan(seed=seed, rates=rates,
                     corrupt_rules=frozenset(corrupt),
                     wrong_rules=frozenset(wrong))


def _make_trap_helper(rule: str):
    """A helper that models a crashing rule body (raises immediately)."""

    def helper_injected_trap(runtime) -> None:
        raise RuleApplicationError(rule, phase="execute",
                                   detail="injected corruption trap")

    helper_injected_trap.__name__ = f"helper_trap_{rule.lower()}"
    helper_injected_trap.injected = True
    return helper_injected_trap


def _make_wrong_helper(rule: str, reg: int, mask: int):
    """A helper that silently corrupts a register (wrong-result rule)."""

    def helper_injected_wrong(runtime) -> None:
        env = runtime.env
        env.set_reg(reg, env.get_reg(reg) ^ mask)

    helper_injected_wrong.__name__ = f"helper_wrong_{rule.lower()}"
    helper_injected_wrong.injected = True
    return helper_injected_wrong


def _retarget(code, remap):
    """A copy of *code* whose resolved intra-TB jump targets went
    through *remap*.

    Revived TBs share their host instructions with other TBs and with
    the store's decode memo (see repro.cache.store.decode_code), so an
    instruction whose target changes is copied, never edited in place.
    """
    out = []
    for insn in code:
        if insn.target_index >= 0:
            target = remap(insn.target_index)
            if target != insn.target_index:
                insn = replace(insn, target_index=target)
        out.append(insn)
    return out


class NullInjector:
    """No-fault injector: every hot-path hook is a cheap no-op."""

    enabled = False
    plan: Optional[FaultPlan] = None

    def fires(self, site: str) -> bool:
        return False

    def maybe_fault(self, site: str, detail: str = "") -> None:
        return None

    def instrument_tb(self, tb) -> None:
        return None

    def counts_by_site(self) -> Dict[str, int]:
        return {}


class FaultInjector(NullInjector):
    """Deterministic injector driving every named fault site.

    Execute-time corruptions are applied as a *TB-entry* trap (the first
    host instruction of the corrupted TB raises), which exercises the
    same quarantine / invalidate / retranslate recovery path as a
    mid-block codegen crash while keeping replay safe: nothing has
    executed when the fault surfaces, so no guest side effects need to
    be unwound.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self._streams: Dict[str, random.Random] = {}

    # -- deterministic per-site randomness ---------------------------------

    def _stream(self, site: str) -> random.Random:
        stream = self._streams.get(site)
        if stream is None:
            stream = random.Random(f"{self.plan.seed}:{site}")
            self._streams[site] = stream
        return stream

    def _count(self, site: str) -> None:
        self.counts[site] = self.counts.get(site, 0) + 1

    # -- rate sites --------------------------------------------------------

    def fires(self, site: str) -> bool:
        rate = self.plan.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if self._stream(site).random() < rate:
            self._count(site)
            return True
        return False

    def maybe_fault(self, site: str, detail: str = "") -> None:
        """Raise a transient :class:`InjectedFault` when the site fires."""
        if self.fires(site):
            raise InjectedFault(site, detail)

    # -- targeted rule corruption ------------------------------------------

    def rule_crash(self, rule: str) -> None:
        """Translate-time rule application crash (``rule-crash`` site)."""
        if self.fires("rule-crash"):
            raise RuleApplicationError(rule, phase="translate",
                                       detail="injected translator crash")

    def instrument_tb(self, tb) -> None:
        """Corrupt a rules-tier TB, fresh or revived, before it runs.

        Prepends an injected helper call (shifting every resolved
        intra-TB jump target by one slot):

        - ``rule-corrupt``: the helper raises, modelling a crash;
        - ``rule-wrong``: the helper silently flips a bit in r3, which
          only the online differential self-check can notice.
        """
        if not tb.code or tb.meta.get("tier", "rules") != "rules":
            return
        self._extra_sync(tb)
        used = tb.meta.get("rules_used") or ()
        hit = sorted(self.plan.corrupt_rules.intersection(used))
        if hit:
            self._count("rule-corrupt")
            self._prepend(tb, _make_trap_helper(hit[0]))
            tb.meta["injected"] = "rule-corrupt"
            return
        if self._corrupt_analysis(tb):
            return
        # Wrong-result corruption only targets *pure* (self-checkable)
        # TBs: the differential self-check is the detector under test,
        # and an undetectable silent corruption would just break the
        # workload with no recovery path to exercise.
        if not tb.meta.get("selfcheckable", False):
            return
        hit = sorted(self.plan.wrong_rules.intersection(used))
        if hit:
            self._count("rule-wrong")
            self._prepend(tb, _make_wrong_helper(hit[0], reg=3, mask=0x1000))
            tb.meta["injected"] = "rule-wrong"

    @staticmethod
    def _prepend(tb, helper) -> None:
        # Keep the audit/justification bookkeeping aligned: the static
        # checker must see a well-formed (if doomed-at-runtime) TB, not
        # a bookkeeping mismatch.
        for key in (AUDIT_KEY, JUSTIFY_KEY):
            if tb.meta.get(key):
                tb.meta[key] = shift_indices(tb.meta[key], 0, 1)
        tb.code = [X86Insn(X86Op.CALL_HELPER, helper=helper,
                           tag="injected"),
                   *_retarget(tb.code, lambda target: target + 1)]

    # -- performance regression simulation ---------------------------------

    def _extra_sync(self, tb) -> None:
        """Insert redundant sync instructions at TB entry (``extra-sync``).

        The inserted instructions are architectural no-ops carrying the
        ``sync`` cost tag, so the host cost, the dynamic ``sync`` tag
        (Fig 17's sync-per-guest) and the breakdown's ``coordination``
        category degrade exactly as if the translator had emitted
        pointless coordination, while guest behaviour and the soundness
        bookkeeping stay intact.  The padding belongs to no audited save
        or restore, so the static sync counts derived from the audit
        (Fig 8's insns-per-sync) do not move.
        """
        if not self.fires("extra-sync"):
            return
        count = EXTRA_SYNC_INSNS
        for key in (AUDIT_KEY, JUSTIFY_KEY):
            if tb.meta.get(key):
                tb.meta[key] = shift_indices(tb.meta[key], 0, count)
        tb.code = [*(X86Insn(X86Op.NOPSLOT, tag="sync")
                     for _ in range(count)),
                   *_retarget(tb.code, lambda target: target + count)]
        # Unlike the other sites this one must not stop chaining into
        # the TB (that would change the costs it models), so it does
        # not set ``injected``; the store must refuse the TB all the
        # same, or a later clean run would revive the padding.
        tb.meta["unpersistable"] = "extra-sync"

    # -- analysis-level soundness corruption -------------------------------

    def _corrupt_analysis(self, tb) -> bool:
        """Apply at most one analysis-site corruption to *tb*.

        Both sites delete an emitted sync-save, modelling a translator
        that skipped coordination; ``forge-elide`` additionally plants a
        justification record claiming the skip was legal.  Only the
        static soundness checker can notice (the guest may happen to
        survive), so these TBs are *not* entry-trapped."""
        saves = [event for event in (tb.meta.get(AUDIT_KEY) or ())
                 if event["kind"] == EV_SAVE]
        if not saves:
            return False
        for site in ("drop-save", "forge-elide"):
            if self.plan.rates.get(site, 0.0) <= 0.0 or \
                    not self.fires(site):
                continue
            event = saves[self._stream(site).randrange(len(saves))]
            if site == "drop-save":
                self._drop_save(tb, event)
            else:
                self._forge_elide(tb, event)
            tb.meta["injected"] = site
            return True
        return False

    def _drop_save(self, tb, event) -> None:
        """Delete a sync-save and its audit event (a translator that
        silently failed to coordinate)."""
        self._remove_range(tb, event)

    def _forge_elide(self, tb, event) -> None:
        """Delete a sync-save and forge the Sec III-C-2 claim that env
        already held a current copy (a lying elimination pass)."""
        start = event["start"]
        mode = event.get("mode", "packed")
        self._remove_range(tb, event)
        records = list(tb.meta.get(JUSTIFY_KEY) or ())
        records.append(elide_save_justification(
            start, packed_ok=mode == "packed", parsed_ok=mode == "parsed"))
        tb.meta[JUSTIFY_KEY] = records

    @staticmethod
    def _remove_range(tb, event) -> None:
        """Remove the host instructions of one audit event, keeping the
        remaining bookkeeping (and intra-TB jumps) aligned."""
        start, end = event["start"], event["end"]
        delta = end - start
        # A jump past the removed range moves down with it; a jump into
        # it (defensively) lands on the instruction that follows it.
        tb.code = _retarget(
            tb.code[:start] + tb.code[end:],
            lambda target: target - delta if target >= end
            else min(target, start))
        audit = [e for e in (tb.meta.get(AUDIT_KEY) or ()) if e is not event]
        # Shift from start+1 so ranges *ending* exactly at the removal
        # point keep their end; anything at or beyond the removed
        # range's end moves down.
        tb.meta[AUDIT_KEY] = shift_indices(audit, start + 1, -delta)
        records = list(tb.meta.get(JUSTIFY_KEY) or ())
        tb.meta[JUSTIFY_KEY] = shift_indices(records, start + 1, -delta)

    # -- reporting ---------------------------------------------------------

    def counts_by_site(self) -> Dict[str, int]:
        return dict(self.counts)
