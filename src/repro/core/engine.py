"""The rule-based execution engine (plugs into the Machine)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..analysis.justify import sync_counts
from ..common.errors import DecodingError, MemoryFault
from ..guest.isa import ArmInsn
from ..ir.opt import optimize
from ..miniqemu.backend import TcgBackend
from ..miniqemu.frontend import TcgFrontend
from ..miniqemu.machine import DbtEngineBase, Machine
from ..miniqemu.tb import TranslationBlock
from .analysis import F_ALL, AnalyzedBlock, prepare_block
from .config import OptConfig, OptLevel
from .rulebook import (MatureRulebook, QuarantineFilter, StructuralFilter,
                       rule_key)
from .translator import RuleTranslator


class RuleEngine(DbtEngineBase):
    """Rule-based system-level DBT (the paper's prototype)."""

    name = "rules"
    tiers = ("rules", "tcg", "interp")

    def __init__(self, machine: Machine, level: OptLevel = OptLevel.FULL,
                 rulebook=None, config: Optional[OptConfig] = None,
                 check: bool = False):
        super().__init__(machine)
        self.level = level
        self.config = config if config is not None \
            else OptConfig.from_level(level)
        #: verify-before-enter mode (``--check``): statically verify
        #: every rules-tier TB before it is inserted into the code
        #: cache; blocks with ERROR findings are demoted and
        #: retranslated at a lower tier (see :meth:`_vet_tb`).
        self.check = check
        self.check_tbs = 0
        self.check_rejected = 0
        self.check_findings = 0
        # Quarantine sits *inside* the structural filter: a quarantined
        # rule stops covering its instructions, so the translator (and
        # the coverage analysis) route them through the QEMU fallback.
        self._quarantine = QuarantineFilter(rulebook or MatureRulebook())
        self.rulebook = StructuralFilter(self._quarantine)
        self.ladder.quarantine = self._quarantine
        #: Block memo: pc -> the block as last fetched, scheduled and
        #: analyzed (docs/internals.md, "Translation-time memo").  The
        #: inter-TB live-in query and the block's own translation share
        #: the entry.  It depends on rule coverage: quarantining a rule
        #: turns its instructions uncovered, which changes every
        #: block's analysis, so entries must not outlive coverage
        #: changes (a stale live-in would let the inter-TB optimization
        #: elide a flag sync the successor now needs).
        self._blocks: Dict[int, AnalyzedBlock] = {}
        #: Pcs whose successor query already read the block through
        #: ``bus.fetch`` since their entry was last dropped; a repeated
        #: query re-checks the words with a side-effect-free peek
        #: instead, so TLB fills match those of one fetch per entry.
        self._queried: Set[int] = set()
        self.cache.add_evict_listener(self._on_cache_evict)

    # ------------------------------------------------------------------
    # The block memo, and successor analysis for the inter-TB
    # optimization.
    # ------------------------------------------------------------------

    def _on_cache_evict(self, victims: List[TranslationBlock],
                        rules: Optional[Iterable[str]] = None) -> None:
        if rules:
            # Coverage changed (rule quarantine): every memoized
            # analysis is suspect, not just the evicted blocks'.
            self._blocks.clear()
            self._queried.clear()
        else:
            for tb in victims:
                self._blocks.pop(tb.pc, None)
                self._queried.discard(tb.pc)

    def analyzed_block(self, pc: int, insns: List[ArmInsn]) -> AnalyzedBlock:
        """The memo entry for the block *insns* just read at *pc*,
        built (or rebuilt, if the words changed) on a miss."""
        block = self._blocks.get(pc)
        if block is None or not block.holds(insns):
            block = self._blocks[pc] = prepare_block(
                insns, self.rulebook, self.config.scheduling)
        return block

    def successor_live_in(self, pc: int) -> int:
        """Flags the block at *pc* needs on entry, as it is translated."""
        try:
            # A repeated query re-checks the memo against guest memory:
            # the code may have been rewritten since it was analyzed.
            insns = self.peek_block(pc) if pc in self._queried \
                else self.fetch_block(pc)
        except (DecodingError, MemoryFault):
            # Unfetchable or undecodable successor: assume it needs
            # everything (no inter-TB elision).
            insns = None
        # Not reached when an injected fetch fault propagates: the
        # retried translation fetches again, as it did without the memo.
        self._queried.add(pc)
        if insns is None:
            return F_ALL
        return self.analyzed_block(pc, insns).info.live_in

    # ------------------------------------------------------------------
    # Inline QEMU fallback for uncovered instructions.
    # ------------------------------------------------------------------

    def tcg_fallback(self, insn: ArmInsn, mmu_idx: int):
        """Translate one instruction through the TCG pipeline."""
        ir_insns, ended = TcgFrontend(mmu_idx).lower_body(insn)
        code = TcgBackend(mmu_idx, self.insn_memo).lower(
            optimize(ir_insns), tag="fallback")
        return code, ended

    # ------------------------------------------------------------------
    # Translation.
    # ------------------------------------------------------------------

    def _translate_tier(self, tier: str, pc: int,
                        mmu_idx: int) -> TranslationBlock:
        if tier == "rules":
            return self.translate_rules(pc, mmu_idx)
        return super()._translate_tier(tier, pc, mmu_idx)

    def translate_rules(self, pc: int, mmu_idx: int) -> TranslationBlock:
        insns = self.fetch_block(pc)
        block = self.analyzed_block(pc, insns)
        injector = self.machine.injector
        if injector.enabled:
            # The rule-crash site models a rule whose application code
            # itself crashes at translate time (quarantine target).
            for insn in insns:
                if not insn.is_branch() and self.rulebook.covers(insn):
                    injector.rule_crash(rule_key(insn))
        translator = RuleTranslator(
            mmu_idx, self.config,
            successor_live_in=self.successor_live_in,
            tcg_fallback=self.tcg_fallback,
            tracer=self.machine.tracer, shared_insns=self.insn_memo)
        return translator.translate(pc, block)

    # ------------------------------------------------------------------
    # Verify-before-enter (``--check``).
    # ------------------------------------------------------------------

    def _vet_tb(self, tb: TranslationBlock) -> TranslationBlock:
        """Statically verify a fresh rules-tier TB before caching it.

        Any ERROR finding demotes the block down the degradation
        ladder and retranslates; the loop terminates because each
        demotion lowers the starting tier and the tcg/interp tiers are
        not subject to dataflow checking.
        """
        if not self.check:
            return tb
        # Imported here: only ``--check`` runs the dataflow checker, so
        # a run without it never loads the checker.
        from ..analysis.dataflow import check_tb
        from ..analysis.findings import Severity

        while tb.meta.get("tier") == "rules":
            findings = check_tb(tb, self.config,
                                live_in_of=self.successor_live_in)
            self.check_tbs += 1
            self.check_findings += len(findings)
            errors = [f for f in findings if f.severity is Severity.ERROR]
            if not errors:
                break
            self.check_rejected += 1
            if self.machine.tracer.enabled:
                self.machine.tracer.emit(
                    "check.reject", pc=tb.pc, code=errors[0].code,
                    n_errors=len(errors))
            self.ladder.demote(tb.pc, tb.mmu_idx)
            tb = self.translate(tb.pc, tb.mmu_idx)
            self.machine.injector.instrument_tb(tb)
        return tb

    # ------------------------------------------------------------------
    # Statistics (coordination accounting for Figs 8/16/17 + Table I).
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        sync_ops = 0
        sync_insns = 0
        sync_elisions = 0
        covered_dyn = 0
        uncovered_dyn = 0
        for tb in self.cache.all_tbs():
            weight = tb.exec_count
            counts = sync_counts(tb.meta)
            sync_ops += weight * (counts.saves + counts.restores)
            sync_insns += weight * counts.insns
            sync_elisions += weight * (counts.elisions +
                                       counts.inter_tb_elisions)
            n_uncovered = tb.meta.get("n_uncovered", 0)
            n_system = sum(insn.is_system() for insn in tb.guest_insns)
            uncovered_dyn += weight * n_uncovered
            covered_dyn += weight * max(
                tb.guest_insn_count - n_uncovered - n_system, 0)
        base.update({
            "sync_ops_dyn": float(sync_ops),
            "sync_insns_weighted": float(sync_insns),
            "sync_elisions_dyn": float(sync_elisions),
            # Dynamic rule coverage (the HERMES-style accounting): guest
            # instructions translated by learned rules vs routed through
            # the TCG fallback, weighted by execution count.
            "rule_covered_insns_dyn": float(covered_dyn),
            "rule_uncovered_insns_dyn": float(uncovered_dyn),
            "flag_parses": float(self.machine.runtime.flag_parse_count),
            "opt_level": float(self.level),
        })
        if self.check:
            base.update({
                "check_tbs": float(self.check_tbs),
                "check_rejected": float(self.check_rejected),
                "check_findings": float(self.check_findings),
            })
        return base


def make_rule_engine(level: OptLevel = OptLevel.FULL, rulebook=None,
                     config: Optional[OptConfig] = None,
                     check: bool = False):
    """Factory for ``Machine(engine="rules", rule_engine_factory=...)``."""

    def factory(machine: Machine) -> RuleEngine:
        return RuleEngine(machine, level=level, rulebook=rulebook,
                          config=config, check=check)

    return factory
