"""The end-to-end learning pipeline (paper Sec II-A).

``learn()`` compiles the training corpus with both toycc back ends,
extracts line-paired fragments, classifies each candidate once with the
rule verifier (:func:`repro.learning.verify.verify`: normalize → BDD →
sampled witness), parameterizes the admitted candidates and assembles
the :class:`~repro.learning.rules.LearnedRulebook`.  Every verdict stays
on the :class:`LearnResult`, so ``repro check`` reports them without
verifying again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .corpus import TRAINING_SOURCE
from .extract import CandidateRule, extract_all
from .rules import LearnedRulebook, Rule, build_rulebook, merge_rules, \
    parameterize
from .toycc.parser import parse
from .verify import CLASS_PROVED, RuleVerdict, verify


@dataclass
class LearnResult:
    rules: List[Rule] = field(default_factory=list)
    rulebook: LearnedRulebook = None
    candidates: int = 0
    verified: int = 0
    proved: int = 0
    rejected: List[str] = field(default_factory=list)
    #: the verdict of every candidate, keyed by ``function:line``.
    verdicts: Dict[str, RuleVerdict] = field(default_factory=dict)
    #: the admitted candidates behind the rules, kept so the soundness
    #: checker can attribute verdicts and quarantines to rule origins.
    verified_candidates: List[CandidateRule] = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.candidates} candidates -> {self.verified} verified "
                f"({self.proved} proved) -> "
                f"{len(self.rules)} parameterized rules")


def learn(source: str = TRAINING_SOURCE) -> LearnResult:
    functions = parse(source)
    candidates = extract_all(functions)
    result = LearnResult(candidates=len(candidates))
    raw_rules: List[Rule] = []
    for candidate in candidates:
        verdict = verify(candidate)
        result.verdicts[candidate.site] = verdict
        if not verdict.admitted:
            result.rejected.append(f"{candidate.site}: {verdict.reason}")
            continue
        proved = verdict.classification == CLASS_PROVED
        result.verified += 1
        result.proved += proved
        result.verified_candidates.append(candidate)
        raw_rules.append(parameterize(candidate, proved))
    result.rules = merge_rules(raw_rules)
    result.rulebook = build_rulebook(result.rules, result.verified_candidates)
    return result
