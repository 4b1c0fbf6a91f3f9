"""The rule-learning pipeline: toycc, extraction, verification, rules."""

from .corpus import TRAINING_SOURCE
from .extract import CandidateRule, extract_all, extract_function
from .learn import LearnResult, learn
from .rules import LearnedRulebook, Rule, build_rulebook, insn_shape, \
    merge_rules, parameterize
from .verify import RuleVerdict, verify

__all__ = [
    "CandidateRule", "LearnResult", "LearnedRulebook", "Rule",
    "RuleVerdict", "TRAINING_SOURCE", "build_rulebook", "extract_all",
    "extract_function", "insn_shape", "learn", "merge_rules",
    "parameterize", "verify",
]
