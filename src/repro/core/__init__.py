"""The paper's contribution: rule-based system-level DBT with CPU-state
coordination optimizations (Sec III)."""

from .analysis import analyze_block, flags_read, flags_written
from .condmap import CarryKind, map_condition
from .config import LEVEL_NAMES, OptConfig, OptLevel
from .coordination import FlagsState
from .engine import RuleEngine, make_rule_engine
from .rulebook import EmptyRulebook, MatureRulebook, StructuralFilter
from .translator import RuleTranslator

__all__ = [
    "CarryKind", "EmptyRulebook", "FlagsState", "LEVEL_NAMES",
    "MatureRulebook", "OptConfig", "OptLevel", "RuleEngine",
    "RuleTranslator", "StructuralFilter", "analyze_block",
    "flags_read", "flags_written", "make_rule_engine", "map_condition",
]
