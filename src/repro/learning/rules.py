"""Translation rules: parameterization and the learned rulebook.

Paper learning phase 2 (parameterization, following [2] "More with
Less"): verified fragments are abstracted so one rule covers a family of
concrete instruction sequences —

- **register parameterization**: home registers are replaced by
  placeholders assigned in first-use order, with the guest<->host
  correspondence taken from the variable-location (debug) tables;
- **immediate parameterization**: literal constants that appear on both
  sides are replaced by immediate placeholders;
- **branch-target parameterization**: each side's branch targets (a
  guest address, a host instruction index) become target placeholders
  in first-use order, so a rule does not depend on where its fragment
  sits in its function;
- **opcode parameterization**: ALU rules that differ only in the
  (guest op, host op) pair are merged into one rule with an opcode
  class placeholder (add/add, sub/sub, and/and, orr/or, eor/xor).

The resulting :class:`LearnedRulebook` exposes the coverage predicate
the rule engine consumes: a guest instruction is covered iff its
abstract *shape* appears in some verified rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..guest.isa import ArmInsn, Op, ShiftKind
from ..host.isa import X86Insn, X86Op
from .extract import CandidateRule

#: (guest mnemonic, host mnemonic) pairs merged by opcode
#: parameterization.
_ALU_CLASS = {("add", "add"), ("sub", "sub"), ("and", "and"),
              ("orr", "or"), ("eor", "xor")}


@dataclass
class Rule:
    """One parameterized, verified translation rule."""

    guest_pattern: Tuple[str, ...]
    host_pattern: Tuple[str, ...]
    proved: bool
    #: concrete origins merged into this rule: (function, line) pairs
    origins: List[Tuple[str, int]] = field(default_factory=list)
    opcode_class: bool = False

    def __str__(self) -> str:
        guest = "; ".join(self.guest_pattern)
        host = "; ".join(self.host_pattern)
        return f"{guest}  =>  {host}"


_REG_RE = re.compile(r"\b(r\d+|sp|lr|pc|eax|ebx|ecx|edx|esi|edi|ebp|esp)\b")
_IMM_RE = re.compile(r"(?<![\w])(?:#|\$)?(-?\d+|0x[0-9a-fA-F]+)\b")


def _parameterize_text(lines: List[str], shared_imms: Set[int]):
    """Replace registers/immediates with placeholders, first-use order."""
    reg_map: Dict[str, str] = {}
    imm_map: Dict[int, str] = {}
    out = []
    for line in lines:
        def reg_sub(match):
            name = match.group(1)
            if name in ("pc", "esp"):
                return name
            if name not in reg_map:
                reg_map[name] = f"R{len(reg_map)}"
            return reg_map[name]

        line = _REG_RE.sub(reg_sub, line)

        def imm_sub(match):
            text = match.group(1)
            value = int(text, 0) & 0xFFFFFFFF
            if value not in shared_imms:
                return match.group(0)
            if value not in imm_map:
                imm_map[value] = f"IMM{len(imm_map)}"
            prefix = match.group(0)[:-len(text)]
            return prefix.replace(text, "") + imm_map[value]

        line = _IMM_RE.sub(imm_sub, line)
        out.append(line)
    return tuple(out)


def _render(insns: Iterable[Any],
            target_of: Callable[[Any], Optional[int]]) -> List[str]:
    """Each instruction's text, with a branch target (the text's last
    word) replaced by ``T<n>``, numbered in first-use order."""
    names: Dict[int, str] = {}
    lines = []
    for insn in insns:
        text = str(insn)
        target = target_of(insn)
        if target is not None:
            name = names.setdefault(target, f"T{len(names)}")
            text = f"{text.rsplit(' ', 1)[0]} {name}"
        lines.append(text)
    return lines


def _guest_target(insn: ArmInsn) -> Optional[int]:
    return insn.target if insn.op in (Op.B, Op.BL) else None


def _host_target(insn: X86Insn) -> Optional[int]:
    return insn.target_index if insn.op in (X86Op.JMP, X86Op.JCC) else None


def _immediates(text_lines: List[str]) -> Set[int]:
    values = set()
    for line in text_lines:
        for match in _IMM_RE.finditer(line):
            values.add(int(match.group(1), 0) & 0xFFFFFFFF)
    return values


def parameterize(candidate: CandidateRule, proved: bool) -> Rule:
    guest_text = _render(candidate.guest, _guest_target)
    host_text = _render(candidate.host, _host_target)
    shared = _immediates(guest_text) & _immediates(host_text)
    return Rule(
        guest_pattern=_parameterize_text(guest_text, shared),
        host_pattern=_parameterize_text(host_text, shared),
        proved=proved,
        origins=[(candidate.function, candidate.line)],
    )


def _opcode_classify(rule: Rule) -> Tuple:
    """Key that is identical for rules differing only in an ALU op pair."""
    guest = []
    ops = []
    for line in rule.guest_pattern:
        mnemonic = line.split()[0]
        if any(mnemonic == pair[0] for pair in _ALU_CLASS):
            ops.append(mnemonic)
            guest.append(line.replace(mnemonic, "<ALUOP>", 1))
        else:
            guest.append(line)
    host = []
    for line in rule.host_pattern:
        mnemonic = line.split()[0]
        if any(mnemonic == pair[1] for pair in _ALU_CLASS):
            host.append(line.replace(mnemonic, "<ALUOP>", 1))
        else:
            host.append(line)
    return tuple(guest), tuple(host)


def merge_rules(rules: List[Rule]) -> List[Rule]:
    """Dedupe identical patterns, then merge opcode families."""
    by_pattern: Dict[Tuple, Rule] = {}
    for rule in rules:
        key = (rule.guest_pattern, rule.host_pattern)
        if key in by_pattern:
            by_pattern[key].origins.extend(rule.origins)
        else:
            by_pattern[key] = rule
    deduped = list(by_pattern.values())

    by_class: Dict[Tuple, List[Rule]] = {}
    for rule in deduped:
        by_class.setdefault(_opcode_classify(rule), []).append(rule)
    merged = []
    for class_key, members in by_class.items():
        if len(members) == 1:
            merged.append(members[0])
            continue
        guest, host = class_key
        merged.append(Rule(
            guest_pattern=guest, host_pattern=host,
            proved=all(member.proved for member in members),
            origins=[origin for member in members
                     for origin in member.origins],
            opcode_class=True))
    return merged


# ---------------------------------------------------------------------------
# Coverage: abstract instruction shapes.
# ---------------------------------------------------------------------------


def insn_shape(insn: ArmInsn) -> Tuple:
    """The abstraction level at which learned rules generalize.

    The condition field is parameterized away (like registers and
    immediates): the rule application framework supplies the conditional
    wrapper, so a rule learned for ``add`` covers ``addeq`` too.
    """
    op = insn.op
    op2 = insn.op2
    if op2 is None:
        operand = None
    elif op2.is_imm:
        operand = "imm"
    elif op2.rs is not None:
        operand = "regshift"
    elif op2.shift == ShiftKind.LSL and op2.shift_imm == 0:
        operand = "reg"
    else:
        operand = f"shift-{op2.shift.name.lower()}"
    mem = None
    if insn.is_memory() and op not in (Op.LDM, Op.STM):
        mem = "regoff" if insn.mem_offset_reg is not None else "immoff"
    return (op.name, operand, insn.set_flags, mem)


class LearnedRulebook:
    """Coverage predicate backed by genuinely learned rules."""

    name = "learned"

    def __init__(self, rules: List[Rule],
                 shapes: Set[Tuple]):
        self.rules = rules
        self._shapes = shapes

    def covers(self, insn: ArmInsn) -> bool:
        return insn_shape(insn) in self._shapes

    def __len__(self) -> int:
        return len(self.rules)


def build_rulebook(rules: List[Rule],
                   verified_candidates: List[CandidateRule]) -> \
        LearnedRulebook:
    shapes: Set[Tuple] = set()
    for candidate in verified_candidates:
        for insn in candidate.guest:
            shapes.add(insn_shape(insn))
            if insn_shape(insn)[0] in ("ADD", "SUB", "AND", "ORR", "EOR"):
                # Opcode parameterization: one member of the ALU class
                # generalizes to all of them (paper [2]).
                for op_name in ("ADD", "SUB", "AND", "ORR", "EOR"):
                    shapes.add((op_name,) + insn_shape(insn)[1:])
    return LearnedRulebook(rules, shapes)
