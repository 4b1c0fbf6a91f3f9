"""Finding and report types for the translation soundness checker.

Every check in this package reports through one vocabulary: a
:class:`Finding` names the violated property (``code``), where it was
observed (TB pc, host instruction index, rule id), how bad it is
(``severity``), and — when the checker can produce one — a concrete
``witness`` (e.g. a variable assignment refuting a learned rule, or the
flag mask a forged inter-TB justification claimed was dead).

Severities:

``info``
    A deliberate, documented imprecision (e.g. the interrupt-observability
    waiver on a legitimate inter-TB elision).  Never fails CI.
``warning``
    Suspicious but not provably unsound (e.g. an audit record that does
    not match the emitted code shape but has no semantic consequence).
``error``
    A proven soundness violation: executing this TB (or applying this
    rule) can corrupt guest state.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


_SEVERITY_BY_NAME = {s.name.lower(): s for s in Severity}


def severity_from_name(name: str) -> Severity:
    try:
        return _SEVERITY_BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown severity {name!r}") from None


@dataclass
class Finding:
    """One checker result."""

    severity: Severity
    code: str                         # stable machine-readable identifier
    message: str                      # human-readable explanation
    tb_pc: Optional[int] = None       # guest pc of the TB (TB-phase checks)
    mmu_idx: Optional[int] = None
    host_index: Optional[int] = None  # offending host instruction index
    guest_addr: Optional[int] = None  # guest instruction address, if known
    rule: Optional[str] = None        # rule id (rule-phase checks)
    witness: Optional[Dict[str, Any]] = None
    cost: Optional[float] = None      # profiler cost of the TB, if attached

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "severity": str(self.severity),
            "code": self.code,
            "message": self.message,
        }
        if self.tb_pc is not None:
            out["tb_pc"] = f"0x{self.tb_pc:x}"
        if self.mmu_idx is not None:
            out["mmu_idx"] = self.mmu_idx
        if self.host_index is not None:
            out["host_index"] = self.host_index
        if self.guest_addr is not None:
            out["guest_addr"] = f"0x{self.guest_addr:x}"
        if self.rule is not None:
            out["rule"] = self.rule
        if self.witness is not None:
            out["witness"] = self.witness
        if self.cost is not None:
            out["cost"] = self.cost
        return out


@dataclass
class Report:
    """The aggregate result of one ``repro check`` run."""

    findings: List[Finding] = field(default_factory=list)
    #: context counters: TBs checked, rules classified, etc.
    meta: Dict[str, Any] = field(default_factory=dict)

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    def above(self, threshold: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity > threshold]

    def exit_code(self, threshold: Severity = Severity.INFO) -> int:
        """0 when nothing exceeds *threshold*, 1 otherwise."""
        return 1 if self.above(threshold) else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": self.meta,
            "counts": {str(s): self.count(s) for s in Severity},
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_table(self) -> str:
        lines = []
        header = f"{'SEVERITY':<9} {'CODE':<28} {'WHERE':<18} MESSAGE"
        lines.append(header)
        lines.append("-" * len(header))
        for f in sorted(self.findings, key=lambda f: -int(f.severity)):
            if f.tb_pc is not None:
                where = f"tb 0x{f.tb_pc:x}"
                if f.host_index is not None:
                    where += f"+{f.host_index}"
            elif f.rule is not None:
                where = f"rule {f.rule}"
            else:
                where = "-"
            lines.append(f"{str(f.severity):<9} {f.code:<28} "
                         f"{where:<18} {f.message}")
        if not self.findings:
            lines.append("(no findings)")
        counts = ", ".join(f"{self.count(s)} {s}" for s in
                           reversed(list(Severity)))
        lines.append("")
        lines.append(f"{len(self.findings)} finding(s): {counts}")
        for key in sorted(self.meta):
            lines.append(f"  {key}: {self.meta[key]}")
        return "\n".join(lines)
