"""Snapshot comparator: the ``repro bench --compare`` regression gate.

Every snapshot metric comes from the deterministic cost model, so each
is gated *exactly* — the simulated stack has no noise, so any drift is a
real change in emitted code or accounting.  (Real wall-clock is
perfbench's job, not the snapshot's.)

Every metric receives a verdict:

``improved`` / ``flat`` / ``regressed``
    Directional metrics (``up``/``down`` in :mod:`.baseline`).
``changed``
    Neutral metrics whose value moved (workload characteristics such as
    Table I percentages — deterministic, so a move means the guest-side
    behaviour changed, which is worth flagging but is not a slowdown).
``added`` / ``removed``
    Present on only one side (when both snapshots ran the same suite
    sections; sections a ``--quick`` run skips are ``skipped``).
``invalid``
    A non-finite or non-numeric value — data corruption fails the gate.

Regressions are *attributed*: the per-engine Sec III coordination
breakdowns of both snapshots are differenced, and the category whose
cost grew the most is named, so "the gate went red" always comes with
"because coordination-save cost went up", mirroring the paper's Fig 8
argument structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..harness.report import format_table
from .baseline import NEUTRAL, iter_metrics

#: Relative drift tolerated on "exact" metrics (float-formatting head
#: room only; the cost model itself is bit-deterministic).
EXACT_EPSILON = 1e-9

VERDICT_IMPROVED = "improved"
VERDICT_FLAT = "flat"
VERDICT_REGRESSED = "regressed"
VERDICT_CHANGED = "changed"
VERDICT_ADDED = "added"
VERDICT_REMOVED = "removed"
VERDICT_SKIPPED = "skipped"
VERDICT_INVALID = "invalid"

#: Which verdicts fail the gate at each ``--fail-on`` level.  ``changed``
#: fails on any move, ``improved`` included: a counting bug that lowers
#: a cost reads as an improvement.
GATE_LEVELS: Dict[str, Tuple[str, ...]] = {
    "never": (),
    "regressed": (VERDICT_REGRESSED, VERDICT_INVALID),
    "changed": (VERDICT_REGRESSED, VERDICT_INVALID, VERDICT_IMPROVED,
                VERDICT_CHANGED, VERDICT_ADDED, VERDICT_REMOVED),
}


class IncomparableSnapshots(ValueError):
    """The two snapshots measured different things (usage error)."""


@dataclass
class MetricVerdict:
    metric: str
    verdict: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    direction: str = NEUTRAL
    rel_change: Optional[float] = None
    attribution: Optional[str] = None
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric, "verdict": self.verdict,
            "baseline": self.baseline, "current": self.current,
            "direction": self.direction, "rel_change": self.rel_change,
            "attribution": self.attribution, "note": self.note,
        }


@dataclass
class ComparisonReport:
    baseline_name: str
    current_name: str
    verdicts: List[MetricVerdict] = field(default_factory=list)
    #: Sec III category -> summed host-cost delta across engine tiers.
    category_deltas: Dict[str, float] = field(default_factory=dict)
    #: The category whose cost grew the most (None if nothing grew).
    top_category: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for verdict in self.verdicts:
            counts[verdict.verdict] = counts.get(verdict.verdict, 0) + 1
        return counts

    def gating_verdicts(self, fail_on: str) -> List[MetricVerdict]:
        failing = GATE_LEVELS[fail_on]
        return [v for v in self.verdicts if v.verdict in failing]

    def exit_code(self, fail_on: str) -> int:
        return 1 if self.gating_verdicts(fail_on) else 0

    def to_json(self) -> str:
        return json.dumps({
            "baseline": self.baseline_name,
            "current": self.current_name,
            "counts": self.counts(),
            "category_deltas": self.category_deltas,
            "top_category": self.top_category,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }, indent=1, sort_keys=True)

    def render_table(self) -> str:
        interesting = [v for v in self.verdicts
                       if v.verdict != VERDICT_FLAT]
        rows = []
        for v in sorted(interesting,
                        key=lambda v: (v.verdict != VERDICT_REGRESSED,
                                       v.metric)):
            rows.append([
                v.metric, v.verdict,
                "-" if v.baseline is None else f"{v.baseline:.4g}",
                "-" if v.current is None else f"{v.current:.4g}",
                "-" if v.rel_change is None
                else f"{100 * v.rel_change:+.2f}%",
                v.attribution or v.note or "",
            ])
        counts = self.counts()
        summary = ", ".join(f"{count} {verdict}" for verdict, count
                            in sorted(counts.items()))
        sections = [format_table(
            ["Metric", "Verdict", "Baseline", "Current", "Delta",
             "Attribution"], rows,
            title=f"bench compare: {self.current_name} vs baseline "
                  f"{self.baseline_name} ({summary})")]
        if self.top_category is not None:
            deltas = ", ".join(
                f"{category}={delta:+.0f}" for category, delta in sorted(
                    self.category_deltas.items(), key=lambda kv: -kv[1])
                if delta)
            sections.append(
                f"cost moved in Sec III category '{self.top_category}' "
                f"({deltas})")
        elif not interesting:
            sections.append("no metric moved — snapshots are identical")
        return "\n\n".join(sections)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _rel_change(baseline: float, current: float) -> Optional[float]:
    if baseline == 0:
        return None
    return (current - baseline) / abs(baseline)


def _exact_verdict(metric: str, baseline: Any, current: Any,
                   direction: str) -> MetricVerdict:
    if not _finite(baseline) or not _finite(current):
        return MetricVerdict(
            metric, VERDICT_INVALID,
            baseline if _finite(baseline) else None,
            current if _finite(current) else None, direction,
            note=f"non-finite value (baseline={baseline!r}, "
                 f"current={current!r})")
    rel = _rel_change(baseline, current)
    moved = abs(current - baseline) > EXACT_EPSILON * max(
        1.0, abs(baseline), abs(current))
    if not moved:
        return MetricVerdict(metric, VERDICT_FLAT, baseline, current,
                             direction, rel_change=0.0)
    if direction == NEUTRAL:
        return MetricVerdict(metric, VERDICT_CHANGED, baseline, current,
                             direction, rel_change=rel)
    got_bigger = current > baseline
    better = got_bigger == (direction == "up")
    return MetricVerdict(
        metric, VERDICT_IMPROVED if better else VERDICT_REGRESSED,
        baseline, current, direction, rel_change=rel)


# ---------------------------------------------------------------------------
# Attribution.
# ---------------------------------------------------------------------------


def _category_deltas(base: Dict[str, Any],
                     cur: Dict[str, Any]) -> Dict[str, float]:
    """Summed per-category host-cost delta across shared engine tiers."""
    deltas: Dict[str, float] = {}
    base_coord = base.get("coordination", {})
    cur_coord = cur.get("coordination", {})
    for engine in set(base_coord) & set(cur_coord):
        base_breakdown = base_coord[engine]
        cur_breakdown = cur_coord[engine]
        for category in set(base_breakdown) | set(cur_breakdown):
            if category == "total":
                continue
            delta = cur_breakdown.get(category, 0.0) - \
                base_breakdown.get(category, 0.0)
            deltas[category] = deltas.get(category, 0.0) + delta
    return deltas


def _attribution_for(metric: str, top_category: Optional[str]) -> \
        Optional[str]:
    if metric.startswith("coordination."):
        return metric.rsplit(".", 1)[1]
    return top_category


# ---------------------------------------------------------------------------
# The comparator.
# ---------------------------------------------------------------------------

# ``inject`` is deliberately NOT a comparability key: comparing an
# injected run against a clean baseline is the regression-simulator
# use case (``--inject seed=1,extra-sync=0.5 --compare BENCH_0.json``).
_COMPARABILITY_KEYS = ("sweep_workloads", "engines")


def check_comparable(base: Dict[str, Any], cur: Dict[str, Any]) -> None:
    """Raise :class:`IncomparableSnapshots` when the snapshots measured
    different (workload, engine) universes — exact gating would be
    meaningless noise."""
    base_fp = base.get("fingerprint", {})
    cur_fp = cur.get("fingerprint", {})
    for key in _COMPARABILITY_KEYS:
        if base_fp.get(key) != cur_fp.get(key):
            raise IncomparableSnapshots(
                f"snapshots are not comparable: fingerprint.{key} "
                f"differs ({base_fp.get(key)!r} vs {cur_fp.get(key)!r}) "
                f"— bless a new baseline instead of comparing")


def compare_snapshots(base: Dict[str, Any],
                      cur: Dict[str, Any]) -> ComparisonReport:
    """Compare *cur* against the *base* baseline snapshot."""
    check_comparable(base, cur)
    report = ComparisonReport(
        baseline_name=str(base.get("name", "?")),
        current_name=str(cur.get("name", "?")))
    report.category_deltas = _category_deltas(base, cur)
    growing = [(delta, category) for category, delta
               in report.category_deltas.items() if delta > 0]
    report.top_category = max(growing)[1] if growing else None

    base_metrics = {metric: (value, direction)
                    for metric, value, direction in iter_metrics(base)}
    cur_metrics = {metric: (value, direction)
                   for metric, value, direction in iter_metrics(cur)}
    # A --quick run omits whole suite sections the full baseline has;
    # those are skipped, not "removed" — removal only means something
    # when both snapshots ran the same sections.
    base_sections = set((base.get("fingerprint", {})
                         .get("experiments")) or ())
    cur_sections = set((cur.get("fingerprint", {})
                        .get("experiments")) or ())

    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        if metric in base_metrics and metric in cur_metrics:
            (base_value, direction) = base_metrics[metric]
            (cur_value, _) = cur_metrics[metric]
            verdict = _exact_verdict(metric, base_value, cur_value,
                                     direction)
        elif metric in base_metrics:
            value, direction = base_metrics[metric]
            figure = metric.split(".")[1] if metric.startswith(
                "figures.") else None
            if figure is not None and figure in base_sections and \
                    figure not in cur_sections:
                verdict = MetricVerdict(
                    metric, VERDICT_SKIPPED, baseline=value,
                    direction=direction,
                    note="section not run in current mode")
            else:
                verdict = MetricVerdict(
                    metric, VERDICT_REMOVED, baseline=value,
                    direction=direction,
                    note="metric present in baseline only")
        else:
            value, direction = cur_metrics[metric]
            verdict = MetricVerdict(
                metric, VERDICT_ADDED, current=value,
                direction=direction,
                note="metric absent from baseline — bless a new one "
                     "to start tracking it")
        report.verdicts.append(verdict)

    top = report.top_category
    for verdict in report.verdicts:
        if verdict.verdict == VERDICT_REGRESSED and \
                verdict.attribution is None:
            verdict.attribution = _attribution_for(verdict.metric, top)
    return report
