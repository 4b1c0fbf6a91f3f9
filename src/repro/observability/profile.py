"""Per-TB / per-guest-PC / per-rule profiling and cost attribution.

The :class:`Profiler` attributes every unit of modelled host cost — per
executed host instruction and per modelled charge — to the translation
block that incurred it, keyed by ``(guest_pc, mmu_idx)`` and split by
the instruction tag.  Cost the cpu_exec loop spends outside any TB
(IRQ delivery at the loop head, TB-cache lookups before attribution is
armed) lands in the ``unattributed`` bucket, so the per-TB sums plus
the unattributed bucket always equal the run's ``host_cost`` exactly.

:func:`coordination_breakdown` folds the engine's ``tag_*`` counters
into the paper's Sec III cost categories; because every executed
instruction and every charge increments exactly one tag counter, the
category totals sum to ``host_cost`` by construction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..analysis.justify import sync_counts
from ..harness.report import format_table

#: The paper's Sec III cost accounting: tag -> category.
#:
#: - ``body``: the translated guest computation itself (rule-emitted
#:   code, TCG-emitted code, inline fallback, interp-tier execution).
#: - ``coordination``: sync-save/restore/reg-flush + interrupt checks —
#:   the overhead Figs 8/16/17 measure.
#: - ``mmu``: softmmu probes, page walks and MMIO dispatch.
#: - ``helper``: helper-call glue and modelled helper bodies.
#: - ``chaining``: goto_tb / exit_tb block-linking glue.
#: - ``runtime``: cpu_exec loop work (TB lookup, exception entry).
#: - ``translate``: modelled translation cost (static * per-insn).
COORDINATION_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "body": ("rule", "code", "fallback", "interp_tier"),
    "coordination": ("sync", "irqcheck"),
    "mmu": ("mmu", "mmio"),
    "helper": ("helper",),
    "chaining": ("chain",),
    "runtime": ("runtime",),
    "translate": ("translate",),
}

_TAG_TO_CATEGORY: Dict[str, str] = {
    tag: category
    for category, tags in COORDINATION_CATEGORIES.items()
    for tag in tags
}


def category_for(tag: str) -> str:
    """Cost category for an instruction tag (unknown tags -> 'other')."""
    return _TAG_TO_CATEGORY.get(tag, "other")


ProfileKey = Tuple[int, int]  # (guest_pc, mmu_idx)


class Profiler:
    """Aggregates execution counts and tagged cost per translation block.

    The hot-loop contract: the host interpreter fetches the per-TB tag
    counter dict once per TB entry via :meth:`tags_for` and increments
    it inline, so the per-instruction overhead is one dict increment.
    Charges route through :meth:`on_charge` with the interpreter's
    current attribution key (or ``None`` outside any TB).
    """

    def __init__(self):
        #: key -> tag -> attributed cost units.
        self._tags: Dict[ProfileKey, Dict[str, float]] = {}
        #: key -> TB entry count (run-loop entries + chained entries).
        self.execs: Dict[ProfileKey, int] = defaultdict(int)
        #: key -> static snapshot taken at translate time (survives
        #: cache eviction; retranslation overwrites with the new tier).
        self.static: Dict[ProfileKey, Dict[str, object]] = {}
        #: tag -> cost charged while no TB was executing.
        self.unattributed: Dict[str, float] = defaultdict(float)

    # -- hot-path hooks ----------------------------------------------------

    def tags_for(self, key: ProfileKey) -> Dict[str, float]:
        tags = self._tags.get(key)
        if tags is None:
            tags = self._tags[key] = defaultdict(float)
        return tags

    def on_enter(self, key: ProfileKey) -> None:
        self.execs[key] += 1

    def on_charge(self, key: Optional[ProfileKey], tag: str,
                  amount: float) -> None:
        if key is None:
            self.unattributed[tag] += amount
        else:
            self.tags_for(key)[tag] += amount

    # -- translate-time hooks ----------------------------------------------

    def register(self, tb) -> None:
        """Snapshot a freshly-translated TB's static metadata."""
        meta = tb.meta
        counts = sync_counts(meta)
        self.static[(tb.pc, tb.mmu_idx)] = {
            "tier": meta.get("tier", "?"),
            "guest_insns": tb.guest_insn_count,
            "host_insns": len(tb.code),
            "sync_saves": counts.saves,
            "sync_restores": counts.restores,
            "sync_elisions": counts.elisions,
            "rules_used": tuple(meta.get("rules_used") or ()),
        }

    # -- aggregation -------------------------------------------------------

    def attributed_cost(self) -> float:
        return sum(sum(tags.values()) for tags in self._tags.values())

    def tb_rows(self) -> List[Dict[str, object]]:
        """One row per profiled TB, sorted by attributed cost descending."""
        rows = []
        categories = tuple(COORDINATION_CATEGORIES) + ("other",)
        for key, tags in self._tags.items():
            pc, mmu_idx = key
            static = self.static.get(key, {})
            split = {category: 0.0 for category in categories}
            for tag, amount in tags.items():
                split[category_for(tag)] += amount
            rows.append({
                "pc": f"0x{pc:08x}",
                "mmu_idx": mmu_idx,
                "tier": static.get("tier", "?"),
                "execs": self.execs.get(key, 0),
                "guest_insns": static.get("guest_insns", 0),
                "cost": sum(tags.values()),
                "by_category": split,
                "sync_saves": static.get("sync_saves", 0),
                "sync_restores": static.get("sync_restores", 0),
                "sync_elisions": static.get("sync_elisions", 0),
                "rules_used": list(static.get("rules_used", ())),
            })
        rows.sort(key=lambda row: (-row["cost"], row["pc"]))
        return rows

    def pc_rows(self) -> List[Dict[str, object]]:
        """Per-guest-PC aggregation (mmu contexts of one pc merged)."""
        merged: Dict[int, Dict[str, float]] = {}
        for (pc, _mmu_idx), tags in self._tags.items():
            entry = merged.setdefault(pc, {"cost": 0.0, "execs": 0.0})
            entry["cost"] += sum(tags.values())
            entry["execs"] += self.execs.get((pc, _mmu_idx), 0)
        rows = [{"pc": f"0x{pc:08x}", "cost": entry["cost"],
                 "execs": int(entry["execs"])}
                for pc, entry in merged.items()]
        rows.sort(key=lambda row: (-row["cost"], row["pc"]))
        return rows

    def rule_rows(self) -> List[Dict[str, object]]:
        """Per-rule profile.

        A TB's cost counts toward *every* rule applied in it (rule
        applications overlap inside a block), so rule costs do not sum
        to ``host_cost`` — they rank which rules sit in expensive blocks.
        """
        per_rule: Dict[str, Dict[str, float]] = {}
        for key, static in self.static.items():
            tags = self._tags.get(key)
            cost = sum(tags.values()) if tags else 0.0
            execs = self.execs.get(key, 0)
            for rule in static.get("rules_used", ()):
                entry = per_rule.setdefault(
                    rule, {"tbs": 0.0, "execs": 0.0, "cost": 0.0})
                entry["tbs"] += 1
                entry["execs"] += execs
                entry["cost"] += cost
        rows = [{"rule": rule, "tbs": int(entry["tbs"]),
                 "execs": int(entry["execs"]), "cost": entry["cost"]}
                for rule, entry in per_rule.items()]
        rows.sort(key=lambda row: (-row["cost"], row["rule"]))
        return rows


def coordination_breakdown(stats: Dict[str, float]) -> Dict[str, float]:
    """Fold namespaced ``engine.tag_*`` counters into cost categories.

    Every executed host instruction and every modelled charge increments
    exactly one ``tag_*`` counter, so the returned category totals sum
    to ``engine.host_cost`` exactly.
    """
    breakdown = {category: 0.0 for category in COORDINATION_CATEGORIES}
    breakdown["other"] = 0.0
    for key, value in stats.items():
        if key.startswith("engine.tag_"):
            breakdown[category_for(key[len("engine.tag_"):])] += value
    return breakdown


def build_profile(machine, workload: str = "",
                  engine: str = "") -> Dict[str, object]:
    """Machine-readable profile for one finished run (JSON-safe)."""
    stats = machine.stats()
    breakdown = coordination_breakdown(stats)
    profiler = machine.profiler
    runtime = machine.runtime
    profile: Dict[str, object] = {
        "workload": workload,
        "engine": engine,
        "totals": {
            "guest_icount": stats.get("engine.guest_icount", 0.0),
            "host_instructions":
                stats.get("engine.host_instructions", 0.0),
            "host_cost": stats.get("engine.host_cost", 0.0),
            "io_cost": stats.get("io.cost", 0.0),
        },
        "breakdown": breakdown,
        "sync_sites": {
            "sync_ops_dyn": stats.get("engine.sync_ops_dyn", 0.0),
            "sync_insns_weighted":
                stats.get("engine.sync_insns_weighted", 0.0),
            "sync_elisions_dyn":
                stats.get("engine.sync_elisions_dyn", 0.0),
            "lazy_flag_parses": stats.get("engine.flag_parses", 0.0),
            "mmu_slow_paths": float(runtime.slow_path_count),
            "interrupt_checks_dyn":
                stats.get("engine.interrupt_checks_dyn", 0.0),
        },
        "stats": dict(stats),
    }
    if profiler is not None:
        profile["tbs"] = profiler.tb_rows()
        profile["per_pc"] = profiler.pc_rows()
        profile["rules"] = profiler.rule_rows()
        profile["unattributed"] = dict(profiler.unattributed)
    return profile


def render_profile(profile: Dict[str, object], top: int = 20) -> str:
    """The ``repro profile`` report: hot-TB table + cost breakdown."""
    totals = profile["totals"]
    host_cost = totals["host_cost"] or 1.0
    sections = []

    breakdown = profile["breakdown"]
    rows = [[category, f"{cost:.0f}", f"{100 * cost / host_cost:.1f}%"]
            for category, cost in sorted(breakdown.items(),
                                         key=lambda item: -item[1])
            if cost]
    rows.append(["total", f"{sum(breakdown.values()):.0f}", "100.0%"])
    sections.append(format_table(
        ["Category", "Host cost", "Share"], rows,
        title=f"coordination-cost breakdown "
              f"({profile['workload']} on {profile['engine']}, "
              f"host_cost={totals['host_cost']:.0f})"))

    tbs = profile.get("tbs")
    if tbs:
        hot = []
        for row in tbs[:top]:
            split = row["by_category"]
            hot.append([
                row["pc"], row["tier"], row["execs"],
                row["guest_insns"], f"{row['cost']:.0f}",
                f"{split['body']:.0f}", f"{split['coordination']:.0f}",
                f"{split['mmu']:.0f}", f"{split['helper']:.0f}",
                f"{split['chaining']:.0f}",
            ])
        sections.append(format_table(
            ["TB pc", "Tier", "Execs", "Guest", "Cost", "Body",
             "Coord", "MMU", "Helper", "Chain"], hot,
            title=f"hot TBs (top {min(top, len(tbs))} of {len(tbs)} "
                  f"by attributed cost)"))
        unattributed = sum(profile.get("unattributed", {}).values())
        attributed = sum(row["cost"] for row in tbs)
        sections.append(
            f"attributed {attributed:.0f} + unattributed "
            f"{unattributed:.0f} = {attributed + unattributed:.0f} "
            f"host cost")

    rules = profile.get("rules")
    if rules:
        rule_rows = [[row["rule"], row["tbs"], row["execs"],
                      f"{row['cost']:.0f}"] for row in rules[:top]]
        sections.append(format_table(
            ["Rule", "TBs", "Execs", "TB cost"], rule_rows,
            title="hottest rules (cost of every TB the rule appears in)"))

    sync = profile["sync_sites"]
    sections.append(format_table(
        ["Site", "Count"],
        [[name, f"{value:.0f}"] for name, value in sync.items()],
        title="coordination sites (dynamic)"))
    return "\n\n".join(sections)
