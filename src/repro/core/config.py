"""Optimization levels for the rule-based engine (paper Sec III / Fig 16).

The four cumulative levels match the paper's evaluation:

- ``BASE``: the naive coordination of Sec III-A — a parsed (per-bit)
  sync-save before and a parsed sync-restore after *every* coordination
  site, plus a parsed restore at every conditional instruction.
- ``REDUCTION`` (+ Sec III-B): packed one-word CCR saves/restores with
  lazy parsing on the QEMU side (14 -> ~3 host instructions per sync).
- ``ELIMINATION`` (+ Sec III-C): redundant sync-restore elimination,
  consecutive-memory-access coalescing, and inter-TB elimination across
  chained blocks.
- ``FULL`` (+ Sec III-D): define-before-use instruction scheduling.
  The paper's second scheduling mechanism, relocating the TB-entry
  interrupt check next to the first memory access, is not implemented:
  the on-demand restore policy already makes the entry check free, so
  relocation only adds a save site (DESIGN.md section 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OptLevel(enum.IntEnum):
    BASE = 0
    REDUCTION = 1
    ELIMINATION = 2
    FULL = 3


@dataclass(frozen=True)
class OptConfig:
    """Feature switches derived from an :class:`OptLevel`.

    The switches can also be toggled individually for ablation studies
    (see ``python -m repro bench ablation``).
    """

    packed_sync: bool = False          # Sec III-B
    eliminate_redundant: bool = False  # Sec III-C (a) + (b)
    inter_tb: bool = False             # Sec III-C (c)
    scheduling: bool = False           # Sec III-D-1 (define-before-use)

    @staticmethod
    def from_level(level: OptLevel) -> "OptConfig":
        return OptConfig(
            packed_sync=level >= OptLevel.REDUCTION,
            eliminate_redundant=level >= OptLevel.ELIMINATION,
            inter_tb=level >= OptLevel.ELIMINATION,
            scheduling=level >= OptLevel.FULL,
        )


LEVEL_NAMES = {
    OptLevel.BASE: "Base",
    OptLevel.REDUCTION: "+Reduction",
    OptLevel.ELIMINATION: "+Elimination",
    OptLevel.FULL: "+Scheduling",
}
