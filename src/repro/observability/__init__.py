"""Observability: structured tracing, per-TB profiling, stat namespacing.

The subsystem has four pieces, all zero-cost when disabled:

- :mod:`~repro.observability.trace` — a ring-buffered :class:`Tracer`
  with named probe points threaded through the decoder, the rule
  translator, the coordination emitter, the softmmu slow path, helper
  entry, IRQ delivery, TB chaining and the robustness degradation
  ladder.  :data:`NULL_TRACER` is the disabled singleton every probe
  site checks first.
- :mod:`~repro.observability.profile` — a :class:`Profiler` that
  attributes dynamic host cost to individual TBs (split by the paper's
  accounting tags) plus per-guest-PC and per-rule aggregation, and the
  coordination-cost breakdown whose categories sum to ``host_cost``.
- :mod:`~repro.observability.export` — Chrome trace-event JSON
  (Perfetto-loadable) and machine-readable profile JSON exporters, plus
  the schema validator the CI smoke step runs.
- :mod:`~repro.observability.stats` — the namespaced
  ``Machine.stats()`` merge (``engine.`` / ``robust.`` / ``io.`` /
  ``trace.``) that makes silent key collisions impossible.

Continuous benchmarking of the modelled cost (``repro bench``) builds
on all four; the real wall-clock is ``perfbench/run.py``'s job:

- :mod:`~repro.observability.bench` — the suite orchestrator that runs
  the paper experiments through the shared sweep cache, folds them
  into one trajectory snapshot, and checks the paper's claims
  (``repro.harness.experiments.CLAIMS``) against its figures.
- :mod:`~repro.observability.baseline` — the canonical snapshot format
  (``BENCH_<n>.json``), its schema validator, and the schema of the
  ``benchmarks/results/<name>.json`` payloads.
- :mod:`~repro.observability.regress` — the snapshot comparator:
  exact gating for the deterministic cost-model metrics and Sec III
  category attribution of regressions.
"""

from .baseline import (iter_metrics, load_snapshot, next_snapshot_path,
                       validate_result_payload, validate_snapshot,
                       write_snapshot)
from .bench import (FULL_EXPERIMENTS, QUICK_EXPERIMENTS, TIER_ENGINES,
                    check_claims, render_claims, render_snapshot,
                    run_suite)
from .export import (chrome_trace, validate_chrome_trace,
                     write_chrome_trace, write_profile_json)
from .profile import (COORDINATION_CATEGORIES, Profiler, build_profile,
                      coordination_breakdown, render_profile)
from .regress import (ComparisonReport, GATE_LEVELS,
                      IncomparableSnapshots, MetricVerdict,
                      compare_snapshots)
from .stats import STAT_NAMESPACES, merge_stats, namespace_group
from .trace import (FLIGHT_RECORDER_EVENTS, NULL_TRACER, NullTracer,
                    TraceEvent, Tracer)

__all__ = [
    "COORDINATION_CATEGORIES", "ComparisonReport", "FLIGHT_RECORDER_EVENTS",
    "FULL_EXPERIMENTS", "GATE_LEVELS", "IncomparableSnapshots",
    "MetricVerdict", "NULL_TRACER", "NullTracer", "Profiler",
    "QUICK_EXPERIMENTS", "STAT_NAMESPACES", "TIER_ENGINES", "TraceEvent",
    "Tracer", "build_profile", "check_claims", "chrome_trace",
    "compare_snapshots", "coordination_breakdown", "iter_metrics",
    "load_snapshot", "merge_stats", "namespace_group",
    "next_snapshot_path", "render_claims", "render_profile",
    "render_snapshot", "run_suite", "validate_chrome_trace",
    "validate_result_payload", "validate_snapshot", "write_chrome_trace",
    "write_profile_json", "write_snapshot",
]
