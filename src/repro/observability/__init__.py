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
