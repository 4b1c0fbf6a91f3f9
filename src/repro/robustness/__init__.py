"""Robustness subsystem: fault injection, degradation, and watchdogs.

Three cooperating pieces (see ``docs/internals.md``):

- :mod:`repro.robustness.faultinject` — deterministic, seed-driven
  fault injector with named sites threaded through the softmmu,
  decoder, rule translator, helpers, and devices;
- :mod:`repro.robustness.degrade` — the tiered degradation ladder
  (rules -> tcg -> interp) with rule quarantine and the online
  differential self-check;
- :mod:`repro.robustness.guard` — the execution watchdog, the shared
  halt fast-forward, and rollback snapshots.
"""
