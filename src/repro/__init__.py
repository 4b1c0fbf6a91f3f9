"""Reproduction of "A System-Level Dynamic Binary Translator using
Automatically-Learned Translation Rules" (CGO 2024).

Public API tour:

- :class:`repro.miniqemu.Machine` — a full guest system (ARMv7 CPU,
  softmmu, devices) with a pluggable execution engine
  (``engine="interp" | "tcg" | "rules"``).
- :func:`repro.core.make_rule_engine` — the paper's rule-based DBT at a
  chosen :class:`repro.core.OptLevel`.
- :func:`repro.learning.learn` — the automatic rule-learning pipeline.
- :mod:`repro.harness` — experiment runners reproducing every table and
  figure of the paper's evaluation.
- :mod:`repro.workloads` — SPEC CINT2006 analogs + real-world analogs.

See README.md for a quickstart and DESIGN.md for the system inventory.
Subpackages are imported on use, so importing one does not load the
others (``import repro.harness.runner`` does not pull in the learning
pipeline).
"""

__version__ = "1.0.0"
