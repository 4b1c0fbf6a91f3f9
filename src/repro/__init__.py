"""Reproduction of "A System-Level Dynamic Binary Translator using
Automatically-Learned Translation Rules" (CGO 2024).

Public API tour (each name is imported from the module that defines
it; see docs/internals.md, "Module layout"):

- :class:`repro.miniqemu.machine.Machine` — a full guest system (ARMv7
  CPU, softmmu, devices) with a pluggable execution engine
  (``engine="interp" | "tcg" | "rules"``).
- :func:`repro.core.engine.make_rule_engine` — the paper's rule-based
  DBT at a chosen :class:`repro.core.config.OptLevel`.
- :func:`repro.learning.learn.learn` — the automatic rule-learning
  pipeline.
- :mod:`repro.harness.experiments` — experiment runners reproducing
  every table and figure of the paper's evaluation, over
  :mod:`repro.harness.runner`.
- :mod:`repro.workloads` — SPEC CINT2006 analogs + real-world analogs.

See README.md for a quickstart and DESIGN.md for the system inventory.
A package's ``__init__`` imports nothing (``repro.cache`` and
``repro.workloads``, which define code there, import what that code
needs), so importing a module loads only what that module imports:
``import repro.harness.runner`` loads neither the learning pipeline
nor the ``repro bench`` stack.
"""

__version__ = "1.0.0"
