"""Static soundness verification of the rule-based translator.

Two verifiers over one findings vocabulary (:mod:`.findings`):

- :mod:`.dataflow` — abstract interpretation over emitted host code,
  proving every QEMU handoff site sees a coordinated ``env`` and every
  elided sync is justified (paper Sec III-C);
- :mod:`.reorder` — dependence-graph replay of Sec III-D scheduling
  decisions.

:mod:`.checker` orchestrates them behind ``repro check`` and the
``--check`` (verify-before-enter) engine mode, and reports the
``proved`` / ``tested-only`` / ``refuted`` verdict the learning
pipeline reached for every learned rule
(:func:`repro.learning.verify.verify`); :mod:`.justify` defines the
audit-event / justification-record schema the translator emits.

This ``__init__`` stays import-light on purpose: ``repro.core`` emits
justification records through :mod:`.justify`, so eagerly importing the
checker (which imports ``repro.core`` back) here would create an import
cycle.  The heavyweight entry points load lazily via ``__getattr__``.
"""

from .findings import Finding, Report, Severity, severity_from_name

__all__ = [
    "Finding", "Report", "Severity", "severity_from_name",
    "check_tb", "run_check", "check_reorder",
]

_LAZY = {
    "check_tb": ("repro.analysis.dataflow", "check_tb"),
    "run_check": ("repro.analysis.checker", "run_check"),
    "check_reorder": ("repro.analysis.reorder", "check_reorder"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)
