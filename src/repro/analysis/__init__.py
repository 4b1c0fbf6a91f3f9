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
"""
