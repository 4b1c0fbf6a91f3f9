"""The paper's contribution: rule-based system-level DBT with CPU-state
coordination optimizations (Sec III)."""
