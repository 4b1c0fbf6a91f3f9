"""The rule-learning pipeline: toycc, extraction, verification, rules."""
