"""Experiment harness: runner, metrics, per-figure experiments."""
