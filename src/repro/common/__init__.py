"""Shared utilities: bit manipulation, errors, the cost model."""
