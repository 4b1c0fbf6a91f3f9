"""Persistent cross-run translation cache (warm start).

Rules-tier translation blocks survive across runs: after a run the
engine's surviving TBs are serialized — host code, metadata, the PR 3
justification records and PR 2 coordination accounting included — to a
store keyed by a fingerprint of the translation context (rulebook,
OptConfig, cost-model version, format version).  The next run with the
same context loads them back instead of re-translating, after
re-validating each entry's exact guest bytes against live memory.

Usage::

    loader = attach_cache(machine, cache_dir)   # before machine.run()
    machine.run(...)
    if loader is not None:
        loader.save()                            # persist fresh TBs

See ``docs/caching.md`` for the design and invariants.
"""

from __future__ import annotations

from typing import Optional

from .loader import CacheLoader


def attach_cache(machine, cache_dir: str) -> Optional[CacheLoader]:
    """Wire a persistent translation cache into *machine*.

    Only engines with a rules tier persist anything; for interp/tcg
    machines this is a no-op returning ``None``.  The returned loader's
    :meth:`~CacheLoader.save` must be called after the run to persist
    freshly translated blocks.
    """
    engine = getattr(machine, "engine", None)
    if engine is None or "rules" not in getattr(engine, "tiers", ()):
        return None
    loader = CacheLoader(machine, engine, cache_dir)
    engine.persistent = loader
    engine.cache.add_evict_listener(loader.on_cache_evict)
    loader.load_index()
    return loader
