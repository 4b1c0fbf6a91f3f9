"""Warm-start loader: persisted store entries -> live translation blocks.

The loader sits between the engine's code cache and the on-disk store
(:mod:`repro.cache.store`).  On a code-cache miss the engine asks it for
a persisted rules-tier TB; the loader re-validates the entry before
handing anything back:

1. integrity — the per-entry checksum must match (tampered or corrupted
   entries are evicted, never executed).  This is validated once for
   the whole store at attach (:meth:`CacheLoader.load_index`), not per
   TB: when ``entries.json`` hashes to the manifest's payload checksum
   it is byte for byte what a save wrote, with the checksums that save
   computed, and only a mismatch checks entry by entry;
2. guest bytes — every recorded machine word is compared against what
   guest memory holds *now* (self-modified or relinked code is stale:
   the entry is evicted and the engine translates fresh);
3. rule health — entries built from currently-quarantined rules are
   refused, exactly as the in-memory code cache refuses them.

Validation reads guest memory the way the translator's ``fetch_block``
does, a page at a time with the side effects of word-by-word
``bus.fetch`` calls (``GuestBus.code_words``), so a warm run touches
the TLB and page tables identically to a cold one — the deterministic
metrics stay bit-identical and only the (real) translation work is
saved.

Revived TBs are read-only views of the store.  Their guest
instructions come from the engine's decode memo, shared with every
fetch of the same word at the same address.  Their helper-free host
instructions are shared by every TB of the run that holds the same
token, and their ``meta`` is a top-level copy whose nested audit and
justification records are the entry's own.  Every runtime writer
replaces a top-level meta key (``tier``, ``selfcheckable``,
``provenance``, the fault injector's re-indexed records) and never
edits a nested record or a host instruction in place.  The one
copy-on-write exception is the fault injector, which copies the code
list and each instruction whose jump target it shifts, so its edit
stays in the TB it instruments and never reaches the store.

The loader also subscribes to the code cache's eviction notifications:
an in-memory invalidation (rule quarantine, self-check failure,
``--check`` rejection) evicts the corresponding persisted entry too, so
a poisoned translation can never outlive the run that discovered it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.justify import J_REORDER, justifications_of
from ..common.errors import DecodingError, MemoryFault
from ..core.rulebook import rule_key
from ..miniqemu.tb import TranslationBlock
from .fingerprint import (context_fingerprint, entry_checksum,
                          guest_image_digest)
from .store import (PROVENANCE_KEY, CacheStore, EntryTexts, OperandMemo,
                    TokenMemo, UnpersistableTB, decode_code, serialize_tb)

#: Fault-injection sites consulted once per persisted-entry fetch (see
#: repro.robustness.faultinject): ``cache-corrupt`` hands the real
#: checksum validation a bit-flipped entry, ``cache-stale-bytes`` hands
#: the real guest-byte validation words that no longer match memory.
SITE_CORRUPT = "cache-corrupt"
SITE_STALE = "cache-stale-bytes"

class CacheLoader:
    """Per-run warm-start state for one machine + store directory."""

    def __init__(self, machine, engine, root: str):
        self.machine = machine
        self.engine = engine
        # The image digest covers initial RAM, so the loader must be
        # attached after the guest program is loaded and before it runs.
        image = guest_image_digest(bytes(machine.ram.data))
        self.store = CacheStore(
            root, context_fingerprint(engine.rulebook, engine.config,
                                      image=image))
        self._entries: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: host-insn token -> shared instruction (see ``store.decode_code``)
        self._memo: TokenMemo = {}
        #: operand field text -> operand, beside it
        self._operands: OperandMemo = {}
        #: store-level problems found at attach (reported, not fatal)
        self.problems: List[str] = []
        # Warm-start accounting (the ``cache.`` stats group).
        self.loaded = 0         # entries turned into live TBs
        self.fresh = 0          # misses translated from scratch
        self.stale = 0          # guest bytes changed since persist
        self.corrupt = 0        # checksum / decode failures
        self.quarantined = 0    # refused: built from a quarantined rule
        self.evicted = 0        # persisted entries dropped this run
        self.saved = 0          # new entries written at save()
        self.unpersistable = 0  # rules-tier TBs the store cannot hold
        self._dirty = False

    # -- attach ------------------------------------------------------------

    def load_index(self) -> None:
        """Read the store's entries and validate their integrity
        checksums (called once, at attach).  Tampered or bit-rotted
        entries are evicted here — they must never reach execution.
        An intact payload (:attr:`CacheStore.intact`) holds the
        checksums its save computed, so they are not recomputed."""
        self._entries, self.problems = self.store.load()
        if self.store.intact:
            return
        for (pc, mmu_idx), entry in list(self._entries.items()):
            if entry.get("sha256") != entry_checksum(entry):
                self.corrupt += 1
                self._discard(pc, mmu_idx, "corrupt")

    def __len__(self) -> int:
        return len(self._entries)

    # -- the warm path (called by DbtEngineBase.get_tb on a miss) ----------

    def fetch(self, pc: int, mmu_idx: int) -> Optional[TranslationBlock]:
        """Re-validate and revive one persisted entry (or None)."""
        entry = self._entries.get((pc, mmu_idx))
        if entry is None:
            return None
        injector = self.machine.injector
        if injector.enabled:
            if injector.fires(SITE_CORRUPT):
                # Simulated on-disk corruption: flip a bit and let the
                # real checksum validation catch it.
                entry = dict(entry, words=[w ^ 1 for w in entry["words"]])
            if entry.get("sha256") != entry_checksum(entry):
                self.corrupt += 1
                self._discard(pc, mmu_idx, "corrupt")
                return None
        words = list(entry["words"])
        if injector.enabled and injector.fires(SITE_STALE):
            # Simulated stale store: the recorded words no longer match
            # guest memory; the byte validation below must notice.
            words = [w ^ 0x00100000 for w in words]
        code_words = self.machine.bus.code_words
        index = 0
        while index < len(words):
            try:
                current = code_words(pc + 4 * index, len(words) - index)
            except MemoryFault:
                # The page is gone (or unmapped for this mode): let the
                # fresh-translation path raise the genuine guest fault.
                return None
            for word in current:
                if word != words[index]:
                    self.stale += 1
                    self._discard(pc, mmu_idx, "stale")
                    return None
                index += 1
        tb = self._revive(entry, pc, mmu_idx, words)
        if tb is None:
            return None
        self.loaded += 1
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("cache.load", pc=pc,
                                     guest_insns=tb.guest_insn_count,
                                     host_insns=len(tb.code))
        return tb

    def _revive(self, entry: Dict[str, Any], pc: int, mmu_idx: int,
                words: List[int]) -> Optional[TranslationBlock]:
        # Shallow: runtime writers replace top-level keys and never edit
        # a nested record in place (see the module docstring).
        meta = dict(entry.get("meta") or {})
        rules_used = meta.get("rules_used") or ()
        if set(self.engine.ladder.quarantined_rules).intersection(rules_used):
            self.quarantined += 1
            self._discard(pc, mmu_idx, "quarantined-rule")
            return None
        decode = self.engine.decode     # the engine's decode memo
        try:
            decoded = [decode(word, pc + 4 * index)
                       for index, word in enumerate(words)]
        except DecodingError:
            self.corrupt += 1
            self._discard(pc, mmu_idx, "undecodable")
            return None
        by_addr = {insn.addr: insn for insn in decoded}
        try:
            code = decode_code(entry["code"], by_addr, self._memo,
                               self._operands)
            # Words are in address order; a scheduled block's reorder
            # record holds its emitted order.
            reorder = next((record for record in justifications_of(meta)
                            if record["kind"] == J_REORDER), None)
            guest_insns = decoded if reorder is None \
                else [by_addr[addr] for addr in reorder["scheduled"]]
        except (KeyError, ValueError, TypeError, IndexError):
            self.corrupt += 1
            self._discard(pc, mmu_idx, "malformed")
            return None
        meta[PROVENANCE_KEY] = "cached"
        tb = TranslationBlock(pc=pc, mmu_idx=mmu_idx,
                              guest_insns=guest_insns, code=code)
        tb.jmp_pc = list(entry.get("jmp_pc") or (None, None))
        tb.meta = meta
        return tb

    # -- eviction ----------------------------------------------------------

    def _discard(self, pc: int, mmu_idx: int, reason: str) -> None:
        if self._entries.pop((pc, mmu_idx), None) is None:
            return
        self.evicted += 1
        self._dirty = True
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("cache.evict", pc=pc, reason=reason)

    def discard(self, pc: int, mmu_idx: int, reason: str) -> None:
        """Drop one persisted entry (e.g. a ``--check`` rejection)."""
        self._discard(pc, mmu_idx, reason)

    def on_cache_evict(self, victims, rules: Optional[Iterable[str]] = None
                       ) -> None:
        """Code-cache eviction listener: mirror every in-memory
        invalidation onto the persisted store."""
        for tb in victims:
            self._discard(tb.pc, tb.mmu_idx, "invalidated")
        if rules:
            wanted = set(rules)
            for (pc, mmu_idx), entry in list(self._entries.items()):
                used = (entry.get("meta") or {}).get("rules_used") or ()
                if wanted.intersection(used):
                    self._discard(pc, mmu_idx, "quarantined-rule")

    # -- persisting (called once, after the run) ---------------------------

    def save(self) -> int:
        """Merge this run's fresh rules-tier TBs into the store.

        Surviving loaded entries are kept as-is; every freshly
        translated, still-live rules-tier TB is serialized and added,
        unless it holds an instruction of a rule quarantined this run.
        Returns the number of newly persisted TBs.  The store is only
        rewritten when something actually changed.
        """
        new = 0
        quarantined = set(self.engine.ladder.quarantined_rules)
        # id(insn) -> token for this save only: the TBs in the code
        # cache keep every instruction alive until it returns.
        tokens: Dict[int, str] = {}
        texts = EntryTexts()
        for tb in self.engine.cache.all_tbs():
            if tb.meta.get("tier") != "rules":
                continue
            key = (tb.pc, tb.mmu_idx)
            if tb.meta.get(PROVENANCE_KEY) == "cached" \
                    and key in self._entries:
                continue
            if quarantined and quarantined.intersection(
                    map(rule_key, tb.guest_insns)):
                # Translated around a quarantined rule: a later run in
                # which the rule is healthy must not revive the
                # degraded code.
                self.unpersistable += 1
                continue
            try:
                entry, text = serialize_tb(tb, tokens)
            except UnpersistableTB:
                self.unpersistable += 1
                continue
            texts.add(key, text)
            self._entries[key] = entry
            new += 1
        self.saved = new
        if new or self._dirty or not os.path.isdir(self.store.directory):
            self.store.save(self._entries, texts)
            self._dirty = False
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("cache.save", new=new,
                                     entries=len(self._entries))
        return new

    # -- reporting (the ``cache.`` stats group) ----------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "store_entries": float(len(self._entries)),
            "tb_loaded": float(self.loaded),
            "tb_fresh": float(self.fresh),
            "tb_stale": float(self.stale),
            "tb_corrupt": float(self.corrupt),
            "tb_quarantined": float(self.quarantined),
            "tb_evicted": float(self.evicted),
            "tb_saved": float(self.saved),
            "tb_unpersistable": float(self.unpersistable),
        }
