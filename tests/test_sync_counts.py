"""A TB's coordination counts are derived, never stored.

``analysis.justify.sync_counts`` reads a TB's sync-saves, sync-restores
and their host instructions off its audit events, and its elisions off
its justification records.  These tests pin the derivation to what the
translator emits (its ``sync.*`` trace events) and show that store
entries written while the counts were still stored revive unchanged.
"""

import json
import os

import pytest

from repro.analysis.justify import sync_counts
from repro.cache.fingerprint import entry_checksum
from repro.cache.store import iter_store_dirs
from repro.core.config import OptLevel
from repro.harness.runner import make_machine
from repro.observability.trace import Tracer
from repro.workloads import ALL_WORKLOADS
from tests.test_cache_format import _write_store
from tests.test_persistent_cache import (PROGRAM, SCHEDULED_PROGRAM,
                                         _deterministic_stats, _final_state,
                                         _machine, _run)

#: meta keys that used to hold the counts; nothing writes them now.
OLD_KEYS = ("sync_saves", "sync_restores", "sync_insns", "sync_elisions",
            "inter_tb_elisions", "n_memory", "n_system")

ENGINES = {level: f"rules-{level.name.lower()}" for level in OptLevel}


@pytest.mark.parametrize("level", list(OptLevel), ids=lambda l: l.name)
def test_derived_counts_equal_emitted_events(level):
    workload = ALL_WORKLOADS["fileio"]
    tracer = Tracer(capacity=1 << 20)
    machine = make_machine(workload, ENGINES[level], tracer=tracer)
    assert machine.run(workload.max_insns) == 0
    assert tracer.dropped == 0
    tbs = [tb for tb in machine.engine.cache.all_tbs()
           if tb.meta.get("tier") == "rules"]
    # Every rules-tier translation is still cached, so the events of
    # the whole run and the records of the cached TBs cover one set.
    events = tracer.events()
    translated = [e for e in events
                  if e.name == "tb.translate" and e.arg("tier") == "rules"]
    assert len(translated) == len(tbs) > 0

    total = [0, 0, 0, 0, 0]
    for tb in tbs:
        assert not set(OLD_KEYS).intersection(tb.meta)
        total = [a + b for a, b in zip(total, sync_counts(tb.meta))]
    saves = [e for e in events if e.name == "sync.save"]
    restores = [e for e in events if e.name == "sync.restore"]
    elides = [e.arg("kind") for e in events if e.name == "sync.elide"]
    assert total == [
        len(saves), len(restores),
        sum(e.arg("insns") for e in saves + restores),
        elides.count("consecutive"), elides.count("inter-tb")]
    assert total[0] > 0 and total[2] > 0
    if level >= OptLevel.ELIMINATION:
        assert total[3] + total[4] > 0


def _plant_old_keys(root):
    """Give every stored entry the counter keys older stores carry,
    with values no record supports, and re-stamp the checksums."""
    store_dir = iter_store_dirs(str(root))[0]
    with open(os.path.join(store_dir, "entries.json")) as handle:
        payload = json.load(handle)
    for entry in payload["entries"]:
        assert not set(OLD_KEYS).intersection(entry["meta"])
        entry["meta"].update({key: 97 for key in OLD_KEYS})
        entry["sha256"] = entry_checksum(entry)
    _write_store(store_dir, payload)
    return len(payload["entries"])


@pytest.mark.parametrize("program", [PROGRAM, SCHEDULED_PROGRAM],
                         ids=["plain", "scheduled"])
def test_old_store_keys_are_ignored_on_revival(tmp_path, program):
    cold, cold_loader = _machine(tmp_path, program=program)
    assert _run(cold, cold_loader) == 0
    planted = _plant_old_keys(tmp_path)
    assert planted == cold_loader.saved > 0

    warm, warm_loader = _machine(tmp_path, program=program)
    assert _run(warm, warm_loader) == 0
    assert warm_loader.loaded == planted
    assert warm_loader.corrupt == warm_loader.stale == 0

    cold_counts = {(tb.pc, tb.mmu_idx): sync_counts(tb.meta)
                   for tb in cold.engine.cache.all_tbs()}
    for tb in warm.engine.cache.all_tbs():
        if tb.meta.get("provenance") == "cached":
            assert tb.meta["sync_saves"] == 97
        assert sync_counts(tb.meta) == cold_counts[(tb.pc, tb.mmu_idx)]
    assert _final_state(warm) == _final_state(cold)
    assert _deterministic_stats(warm) == _deterministic_stats(cold)
