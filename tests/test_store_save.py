"""A save encodes each entry once and streams it; the store is unchanged.

``serialize_tb`` encodes an entry in two ``json.dumps`` calls (the keys
before ``sha256``, and ``words``) and returns the entry with its text;
``CacheStore.save`` streams the texts into ``entries.json`` and into the
payload checksum.  The reference here is the encoding they replace:
``meta`` round-tripped through JSON, ``entry_checksum`` over the entry,
and one ``json.dumps`` of the whole payload.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.cache.fingerprint import entry_checksum
from repro.cache.store import (PROVENANCE_KEY, UnpersistableTB, encode_insn,
                               entry_text, serialize_tb, verify_store)
from repro.harness.runner import make_machine
from repro.workloads import ALL_WORKLOADS
from repro.workloads.spec import Workload
from tests.support import cold_code_body


def _workload(name):
    if name == "cold-code":
        return Workload("gen0", category="generated",
                        body=cold_code_body(1, 0))
    return ALL_WORKLOADS[name]


def _old_entry(tb):
    """The entry as the store encoded it before: meta through
    ``json.loads(json.dumps(...))``, then ``entry_checksum``."""
    words = [insn.raw for insn in sorted(tb.guest_insns,
                                         key=lambda insn: insn.addr)]
    entry = {"pc": tb.pc, "mmu_idx": tb.mmu_idx, "words": words,
             "code": [encode_insn(insn) for insn in tb.code],
             "jmp_pc": list(tb.jmp_pc)}
    meta = {key: value for key, value in tb.meta.items()
            if key != PROVENANCE_KEY}
    entry["meta"] = json.loads(json.dumps(meta))
    entry["sha256"] = entry_checksum(entry)
    return entry


def _old_payload(entries):
    return json.dumps({"entries": [entries[key] for key in sorted(entries)]},
                      sort_keys=True, separators=(",", ":")) + "\n"


def _read(directory, name):
    with open(os.path.join(directory, name)) as handle:
        return handle.read()


def _cold_run(workload, cache_dir):
    machine = make_machine(workload, "rules-full", cache_dir=str(cache_dir))
    assert machine.run(workload.max_insns) == 0
    loader = machine.engine.persistent
    loader.save()
    return machine, loader


@pytest.mark.parametrize("name", ["sjeng", "cold-code"])
def test_save_writes_the_old_encoding(tmp_path, name):
    machine, loader = _cold_run(_workload(name), tmp_path)
    tbs = [tb for tb in machine.engine.cache.all_tbs()
           if tb.meta.get("tier") == "rules"]
    reference = {(tb.pc, tb.mmu_idx): _old_entry(tb) for tb in tbs}
    assert loader.saved == len(reference) > 50
    directory = loader.store.directory
    text = _read(directory, "entries.json")
    assert text == _old_payload(reference)
    manifest = json.loads(_read(directory, "manifest.json"))
    assert manifest["payload_sha256"] == \
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert manifest["entries"] == len(reference)
    for entry in json.loads(text)["entries"]:
        assert entry["sha256"] == entry_checksum(entry)
    for tb in tbs:
        entry, entry_json = serialize_tb(tb)
        old = json.dumps(reference[(tb.pc, tb.mmu_idx)], sort_keys=True,
                         separators=(",", ":"))
        assert entry_json == entry_text(entry) == old
    assert verify_store(directory) == []


def test_save_of_loaded_and_fresh_entries(tmp_path):
    """Entries read back from the store are encoded at the write, fresh
    ones come with their text; the file is the same either way."""
    workload = _workload("sjeng")
    _, cold = _cold_run(workload, tmp_path)
    directory = cold.store.directory
    full = _read(directory, "entries.json"), _read(directory, "manifest.json")
    entries, problems = cold.store.load()
    assert problems == []
    kept = {key: entries[key] for key in sorted(entries)[::2]}
    cold.store.save(kept)
    assert _read(directory, "entries.json") == _old_payload(kept)
    _, warm = _cold_run(workload, tmp_path)
    assert warm.loaded == len(kept)
    assert warm.saved == len(entries) - len(kept)
    assert (_read(directory, "entries.json"),
            _read(directory, "manifest.json")) == full


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"],
                         ids=["object", "set", "bytes"])
def test_meta_that_is_not_json_is_unpersistable(tmp_path, value):
    workload = _workload("sjeng")
    machine = make_machine(workload, "rules-full", cache_dir=str(tmp_path))
    assert machine.run(workload.max_insns) == 0
    tbs = sorted((tb for tb in machine.engine.cache.all_tbs()
                  if tb.meta.get("tier") == "rules"),
                 key=lambda tb: tb.pc)
    bad = tbs[len(tbs) // 2]
    bad.meta = dict(bad.meta, note={"nested": [value]})
    with pytest.raises(UnpersistableTB):
        serialize_tb(bad)
    loader = machine.engine.persistent
    loader.save()
    assert loader.unpersistable == 1
    assert loader.saved == len(tbs) - 1
    assert verify_store(loader.store.directory) == []


def test_circular_meta_is_unpersistable(tmp_path):
    workload = _workload("sjeng")
    machine = make_machine(workload, "rules-full")
    assert machine.run(workload.max_insns) == 0
    tb = next(tb for tb in machine.engine.cache.all_tbs()
              if tb.meta.get("tier") == "rules")
    loop: list = []
    loop.append(loop)
    tb.meta = dict(tb.meta, loop=loop)
    with pytest.raises(UnpersistableTB):
        serialize_tb(tb)
