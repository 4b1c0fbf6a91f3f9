"""Store format v2: host-instruction tokens, their decode, and the
validation of entries that are well-checksummed but wrong.

The cold/warm differential harness lives in ``test_persistent_cache``;
this module reuses its guest program and machine builder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.__main__ import main
from repro.cache import FORMAT_VERSION, iter_store_dirs, store_info, \
    verify_store
from repro.cache.fingerprint import entry_checksum
from repro.cache.store import (SEP, UnpersistableTB, decode_code,
                               encode_insn)
from repro.guest.decoder import decode
from repro.harness.runner import make_machine
from repro.host.isa import Imm, Mem, Reg, X86Cond, X86Insn, X86Op, Xmm
from repro.miniqemu.helpers import (make_ld_helper, make_st_helper,
                                    make_sysreg_helper)
from repro.observability import Profiler
from repro.workloads import ALL_WORKLOADS
from tests.test_persistent_cache import (_deterministic_stats, _final_state,
                                         _machine, _run)

_FIELDS = [field.name for field in dataclasses.fields(X86Insn)
           if field.name != "helper"]


def _assert_same(original: X86Insn, revived: X86Insn) -> None:
    for name in _FIELDS:
        assert getattr(revived, name) == getattr(original, name), name
    # Helpers are fresh closures: compare what they were built from.
    assert getattr(revived.helper, "persist", None) == \
        getattr(original.helper, "persist", None)


def _round_trip(code, by_addr):
    return decode_code([encode_insn(insn) for insn in code], by_addr, {})


# ---------------------------------------------------------------------------
# Token round trip.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sjeng", "fileio"])
def test_workload_tbs_round_trip(name):
    """Every host insn of every rules-tier TB of a helper- and
    MMIO-heavy run decodes to a field-equal instruction."""
    workload = ALL_WORKLOADS[name]
    machine = make_machine(workload, "rules-full")
    assert machine.run(workload.max_insns) == 0
    checked = helpers = 0
    for tb in machine.engine.cache.all_tbs():
        if tb.meta.get("tier") != "rules":
            continue
        by_addr = {insn.addr: insn for insn in tb.guest_insns}
        for original, revived in zip(tb.code, _round_trip(tb.code, by_addr)):
            _assert_same(original, revived)
            checked += 1
            helpers += original.helper is not None
    assert checked > 1000 and helpers > 0


def test_hand_built_insns_round_trip():
    mrs = decode(0xE10F8000, 0x2000)         # mrs r8, cpsr
    code = [
        X86Insn(X86Op.MOV, Reg(0), Mem(disp=0x40, size=1)),
        X86Insn(X86Op.MOVZX, Reg(1), Mem(index=3, scale=4, size=2)),
        X86Insn(X86Op.MOV, Mem(base=5, disp=-8, size=4), Imm(-5)),
        X86Insn(X86Op.MOVSS, Xmm(3), Mem(base=6, index=2, scale=8)),
        X86Insn(X86Op.CALL_HELPER, helper=make_ld_helper(2, True, 1, 0x1000),
                helper_args=(Mem(base=4, disp=0), 7), tag="mmu"),
        X86Insn(X86Op.CALL_HELPER, helper=make_st_helper(1, 0, 0x1004),
                helper_args=(Reg(2), Imm(-1))),
        X86Insn(X86Op.CALL_HELPER, helper=make_sysreg_helper(mrs),
                tag="helper"),
        X86Insn(X86Op.JCC, cond=X86Cond.NE, label="irq_0", tag="irqcheck",
                target_index=5),
        X86Insn(X86Op.SETCC, Reg(3), cond=X86Cond.L),
        X86Insn(X86Op.EXIT_TB, imm=3, tag="chain"),
    ]
    for original, revived in zip(code, _round_trip(code, {0x2000: mrs})):
        _assert_same(original, revived)


@pytest.mark.parametrize("field,value", [
    ("label", f"a{SEP}b"), ("label", ""),
    ("tag", f"sync{SEP}x"), ("tag", ""),
])
def test_unencodable_label_or_tag_is_unpersistable(field, value):
    insn = X86Insn(X86Op.JMP, label="out")
    setattr(insn, field, value)
    with pytest.raises(UnpersistableTB):
        encode_insn(insn)


# ---------------------------------------------------------------------------
# Revived code and meta are shared, read-only views of the store.
# ---------------------------------------------------------------------------

#: Every injector edit of a revived TB's code and meta: NOP padding,
#: a prepended helper and a removed sync-save range.
INJECTED_WARM = "seed=1,extra-sync=0.5,rule-wrong=SUB,drop-save=0.5"


def _workload_run(workload, cache_dir, **kwargs):
    """Run *workload* on ``rules-full`` against the store at
    *cache_dir*; returns the machine, its loader and the number of
    entries the store held at attach."""
    machine = make_machine(workload, "rules-full", cache_dir=str(cache_dir),
                           **kwargs)
    loader = machine.engine.persistent
    at_attach = len(loader)
    assert machine.run(workload.max_insns) == 0
    loader.save()
    return machine, loader, at_attach


def test_revived_helper_free_insns_are_shared(tmp_path):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    warm, warm_loader = _machine(tmp_path)
    _run(warm, warm_loader)
    code = [insn for tb in warm.engine.cache.all_tbs()
            if tb.meta.get("provenance") == "cached" for insn in tb.code]
    assert warm_loader.loaded > 1
    shared = [insn for insn in code if insn.helper is None]
    calls = [insn for insn in code if insn.helper is not None]
    assert len({id(insn) for insn in shared}) < len(shared)
    # A helper is resolved against its own TB's guest instructions.
    assert calls and len({id(insn) for insn in calls}) == len(calls)


def test_injected_warm_run_leaves_the_store_clean(tmp_path):
    """The injector edits revived TBs by copy, so neither the run it
    instruments nor a later clean run sees its edits elsewhere."""
    workload = ALL_WORKLOADS["cpu-prime"]
    cold, cold_loader, _ = _workload_run(workload, tmp_path)
    assert cold_loader.saved > 0

    injected, loader, _ = _workload_run(workload, tmp_path,
                                        inject=INJECTED_WARM)
    assert injected.uart.text == cold.uart.text
    stats = injected.stats()
    for site in ("extra_sync", "rule_wrong", "drop_save"):
        assert stats[f"robust.inj_{site}"] > 0, site
    assert loader.loaded > 0 and loader.corrupt == 0
    # The shared instructions still say what their tokens say.
    shared = [(token, insn) for token, (insn, spec) in loader._memo.items()
              if spec is None]
    assert any(insn.target_index >= 0 for _, insn in shared)
    for token, insn in shared:
        assert encode_insn(insn) == token
    # rule-wrong quarantined rules: what was translated around them
    # stays out of the store.
    assert stats["robust.quarantined_rules"] > 0
    assert loader.unpersistable > 0 and loader.saved == 0
    assert verify_store(iter_store_dirs(str(tmp_path))[0]) == []

    warm, loader, at_attach = _workload_run(workload, tmp_path)
    assert loader.loaded == at_attach > 0
    assert loader.corrupt == loader.stale == 0
    assert warm.uart.text == cold.uart.text
    assert _deterministic_stats(warm) == _deterministic_stats(cold)


@pytest.mark.parametrize("inject,check", [
    (None, True), (INJECTED_WARM, True),
    # Unchecked, the TBs drop-save edits stay live (--check rejects
    # them and evicts their entries).
    (INJECTED_WARM, False),
], ids=["clean", "injected", "injected-unchecked"])
def test_warm_run_writes_nothing_into_shared_meta(tmp_path, inject, check):
    workload = ALL_WORKLOADS["cpu-prime"]
    cold, _, _ = _workload_run(workload, tmp_path)
    _, on_disk = _read_store(tmp_path)
    disk_meta = {(entry["pc"], entry["mmu_idx"]): entry["meta"]
                 for entry in on_disk["entries"]}

    warm, loader, _ = _workload_run(workload, tmp_path, inject=inject,
                                    check=check, profiler=Profiler())
    assert warm.uart.text == cold.uart.text
    assert loader.loaded > 0
    assert (warm.stats().get("engine.check_tbs", 0) > 0) == check
    for key, entry in loader._entries.items():
        assert entry["sha256"] == entry_checksum(entry), key
        assert entry["meta"] == disk_meta[key], key


# ---------------------------------------------------------------------------
# Entries whose checksums hold but whose content the loader refuses.
# ---------------------------------------------------------------------------

def _read_store(root):
    store_dir = iter_store_dirs(str(root))[0]
    with open(os.path.join(store_dir, "entries.json")) as handle:
        return store_dir, json.load(handle)


def _write_store(store_dir, payload, indent=None, version=FORMAT_VERSION):
    """Write *payload* and a manifest of *version* whose payload
    checksum matches it."""
    text = json.dumps(payload, sort_keys=True, indent=indent) + "\n"
    with open(os.path.join(store_dir, "entries.json"), "w") as handle:
        handle.write(text)
    manifest_path = os.path.join(store_dir, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format_version"] = version
    manifest["fingerprint"]["format_version"] = version
    manifest["payload_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)


def _restamp(root, mutate):
    """Apply *mutate* to the store's entry list (it returns the entry
    it changed), then re-stamp the entry and payload checksums."""
    store_dir, payload = _read_store(root)
    entry = mutate(payload["entries"])
    entry["sha256"] = entry_checksum(entry)
    _write_store(store_dir, payload)
    return store_dir, entry


def _bogus_helper_kind(entries):
    for entry in entries:
        for index, token in enumerate(entry["code"]):
            fields = token.split(SEP)
            if fields[5]:
                fields[5] = "bogus" + fields[5][fields[5].index(","):]
                entry["code"][index] = SEP.join(fields)
                return entry
    raise AssertionError("no helper call in the store")


def _extra_field(entries):
    entries[0]["code"][0] += SEP
    return entries[0]


def _unknown_op(entries):
    entries[0]["code"][0] = "BOGUS" + entries[0]["code"][0][
        entries[0]["code"][0].index(SEP):]
    return entries[0]


def _assert_refused_and_identical(tmp_path, cold, cold_loader):
    warm, warm_loader = _machine(tmp_path)
    assert _run(warm, warm_loader) == 0
    assert warm.stats()["cache.tb_corrupt"] == 1
    assert warm_loader.evicted >= 1 and warm_loader.fresh >= 1
    assert warm_loader.loaded == cold_loader.saved - 1
    assert _final_state(warm) == _final_state(cold)
    assert _deterministic_stats(warm) == _deterministic_stats(cold)


def test_verify_resolves_helper_specs(tmp_path, capsys):
    """A helper spec the loader cannot resolve fails verify too."""
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    _, entry = _restamp(tmp_path, _bogus_helper_kind)

    assert main(["cache", "verify", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"entry 0x{entry['pc']:08x}: bad host code" in out
    assert "unresolvable helper spec" in out
    _assert_refused_and_identical(tmp_path, cold, cold_loader)


@pytest.mark.parametrize("mutate", [_extra_field, _unknown_op])
def test_malformed_token_is_corrupt_not_executed(tmp_path, mutate):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    store_dir, entry = _restamp(tmp_path, mutate)

    problems = verify_store(store_dir)
    assert len(problems) == 1
    assert problems[0].startswith(f"entry 0x{entry['pc']:08x}: bad host code")
    _assert_refused_and_identical(tmp_path, cold, cold_loader)


# ---------------------------------------------------------------------------
# Format versioning.
# ---------------------------------------------------------------------------

def _v1_code(token):
    """A v2 token reshaped like v1 code: a dict of non-default fields."""
    names = ("op", "dst", "src", "cond", "label", "helper", "args", "imm",
             "tag", "ti")
    return {name: value for name, value in zip(names, token.split(SEP))
            if value}


def test_v1_store_is_refused_and_rewritten(tmp_path, capsys):
    cold, cold_loader = _machine(tmp_path)
    _run(cold, cold_loader)
    # Rewrite the store as format v1 (indented, dict-encoded code).
    store_dir, payload = _read_store(tmp_path)
    for entry in payload["entries"]:
        entry["code"] = [_v1_code(token) for token in entry["code"]]
        entry["sha256"] = entry_checksum(entry)
    _write_store(store_dir, payload, indent=1, version=1)

    again, loader = _machine(tmp_path)
    assert f"format version 1 != {FORMAT_VERSION}" in loader.problems
    assert len(loader) == 0
    assert _run(again, loader) == 0
    assert loader.loaded == 0 and loader.saved == cold_loader.saved
    assert _final_state(again) == _final_state(cold)
    assert _deterministic_stats(again) == _deterministic_stats(cold)

    assert FORMAT_VERSION == 2
    assert store_info(store_dir)["format_version"] == 2
    assert verify_store(store_dir) == []
    assert main(["cache", "info", str(tmp_path), "--format", "json"]) == 0
    stores = json.loads(capsys.readouterr().out)["stores"]
    assert [store["format_version"] for store in stores] == [2]
    warm, warm_loader = _machine(tmp_path)
    _run(warm, warm_loader)
    assert warm_loader.loaded == cold_loader.saved
