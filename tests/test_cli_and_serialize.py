"""Tests for the CLI and rulebook serialization."""

import json

import pytest

from repro.__main__ import main
from repro.learning.serialize import (load_rulebook, rulebook_from_dict,
                                      rulebook_to_dict, save_rulebook)
from tests.support import learn_once


@pytest.fixture(scope="module")
def learned():
    return learn_once()


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_rulebook_roundtrip(tmp_path, learned):
    path = tmp_path / "rules.json"
    save_rulebook(learned.rulebook, str(path))
    loaded = load_rulebook(str(path))
    assert len(loaded) == len(learned.rulebook)
    assert loaded._shapes == learned.rulebook._shapes
    assert {rule.guest_pattern for rule in loaded.rules} == \
        {rule.guest_pattern for rule in learned.rulebook.rules}


def test_rulebook_roundtrip_preserves_coverage(learned):
    from repro.guest.asm import assemble
    from repro.guest.decoder import decode

    data = rulebook_to_dict(learned.rulebook)
    loaded = rulebook_from_dict(json.loads(json.dumps(data)))
    program = assemble("    add r0, r1, r2\n    svc #0", base=0)
    insns = [decode(int.from_bytes(program.data[i:i + 4], "little"), i)
             for i in range(0, 8, 4)]
    for insn in insns:
        assert loaded.covers(insn) == learned.rulebook.covers(insn)


def test_rulebook_rejects_unknown_format():
    with pytest.raises(ValueError):
        rulebook_from_dict({"format": 99, "rules": [], "shapes": []})


def test_saved_file_is_plain_json(tmp_path, learned):
    path = tmp_path / "rules.json"
    save_rulebook(learned.rulebook, str(path))
    data = json.loads(path.read_text())
    assert data["format"] == 1
    assert all("guest" in rule and "host" in rule for rule in data["rules"])


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "perlbench" in out and "rules-full" in out and "fig16" in out


def test_cli_run_workload(capsys):
    assert main(["run", "sjeng", "--engine", "tcg"]) == 0
    out = capsys.readouterr().out
    assert "118238" in out           # sjeng's checksum
    assert "cost per guest insn" in out


def test_cli_run_unknown_workload(capsys):
    assert main(["run", "nonesuch"]) == 2


def test_cli_bench_unknown(capsys):
    assert main(["bench", "fig99"]) == 2


def test_cli_exec_file(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
main:
    mov r0, #7
    bl updec
    mov r0, #0
    bl uexit
""")
    assert main(["exec", str(source), "--engine", "rules-base"]) == 0
    assert capsys.readouterr().out.startswith("7\n")


def test_cli_learn_and_save(tmp_path, capsys):
    path = tmp_path / "book.json"
    assert main(["learn", "--save", str(path)]) == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert "parameterized rules" in out


# ---------------------------------------------------------------------------
# The persistent translation cache verb: repro cache info|clear|verify.
# ---------------------------------------------------------------------------

def test_cli_cache_info_on_missing_dir(tmp_path, capsys):
    root = tmp_path / "nonexistent"
    assert main(["cache", "info", str(root)]) == 0
    assert "translation cache" in capsys.readouterr().out
    assert main(["cache", "info", str(root), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"root": str(root), "stores": []}


def test_cli_cache_verify_on_empty_dir_is_ok(tmp_path, capsys):
    assert main(["cache", "verify", str(tmp_path)]) == 0
    assert "0 with problems" in capsys.readouterr().out


def test_cli_cache_lifecycle(tmp_path, capsys):
    """Populate via --cache-dir, then info -> verify -> tamper -> clear."""
    import os

    from repro.cache.store import iter_store_dirs

    root = tmp_path / "tc"
    assert main(["run", "sjeng", "--engine", "rules-full",
                 "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "118238" in out               # sjeng's checksum, unchanged
    assert "cache:" in out and "saved" in out

    # info: one store with entries, both table and JSON forms.
    assert main(["cache", "info", str(root), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["stores"]) == 1
    assert data["stores"][0]["entries"] > 0
    assert data["stores"][0]["bytes"] > 0

    # verify: clean store passes.
    assert main(["cache", "verify", str(root)]) == 0
    assert "ok" in capsys.readouterr().out

    # A warm run loads the store and prints the warm-start line.
    assert main(["run", "sjeng", "--engine", "rules-full",
                 "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "118238" in out
    loaded = int(out.split("cache: ")[1].split(" loaded")[0])
    assert loaded > 0

    # Tamper with one entry: verify must exit non-zero and say why.
    store_dir = iter_store_dirs(str(root))[0]
    entries_path = os.path.join(store_dir, "entries.json")
    with open(entries_path) as handle:
        payload = json.load(handle)
    payload["entries"][0]["words"][0] ^= 2
    with open(entries_path, "w") as handle:
        json.dump(payload, handle)
    assert main(["cache", "verify", str(root)]) == 1
    assert "CORRUPT" in capsys.readouterr().out
    assert main(["cache", "verify", str(root), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any("checksum mismatch" in problem
               for store in report["stores"]
               for problem in store["problems"])

    # The engine refuses the tampered entry but the run still succeeds.
    assert main(["run", "sjeng", "--engine", "rules-full",
                 "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "118238" in out
    assert "1 corrupt" in out

    # clear: removes the store; a second clear is a no-op.
    assert main(["cache", "clear", str(root)]) == 0
    assert "removed 1 store(s)" in capsys.readouterr().out
    assert iter_store_dirs(str(root)) == []
    assert main(["cache", "clear", str(root)]) == 0
    assert "removed 0 store(s)" in capsys.readouterr().out


def test_cli_cache_rejects_bad_action(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cache", "frobnicate", "/tmp/x"])
    assert info.value.code == 2
