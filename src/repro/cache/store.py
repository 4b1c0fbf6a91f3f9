"""On-disk store for persisted rules-tier translation blocks.

Layout (one *store* per context fingerprint, see
:mod:`repro.cache.fingerprint`)::

    <cache-dir>/
        <fingerprint-key>/
            manifest.json     schema, format version, fingerprint, counts
            entries.json      serialized TBs keyed by (pc, mmu_idx)

Every entry carries its exact guest machine words (address-ordered) and
a per-entry integrity checksum; the manifest carries a whole-payload
checksum.  Writes are atomic (temp file + ``os.replace``), so a killed
run never leaves a half-written store — at worst a stale one, which the
next run's load-time validation evicts entry by entry.

Serialization notes:

- Each host instruction is one string token of ten ``SEP``-separated
  fields (see :func:`encode_insn`; an empty field is the default).
  ``helper`` callables serialize as the ``persist`` spec stamped by the
  factories in :mod:`repro.miniqemu.helpers` — a TB whose code calls a
  helper without a spec (e.g. one injected by the fault injector), or
  whose label or tag contains ``SEP``, is simply not persistable.
- ``entries.json`` is compact JSON, so ``json.dumps`` runs on the C
  encoder; the loader parses each distinct token once per run, and
  revived TBs share the instruction of each helper-free token (see
  :func:`decode_code`).
- ``meta`` is persisted as-is (it is JSON-friendly by design: the
  sync-site counters and the audit/justification records are plain
  dicts), except the run-local ``provenance`` tag.  ``words`` are in
  address order; when scheduling reordered the block, its ``reorder``
  justification is the only record of the emitted order, and the
  loader orders the revived ``guest_insns`` from it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..host.isa import Imm, Mem, Reg, X86Cond, X86Insn, X86Op, Xmm
from ..miniqemu.helpers import (make_exception_return_helper, make_ld_helper,
                                make_st_helper, make_svc_helper,
                                make_sysreg_helper, make_undef_helper,
                                make_vfp_helper)
from .fingerprint import (FORMAT_VERSION, SCHEMA, entry_checksum,
                          fingerprint_key)

#: meta key not persisted: where this run got the TB from.
PROVENANCE_KEY = "provenance"


class UnpersistableTB(Exception):
    """This TB cannot be represented in the store (not a data error)."""


# ---------------------------------------------------------------------------
# Host-code serialization: one token per instruction.
# ---------------------------------------------------------------------------

#: Separates the ten fields of a host-instruction token.
SEP = " "

_OPERANDS = {"r": Reg, "i": Imm, "x": Xmm, "n": int}


def _encode_operand(operand: Any) -> str:
    if isinstance(operand, Reg):
        return f"r{operand.number}"
    if isinstance(operand, Mem):
        base, index = operand.base, operand.index
        return (f"m{'' if base is None else base},{operand.disp},"
                f"{'' if index is None else index},{operand.scale},"
                f"{operand.size}")
    if isinstance(operand, Imm):
        return f"i{operand.value}"
    if isinstance(operand, Xmm):
        return f"x{operand.number}"
    if isinstance(operand, int):
        return f"n{int(operand)}"
    raise UnpersistableTB(f"operand {operand!r}")


def _decode_operand(text: str) -> Any:
    if not text:
        return None
    if text[0] == "m":
        base, disp, index, scale, size = text[1:].split(",")
        return Mem(int(base) if base else None, int(disp),
                   int(index) if index else None, int(scale), int(size))
    return _OPERANDS[text[0]](int(text[1:]))


def _encode_text(value: str, what: str) -> str:
    if not value or SEP in value:
        raise UnpersistableTB(f"{what} {value!r} is empty or contains "
                              f"{SEP!r}")
    return value


def encode_insn(insn: X86Insn) -> str:
    """One host instruction as a token: ``op dst src cond label helper
    args imm tag target_index``, with an empty field for a default."""
    spec = ""
    if insn.helper is not None:
        persist = getattr(insn.helper, "persist", None)
        if persist is None:
            raise UnpersistableTB(
                f"helper {getattr(insn.helper, '__name__', '?')} has no "
                f"persist spec")
        spec = ",".join([persist[0], *(str(int(v)) for v in persist[1:])])
    args = insn.helper_args
    return SEP.join((
        insn.op._name_,
        "" if insn.dst is None else _encode_operand(insn.dst),
        "" if insn.src is None else _encode_operand(insn.src),
        "" if insn.cond is None else insn.cond._name_,
        "" if insn.label is None else _encode_text(insn.label, "label"),
        spec,
        ";".join(map(_encode_operand, args)) if args else "",
        str(insn.imm) if insn.imm else "",
        "" if insn.tag == "code" else _encode_text(insn.tag, "tag"),
        "" if insn.target_index == -1 else str(insn.target_index),
    ))


#: Enum members by name, hoisted out of the per-instruction decode.
_X86_OPS = {op.name: op for op in X86Op}
_X86_CONDS = {cond.name: cond for cond in X86Cond}


#: Parsed tokens of one run: token -> (instruction, helper spec or None).
TokenMemo = Dict[str, Tuple[X86Insn, Optional[Tuple[Any, ...]]]]


def _parse_token(token: str) -> Tuple[X86Insn, Optional[Tuple[Any, ...]]]:
    """A token's instruction (without its helper) and helper spec."""
    fields = token.split(SEP) if isinstance(token, str) else ()
    if len(fields) != 10:
        raise ValueError(f"bad host insn token {token!r}")
    op, dst, src, cond, label, spec, args, imm, tag, target = fields
    if spec:
        kind, *numbers = spec.split(",")
        spec = (kind, *map(int, numbers))
    insn = X86Insn(
        _X86_OPS[op], _decode_operand(dst), _decode_operand(src),
        _X86_CONDS[cond] if cond else None, label or None, None,
        tuple(map(_decode_operand, args.split(";"))) if args else (),
        int(imm) if imm else 0, tag or "code",
        int(target) if target else -1)
    return insn, spec or None


def decode_code(tokens: List[str], by_addr: Dict[int, Any],
                memo: TokenMemo) -> List[X86Insn]:
    """Rebuild a TB's host code from its tokens.

    Revived code is read-only.  Every helper-free instruction is one
    ``X86Insn`` per distinct token, shared through *memo* by every TB
    decoded with it; an instruction that calls a helper is built per
    TB, its helper resolved against the TB's decoded guest instructions
    *by_addr*.  The one writer of host instructions after translation,
    the fault injector, copies the instructions it edits."""
    code = []
    for token in tokens:
        parsed = memo.get(token)
        if parsed is None:
            parsed = memo[token] = _parse_token(token)
        insn, spec = parsed
        if spec is not None:
            insn = replace(insn, helper=resolve_helper(spec, by_addr))
        code.append(insn)
    return code


_INSN_HELPER_FACTORIES = {
    "sysreg": make_sysreg_helper,
    "vfp": make_vfp_helper,
    "svc": make_svc_helper,
    "eret": make_exception_return_helper,
    "undef": make_undef_helper,
}


def resolve_helper(spec: Tuple[Any, ...], by_addr: Dict[int, Any]):
    """Persist spec (see repro.miniqemu.helpers) -> live callable."""
    kind = spec[0]
    if kind == "ld":
        return make_ld_helper(spec[1], bool(spec[2]), spec[3], spec[4])
    if kind == "st":
        return make_st_helper(spec[1], spec[2], spec[3])
    factory = _INSN_HELPER_FACTORIES.get(kind)
    insn = by_addr.get(spec[1]) if len(spec) > 1 else None
    if factory is None or insn is None:
        raise ValueError(f"unresolvable helper spec {spec!r}")
    return factory(insn)


# ---------------------------------------------------------------------------
# TB -> entry.
# ---------------------------------------------------------------------------


def serialize_tb(tb) -> Dict[str, Any]:
    """Serialize one rules-tier TB to a checksummed entry dict.

    Raises :class:`UnpersistableTB` for blocks the store cannot
    represent (non-rules tier, injected instrumentation, helpers
    without persist specs, instructions without raw words)."""
    meta = tb.meta
    if meta.get("tier") != "rules":
        raise UnpersistableTB(f"tier {meta.get('tier')!r}")
    if meta.get("injected") or meta.get("unpersistable"):
        raise UnpersistableTB("fault-injected TB")
    by_addr = sorted(tb.guest_insns, key=lambda insn: insn.addr)
    words: List[int] = []
    for index, insn in enumerate(by_addr):
        if insn.raw is None:
            raise UnpersistableTB(f"no raw word at 0x{insn.addr:08x}")
        if insn.addr != tb.pc + 4 * index:
            raise UnpersistableTB("non-contiguous guest block")
        words.append(insn.raw)
    entry: Dict[str, Any] = {
        "pc": tb.pc,
        "mmu_idx": tb.mmu_idx,
        "words": words,
        "code": [encode_insn(insn) for insn in tb.code],
        "jmp_pc": list(tb.jmp_pc),
    }
    meta_blob = {key: value for key, value in meta.items()
                 if key != PROVENANCE_KEY}
    try:
        entry["meta"] = json.loads(json.dumps(meta_blob))
    except (TypeError, ValueError) as error:
        raise UnpersistableTB(f"non-JSON meta: {error}") from None
    entry["sha256"] = entry_checksum(entry)
    return entry


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------


class CacheStore:
    """One fingerprint-keyed store directory under ``--cache-dir``."""

    def __init__(self, root: str, fingerprint: Dict[str, Any]):
        self.root = root
        self.fingerprint = fingerprint
        self.key = fingerprint_key(fingerprint)
        self.directory = os.path.join(root, self.key)

    # -- reading ------------------------------------------------------------

    def load(self) -> Tuple[Dict[Tuple[int, int], Dict[str, Any]],
                            List[str]]:
        """Read all entries; returns ``(entries, problems)``.

        Unreadable or mismatched stores return no entries (the engine
        falls back to fresh translation); per-entry integrity is
        checked by the loader at attach (``CacheLoader.load_index``)."""
        manifest = _read_json(os.path.join(self.directory,
                                           "manifest.json"))
        if manifest is None:
            return {}, []
        problems = _check_manifest(manifest, expect_fingerprint=self.fingerprint)
        if problems:
            return {}, problems
        payload = _read_json(os.path.join(self.directory, "entries.json"))
        if payload is None or not isinstance(payload.get("entries"), list):
            return {}, ["entries.json missing or malformed"]
        entries: Dict[Tuple[int, int], Dict[str, Any]] = {}
        for entry in payload["entries"]:
            try:
                entries[(int(entry["pc"]), int(entry["mmu_idx"]))] = entry
            except (KeyError, TypeError, ValueError):
                problems.append("entry without pc/mmu_idx")
        return entries, problems

    # -- writing ------------------------------------------------------------

    def save(self, entries: Dict[Tuple[int, int], Dict[str, Any]]) -> None:
        """Atomically write the store (manifest + entries)."""
        os.makedirs(self.directory, exist_ok=True)
        ordered = [entries[key] for key in sorted(entries)]
        payload = {"entries": ordered}
        # The trailing newline is part of the checksummed text: verify
        # hashes the file exactly as read.
        # Compact separators and no indent keep ``json.dumps`` on the
        # C encoder (any ``indent`` selects the pure-Python one).
        payload_text = json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n"
        manifest = {
            "schema": SCHEMA,
            "format_version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "entries": len(ordered),
            "payload_sha256": _sha256_text(payload_text),
        }
        _write_atomic(os.path.join(self.directory, "entries.json"),
                      payload_text)
        _write_atomic(os.path.join(self.directory, "manifest.json"),
                      json.dumps(manifest, sort_keys=True, indent=1)
                      + "\n")


# ---------------------------------------------------------------------------
# Store maintenance (the ``repro cache`` CLI verb).
# ---------------------------------------------------------------------------


def iter_store_dirs(root: str) -> List[str]:
    """Every store directory under *root* (a directory with a manifest)."""
    if not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        directory = os.path.join(root, name)
        if os.path.isfile(os.path.join(directory, "manifest.json")):
            found.append(directory)
    return found


def store_info(directory: str) -> Dict[str, Any]:
    """Summary dict for one store (the ``cache info`` payload)."""
    manifest = _read_json(os.path.join(directory, "manifest.json")) or {}
    size = 0
    for name in ("manifest.json", "entries.json"):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            size += os.path.getsize(path)
    return {
        "key": os.path.basename(directory),
        "entries": manifest.get("entries", 0),
        "format_version": manifest.get("format_version"),
        "fingerprint": manifest.get("fingerprint", {}),
        "bytes": size,
    }


def verify_store(directory: str) -> List[str]:
    """Deep integrity check of one store; returns problem strings.

    Checks the manifest schema, the payload checksum, every entry's
    checksum, and that every entry decodes the way the loader decodes
    it (guest words through the ARM decoder, host code through
    :func:`decode_code`, every helper spec resolved against the
    entry's own guest instructions).  A non-empty result means the
    store is tampered or corrupt; the engine's load path independently
    refuses such entries.
    """
    from ..common.errors import DecodingError
    from ..guest.decoder import decode

    problems: List[str] = []
    manifest = _read_json(os.path.join(directory, "manifest.json"))
    if manifest is None:
        return ["manifest.json missing or unreadable"]
    problems += _check_manifest(manifest)
    entries_path = os.path.join(directory, "entries.json")
    try:
        with open(entries_path) as handle:
            payload_text = handle.read()
        payload = json.loads(payload_text)
    except (OSError, ValueError) as error:
        return problems + [f"entries.json unreadable: {error}"]
    if manifest.get("payload_sha256") != _sha256_text(payload_text):
        problems.append("payload checksum mismatch (tampered store)")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return problems + ["entries.json malformed"]
    if isinstance(manifest.get("entries"), int) and \
            manifest["entries"] != len(entries):
        problems.append(f"manifest says {manifest['entries']} entries, "
                        f"store has {len(entries)}")
    memo: TokenMemo = {}
    for entry in entries:
        label = f"entry 0x{entry.get('pc', 0):08x}"
        if entry.get("sha256") != entry_checksum(entry):
            problems.append(f"{label}: checksum mismatch")
            continue
        by_addr = {}
        for index, word in enumerate(entry.get("words", ())):
            try:
                insn = decode(word, int(entry["pc"]) + 4 * index)
            except DecodingError:
                problems.append(f"{label}: word {index} undecodable")
                break
            by_addr[insn.addr] = insn
        else:
            try:
                decode_code(entry.get("code", ()), by_addr, memo)
            except (KeyError, ValueError, TypeError, IndexError) as error:
                problems.append(f"{label}: bad host code: {error}")
    return problems


def clear_stores(root: str) -> int:
    """Delete every store under *root*; returns the number removed."""
    import shutil

    removed = 0
    for directory in iter_store_dirs(root):
        shutil.rmtree(directory, ignore_errors=True)
        removed += 1
    return removed


# ---------------------------------------------------------------------------
# Internals.
# ---------------------------------------------------------------------------


def _check_manifest(manifest: Dict[str, Any],
                    expect_fingerprint: Optional[Dict[str, Any]] = None
                    ) -> List[str]:
    problems = []
    if manifest.get("schema") != SCHEMA:
        problems.append(f"schema {manifest.get('schema')!r} != {SCHEMA!r}")
    if manifest.get("format_version") != FORMAT_VERSION:
        problems.append(f"format version {manifest.get('format_version')!r}"
                        f" != {FORMAT_VERSION}")
    if expect_fingerprint is not None and \
            manifest.get("fingerprint") != expect_fingerprint:
        problems.append("fingerprint mismatch")
    return problems


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def _sha256_text(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
