"""Host-IR dataflow verification of CPU-state coordination.

This is the core of ``repro check``: a forward abstract interpretation
over the emitted host code of one translation block, proving that the
coordination protocol of Sec III-B/III-C was applied soundly:

- every point where control may reach QEMU (helper call, softmmu slow
  path, interrupt check, TB exit, chain edge) is dominated by a
  sync-save, *or* carries a justification record the checker can
  independently re-derive;
- no instruction destroys the live guest CCR while ``env`` holds only a
  stale copy ("lost-ccr");
- every sync-save/restore range has exactly the protocol shape (packed
  3-instruction save, parsed per-bit save, packed/parsed restores) and
  executes in a state where its source representation is current;
- the lazy-save validity marker (``env.packed_valid``) is never left
  claiming a stale packed word;
- guest registers cached in host registers are never written back to
  ``env`` after a helper may have updated their slots ("stale
  writeback" — the missing-``cache.invalidate()`` bug class).

The abstract state tracks:

``eflags``
    where the live CCR is: ``"junk"`` (not in EFLAGS), ``"direct"`` or
    ``"inverted"`` (in EFLAGS, in the named carry convention);
``packed_ok`` / ``parsed_ok``
    whether ``env``'s packed word / per-bit fields hold the live CCR;
``valid``
    abstract value of ``env.packed_valid`` (0, 1, or None = unknown);
``live``
    NZCV mask of flags whose *latest* values may exist only in EFLAGS
    (stale ``env`` is an error only when this is non-zero — flags the
    block definitely rewrites before any observation may go unsaved);
``regs``
    host-register residency: mappings established by loads from the
    env register file, invalidated on overwrite, marked *stale* when a
    helper may have rewritten env.

The walk is anchored by the translator's audit events
(:mod:`.justify`): save/restore/produce/fallback ranges are verified as
units against the expected emission shapes, so the checker never has to
guess which host flag-write is a guest flag *production* versus a
scratch clobber.  Everything the translator *claims* (elisions, chain
edges, reorders) is re-derived independently; a claim that cannot be
reproduced is a finding, never a waiver.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.analysis import F_ALL
from ..host.isa import ENV_REG, Imm, Mem, Reg, X86Cond, X86Insn, X86Op
from ..host.ops import ROWS
from ..miniqemu.env import (ENV_CF, ENV_NF, ENV_PACKED_FLAGS,
                            ENV_PACKED_VALID, ENV_REGS, ENV_VF, ENV_ZF)
from ..miniqemu.tb import EXIT_PC_UPDATED
from .findings import Finding, Severity
from .justify import (EV_FALLBACK, EV_PRODUCE, EV_RESTORE, EV_SAVE,
                      EV_TERMINAL, J_ELIDE_SAVE, J_INTER_TB, J_REORDER,
                      audit_of, justifications_of)

# EFLAGS abstract locations.
JUNK = "junk"
DIRECT = "direct"
INVERTED = "inverted"

#: host ops that overwrite the EFLAGS condition bits (CMC's carry flip
#: is modelled on its own)
_CLOBBERS_EFLAGS = frozenset(op for op, row in ROWS.items()
                             if row.writes and op is not X86Op.CMC)

#: host ops whose Reg dst is (fully or partially) rewritten
_WRITES_DST_REG = frozenset(op for op, row in ROWS.items() if row.writes_dst)

_FLAG_FIELD_OFFSETS = frozenset(
    {ENV_NF, ENV_ZF, ENV_CF, ENV_VF, ENV_PACKED_FLAGS, ENV_PACKED_VALID})

_PARSED_SAVE_FIELDS = ((X86Cond.S, ENV_NF), (X86Cond.E, ENV_ZF),
                       (X86Cond.B, ENV_CF), (X86Cond.O, ENV_VF))

# Residency states.
_CLEAN = "clean"
_STALE = "stale"


class _State:
    """One abstract machine state (mutable; copied at CFG splits)."""

    __slots__ = ("eflags", "packed_ok", "parsed_ok", "valid", "live",
                 "regs", "waived")

    def __init__(self, eflags: str = JUNK, packed_ok: bool = False,
                 parsed_ok: bool = True, valid: Optional[int] = None,
                 live: int = F_ALL,
                 regs: Optional[Dict[int, Tuple[int, str]]] = None,
                 waived: bool = False):
        self.eflags = eflags
        self.packed_ok = packed_ok
        self.parsed_ok = parsed_ok
        self.valid = valid
        self.live = live
        #: host reg -> (guest reg, _CLEAN | _STALE)
        self.regs = regs if regs is not None else {}
        #: an already-validated chain-edge elision covers the EXIT_TB
        #: that backs up its GOTO_TB
        self.waived = waived

    @property
    def env_current(self) -> bool:
        return self.packed_ok or self.parsed_ok

    @property
    def in_eflags(self) -> bool:
        return self.eflags != JUNK

    def copy(self) -> "_State":
        return _State(self.eflags, self.packed_ok, self.parsed_ok,
                      self.valid, self.live, dict(self.regs), self.waived)

    def key(self) -> Tuple:
        return (self.eflags, self.packed_ok, self.parsed_ok, self.valid,
                self.live, tuple(sorted(self.regs.items())), self.waived)

    def join(self, other: "_State") -> "_State":
        """Least upper bound (conservative merge) of two path states."""
        eflags = self.eflags if self.eflags == other.eflags else JUNK
        regs: Dict[int, Tuple[int, str]] = {}
        for host, (guest, status) in self.regs.items():
            theirs = other.regs.get(host)
            if theirs is not None and theirs[0] == guest:
                merged = _STALE if _STALE in (status, theirs[1]) else _CLEAN
                regs[host] = (guest, merged)
        return _State(
            eflags=eflags,
            packed_ok=self.packed_ok and other.packed_ok,
            parsed_ok=self.parsed_ok and other.parsed_ok,
            valid=self.valid if self.valid == other.valid else None,
            live=self.live | other.live,
            regs=regs,
            waived=self.waived and other.waived)


def entry_state(config) -> _State:
    """The translator's TB-entry contract (FlagsState.__init__)."""
    return _State(eflags=JUNK, packed_ok=config.packed_sync,
                  parsed_ok=not config.packed_sync, valid=None, live=F_ALL)


def _is_env_mem(operand, offsets=None) -> bool:
    return (isinstance(operand, Mem) and operand.base == ENV_REG and
            operand.index is None and
            (offsets is None or operand.disp in offsets))


def _env_regfile_slot(operand) -> Optional[int]:
    """Guest register index when *operand* addresses the env reg file."""
    if isinstance(operand, Mem) and operand.base == ENV_REG and \
            operand.index is None and operand.size == 4 and \
            ENV_REGS <= operand.disp < ENV_REGS + 16 * 4 and \
            operand.disp % 4 == 0:
        return (operand.disp - ENV_REGS) // 4
    return None


class TbChecker:
    """Checks one translated TB; collect findings via :meth:`run`."""

    def __init__(self, tb, config,
                 live_in_of: Optional[Callable[[int], int]] = None,
                 include_waivers: bool = False):
        self.tb = tb
        self.config = config
        self.live_in_of = live_in_of
        self.include_waivers = include_waivers
        self.code: List[X86Insn] = tb.code
        self.findings: List[Finding] = []
        events = audit_of(tb.meta or {})
        self.range_at: Dict[int, Dict[str, Any]] = {}
        self.terminal_at: Set[int] = set()
        for event in events:
            if event["kind"] == EV_TERMINAL:
                self.terminal_at.add(event["start"])
            else:
                self.range_at[event["start"]] = event
        self.justify_at: Dict[int, List[Dict[str, Any]]] = {}
        self.reorder_records: List[Dict[str, Any]] = []
        for record in justifications_of(tb.meta or {}):
            if record["kind"] == J_REORDER:
                self.reorder_records.append(record)
            else:
                self.justify_at.setdefault(record["index"], []).append(record)

    # -- reporting ---------------------------------------------------------

    def _report(self, severity: Severity, code: str, message: str,
                index: Optional[int] = None,
                witness: Optional[Dict[str, Any]] = None) -> None:
        self.findings.append(Finding(
            severity=severity, code=code, message=message,
            tb_pc=self.tb.pc, mmu_idx=self.tb.mmu_idx, host_index=index,
            witness=witness))

    def _error(self, code: str, message: str, index: Optional[int] = None,
               witness: Optional[Dict[str, Any]] = None) -> None:
        self._report(Severity.ERROR, code, message, index, witness)

    def _warn(self, code: str, message: str,
              index: Optional[int] = None) -> None:
        self._report(Severity.WARNING, code, message, index)

    # -- entry point -------------------------------------------------------

    def run(self) -> List[Finding]:
        self._check_block_justifications()
        self._check_irq_presence()
        self._walk()
        return self.findings

    # -- block-level justifications ---------------------------------------

    def _check_block_justifications(self) -> None:
        """Replay the block's reorder record against address order.

        A TB's guest instructions are contiguous, so program order is
        address order; ``guest_insns`` holds the emitted order.
        """
        insns = list(self.tb.guest_insns)
        original = sorted(insns, key=lambda insn: insn.addr)
        scheduled_addrs = [insn.addr for insn in insns]
        original_addrs = [insn.addr for insn in original]
        reordered = scheduled_addrs != original_addrs
        for record in self.reorder_records:
            if not reordered or record["original"] != original_addrs or \
                    record["scheduled"] != scheduled_addrs:
                self._error("bad-reorder-justification",
                            "reorder justification does not match the "
                            "block's emitted instruction order",
                            witness={"original": record["original"],
                                     "scheduled": record["scheduled"],
                                     "emitted": scheduled_addrs})
        if not reordered:
            return
        from .reorder import check_reorder, reorder_waivers
        if not self.reorder_records:
            self._error("undeclared-reorder",
                        "block is out of address order but carries no "
                        "reorder justification")
        for violation in check_reorder(original, insns):
            self._error(violation["code"], violation["message"],
                        witness=violation.get("witness"))
        if self.include_waivers:
            for waiver in reorder_waivers(original, insns):
                self._report(Severity.INFO, waiver["code"],
                             waiver["message"])

    def _check_irq_presence(self) -> None:
        if any(insn.tag == "irqcheck" and insn.op is X86Op.CMP
               for insn in self.code):
            return
        self._warn("missing-irq-check",
                   "no interrupt check found anywhere in the TB")

    # -- the walk ----------------------------------------------------------

    def _walk(self) -> None:
        if not self.code:
            return
        states: Dict[int, _State] = {}
        seen: Dict[int, set] = {}
        worklist: List[Tuple[int, _State]] = [(0, entry_state(self.config))]
        # Findings are deduplicated per (index, code): revisiting an
        # instruction under a worse joined state must not double-report.
        reported: Set[Tuple[Optional[int], str]] = set()
        guard = 0
        limit = 64 * (len(self.code) + 8)

        while worklist:
            guard += 1
            if guard > limit:  # join lattice is finite; this is a backstop
                self._warn("walk-divergence",
                           "abstract interpretation failed to converge")
                break
            index, state = worklist.pop()
            if index >= len(self.code):
                continue
            joined = states.get(index)
            if joined is not None:
                merged = joined.join(state)
                if merged.key() in seen.setdefault(index, set()):
                    continue
                state = merged
            states[index] = state
            seen.setdefault(index, set()).add(state.key())

            before = len(self.findings)
            successors = self._transfer(index, state)
            for finding in self.findings[before:]:
                dedup = (finding.host_index, finding.code)
                if dedup in reported:
                    self.findings.remove(finding)
                else:
                    reported.add(dedup)
            for succ_index, succ_state in successors:
                worklist.append((succ_index, succ_state))

    def _transfer(self, index: int,
                  state: _State) -> List[Tuple[int, _State]]:
        state = state.copy()
        for record in self.justify_at.get(index, ()):
            if record["kind"] == J_ELIDE_SAVE:
                if not state.env_current:
                    self._error(
                        "bad-elide-justification",
                        "save elided claiming env currency, but neither "
                        "representation holds the live CCR", index)

        event = self.range_at.get(index)
        if event is not None:
            return self._transfer_range(index, event, state)
        return self._transfer_insn(index, state)

    # -- audit ranges -------------------------------------------------------

    def _transfer_range(self, index: int, event: Dict[str, Any],
                        state: _State) -> List[Tuple[int, _State]]:
        end = event["end"]
        kind = event["kind"]
        if not (index < end <= len(self.code)):
            self._error("bad-audit-range",
                        f"{kind} event range [{index}, {end}) is outside "
                        f"the {len(self.code)}-instruction TB", index)
            return []
        body = self.code[index:end]

        if kind == EV_SAVE:
            self._verify_save(index, event, body, state)
        elif kind == EV_RESTORE:
            self._verify_restore(index, event, body, state)
        elif kind == EV_PRODUCE:
            self._verify_produce(index, event, state)
        elif kind == EV_FALLBACK:
            self._verify_fallback(index, event, state)
        else:
            self._error("bad-audit-range",
                        f"unknown audit event kind {kind!r}", index)

        if kind == EV_FALLBACK:
            # Spliced code invalidates all residency knowledge.
            state.regs = {}
        else:
            # Coordination/producer bodies contain register-cache traffic
            # (loads, evictions); track it so later mappings stay exact.
            for offset, insn in enumerate(body):
                self._residency(index + offset, insn, state)

        if kind == EV_FALLBACK and event.get("ended"):
            return []
        return [(end, state)]

    def _verify_save(self, index: int, event: Dict[str, Any],
                     body: List[X86Insn], state: _State) -> None:
        if not state.in_eflags:
            self._error("save-junk",
                        "sync-save while EFLAGS does not hold the live "
                        "CCR: the saved word is garbage", index)
        has_cmc = bool(body) and body[0].op is X86Op.CMC
        if state.in_eflags and has_cmc != (state.eflags == INVERTED):
            self._error("malformed-save",
                        "carry canonicalization mismatch: save "
                        f"{'has' if has_cmc else 'lacks'} a cmc but the "
                        f"CCR convention is {state.eflags}", index)
        shape = body[1:] if has_cmc else body
        mode = event["mode"]
        if mode == "packed":
            ok = (len(shape) == 3 and
                  shape[0].op is X86Op.PUSHFD and
                  shape[1].op is X86Op.POP and
                  _is_env_mem(shape[1].dst, {ENV_PACKED_FLAGS}) and
                  shape[2].op is X86Op.MOV and
                  _is_env_mem(shape[2].dst, {ENV_PACKED_VALID}) and
                  shape[2].src == Imm(1))
            if not ok:
                self._error("malformed-save",
                            "packed save is not the pushfd/pop/valid=1 "
                            "sequence", index,
                            witness={"insns": [str(i) for i in body]})
            state.packed_ok = True
            state.valid = 1
        elif mode == "parsed":
            setccs = shape[:4]
            ok = len(setccs) == 4 and all(
                insn.op is X86Op.SETCC and insn.cond is cond and
                _is_env_mem(insn.dst, {offset})
                for insn, (cond, offset) in zip(setccs, _PARSED_SAVE_FIELDS))
            rest = shape[4:]
            if self.config.packed_sync:
                ok = ok and len(rest) == 1 and rest[0].op is X86Op.MOV and \
                    _is_env_mem(rest[0].dst, {ENV_PACKED_VALID}) and \
                    rest[0].src == Imm(0)
            else:
                ok = ok and not rest
            if not ok:
                self._error("malformed-save",
                            "parsed save is not the 4-setcc per-bit "
                            "sequence", index,
                            witness={"insns": [str(i) for i in body]})
            state.parsed_ok = True
            if self.config.packed_sync:
                state.packed_ok = False
                state.valid = 0
        else:
            self._error("malformed-save", f"unknown save mode {mode!r}",
                        index)
        if state.in_eflags:
            state.eflags = DIRECT  # the cmc (if any) canonicalized

    def _verify_restore(self, index: int, event: Dict[str, Any],
                        body: List[X86Insn], state: _State) -> None:
        mode = event["mode"]
        if mode == "packed":
            if not state.packed_ok:
                self._error("restore-stale",
                            "packed restore reloads env.packed, which "
                            "does not hold the live CCR", index)
            ok = (len(body) == 2 and body[0].op is X86Op.PUSH and
                  _is_env_mem(body[0].src, {ENV_PACKED_FLAGS}) and
                  body[1].op is X86Op.POPFD)
            if not ok:
                self._error("malformed-restore",
                            "packed restore is not push/popfd", index,
                            witness={"insns": [str(i) for i in body]})
        elif mode == "parsed":
            if not state.parsed_ok:
                self._error("restore-stale",
                            "parsed restore rebuilds from per-bit fields "
                            "that do not hold the live CCR", index)
            ok = (len(body) == 12 and
                  body[0].op is X86Op.MOV and
                  _is_env_mem(body[0].src, {ENV_VF}) and
                  body[-2].op is X86Op.PUSH and
                  body[-1].op is X86Op.POPFD and
                  sum(1 for i in body if i.op is X86Op.SHL) == 3 and
                  sum(1 for i in body if i.op is X86Op.OR) == 3)
            if not ok:
                self._error("malformed-restore",
                            "parsed restore is not the 12-instruction "
                            "EFLAGS rebuild", index,
                            witness={"insns": [str(i) for i in body]})
        else:
            self._error("malformed-restore",
                        f"unknown restore mode {mode!r}", index)
        state.eflags = DIRECT

    def _verify_produce(self, index: int, event: Dict[str, Any],
                        state: _State) -> None:
        if event["partial"] and not state.in_eflags:
            self._error(
                "partial-producer-stale",
                "partial flag producer (N/Z only) executes over junk "
                "C/V in EFLAGS: untouched live flags are lost", index)
        carry = event["carry"]
        if carry is None:
            # N/Z-only producer: C/V keep their previous convention.
            state.eflags = state.eflags if state.in_eflags else DIRECT
        else:
            state.eflags = DIRECT if carry == "direct" else INVERTED
        state.packed_ok = False
        state.parsed_ok = False
        state.live = event["live_after"]

    def _verify_fallback(self, index: int, event: Dict[str, Any],
                         state: _State) -> None:
        reads, writes = event["reads"], event["writes"]
        if (reads or writes not in (0, F_ALL)) and not state.parsed_ok:
            self._error("fallback-stale",
                        "spliced QEMU-style code reads/partially updates "
                        "the per-bit flag fields, which are stale", index)
        self._clobber(index, state)
        if writes:
            state.parsed_ok = True
            state.packed_ok = False
            state.valid = 0

    # -- per-instruction transfer -------------------------------------------

    def _transfer_insn(self, index: int,
                       state: _State) -> List[Tuple[int, _State]]:
        insn = self.code[index]
        op = insn.op

        if op is X86Op.CMC:
            if state.eflags == DIRECT:
                state.eflags = INVERTED
            elif state.eflags == INVERTED:
                state.eflags = DIRECT
            return self._fallthrough(index, state)

        if op is X86Op.JMP:
            return [(insn.target_index, state)]
        if op is X86Op.JCC:
            # Deliberate gap: jcc *reads* of EFLAGS are not checked — the
            # probe/clz jcc's read scratch comparisons, and telling those
            # apart from guest condition tests needs the condmap replay
            # that skip_sequence already embodies.
            return [(insn.target_index, state.copy()),
                    (index + 1, state)]
        if op is X86Op.EXIT_TB:
            self._check_handoff(index, state, "exit_tb")
            if insn.imm == EXIT_PC_UPDATED and not state.waived and \
                    not self._saved_for_successor(state):
                self._error(
                    "stale-packed-exit",
                    "TB exit to a successor while env.packed is stale: "
                    "its entry restore reloads the packed word without "
                    "checking env.packed_valid", index)
            return []
        if op is X86Op.GOTO_TB:
            self._check_chain_edge(index, state)
            return self._fallthrough(index, state)
        if op is X86Op.CALL_HELPER:
            self._transfer_helper(index, insn, state)
            if index in self.terminal_at:
                return []
            return self._fallthrough(index, state)

        if op in _CLOBBERS_EFLAGS:
            self._clobber(index, state)

        self._check_env_flag_write(index, insn)
        self._residency(index, insn, state)
        return self._fallthrough(index, state)

    def _fallthrough(self, index: int,
                     state: _State) -> List[Tuple[int, _State]]:
        if index + 1 < len(self.code):
            return [(index + 1, state)]
        return []

    def _clobber(self, index: int, state: _State) -> None:
        """EFLAGS is about to be overwritten by non-producer code."""
        if state.in_eflags and not state.env_current and state.live:
            self._error(
                "lost-ccr",
                "live guest CCR in EFLAGS destroyed without a sync-save "
                f"(live mask {state.live:#x})", index,
                witness={"insn": str(self.code[index])})
        state.eflags = JUNK
        state.waived = False

    def _transfer_helper(self, index: int, insn: X86Insn,
                         state: _State) -> None:
        self._check_handoff(index, state, f"helper ({insn.tag})")
        if insn.tag == "mmu":
            # softmmu slow path: reads/writes guest memory, leaves env
            # registers and flag fields alone.
            return
        # General helpers may rewrite any env field; repack_flags leaves
        # both flag representations current but marks packed invalid.
        state.eflags = JUNK
        state.packed_ok = True
        state.parsed_ok = True
        state.valid = 0
        state.regs = {host: (guest, _STALE)
                      for host, (guest, _) in state.regs.items()}

    def _check_handoff(self, index: int, state: _State, what: str) -> None:
        """Control may leave the TB here: env must be coordinated."""
        if state.valid == 1 and not state.packed_ok and state.live \
                and not state.waived:
            # A dead (live == 0) or waived (successor defines-before-use)
            # stale-but-valid packed word is benign: anything a helper
            # materializes from it is overwritten before the guest can
            # observe it (same waiver as the stale-env check below).
            self._error(
                "valid-stale",
                f"handoff to {what} with env.packed_valid=1 but a stale "
                "packed word: helpers would materialize garbage flags",
                index)
        if state.env_current or state.waived:
            return
        if state.live:
            self._error(
                "env-stale-handoff",
                f"handoff to {what} while env holds stale flags "
                f"(live mask {state.live:#x})", index)
        # live == 0: the block definitely rewrites these flags before
        # any in-block observation; the stale window is the documented
        # interrupt-observability imprecision (docs/soundness.md).

    def _check_chain_edge(self, index: int, state: _State) -> None:
        records = [r for r in self.justify_at.get(index, ())
                   if r["kind"] == J_INTER_TB]
        if self._saved_for_successor(state):
            return  # saved edge; a (redundant) justification is harmless
        if records:
            record = records[0]
            target_pc = record["target_pc"]
            if not self.config.inter_tb:
                self._error(
                    "bad-inter-tb-justification",
                    "chain-edge save elided with the inter-TB "
                    "optimization disabled", index)
                return
            actual = self._successor_live_in(target_pc)
            if actual is None:
                self._error(
                    "bad-inter-tb-justification",
                    f"cannot re-derive successor {target_pc:#x} live-in "
                    "to validate the elision", index)
            elif actual != 0:
                self._error(
                    "bad-inter-tb-justification",
                    f"successor {target_pc:#x} live-in is {actual:#x}, "
                    "not 0: it does not define every flag before use",
                    index,
                    witness={"claimed": record["live_in"],
                             "recomputed": actual})
            else:
                state.waived = True
            return
        if state.live:
            self._error(
                "unjustified-elision",
                "chain edge taken while env holds stale flags and no "
                "inter-TB justification was recorded", index)
        else:
            state.waived = True  # dead-flag edge; covers the backup exit

    def _saved_for_successor(self, state: _State) -> bool:
        """Does env hold the CCR where a successor TB reads it?

        Under packed sync the successor's entry restore reloads
        env.packed without checking env.packed_valid (the entry
        contract, :func:`entry_state`), so current per-bit fields are
        not enough.
        """
        if self.config.packed_sync:
            return state.packed_ok
        return state.env_current

    def _successor_live_in(self, target_pc: int) -> Optional[int]:
        if self.live_in_of is None:
            return None
        try:
            return self.live_in_of(target_pc)
        except Exception:
            return None

    def _check_env_flag_write(self, index: int, insn: X86Insn) -> None:
        if insn.op in (X86Op.MOV, X86Op.SETCC, X86Op.POP) and \
                _is_env_mem(insn.dst, _FLAG_FIELD_OFFSETS):
            self._warn(
                "unexpected-flag-write",
                f"write to an env flag field outside any audited "
                f"coordination range: {insn}", index)

    # -- host-register residency ---------------------------------------------

    def _residency(self, index: int, insn: X86Insn, state: _State) -> None:
        op = insn.op
        if op is X86Op.MOV and isinstance(insn.dst, Reg):
            guest = _env_regfile_slot(insn.src)
            if guest is not None:
                state.regs[insn.dst.number] = (guest, _CLEAN)
                return
        if op is X86Op.MOV and isinstance(insn.src, Reg):
            guest = _env_regfile_slot(insn.dst)
            if guest is not None:
                mapping = state.regs.get(insn.src.number)
                if mapping is not None and mapping[1] == _STALE:
                    self._error(
                        "stale-writeback",
                        f"host {insn.src} written back to env r{guest} "
                        "after a helper may have updated the slot "
                        "(missing register-cache invalidate)", index)
                return
        if op in _WRITES_DST_REG and isinstance(insn.dst, Reg):
            state.regs.pop(insn.dst.number, None)


def check_tb(tb, config, live_in_of: Optional[Callable[[int], int]] = None,
             include_waivers: bool = False) -> List[Finding]:
    """Verify one translated TB; returns the (possibly empty) findings."""
    return TbChecker(tb, config, live_in_of, include_waivers).run()
