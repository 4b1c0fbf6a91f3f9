"""Formal semantic-equivalence verification of candidate rules.

Paper learning step 3: symbolically execute both fragments of a
candidate and check that they compute the same observable state:

- final values of every source variable's home register,
- the return value (r0 <-> eax) of fragments that jump to the epilogue,
- memory stores (address, size, value — in order),
- the branch condition, when the fragment is an if/while condition.

Every compared pair climbs one decision ladder (:func:`classify_equiv`):

1. normalization (:func:`.symexec.expr.proved_equal`): equal canonical
   forms are ``proved``;
2. BDD bit-blasting (:mod:`.symexec.bitblast`) decides the pair for all
   2^32 assignments: ``proved``, or ``refuted`` with a witness;
3. past the BDD node budget (or on an unsupported operator), one seeded
   sampler over concrete evaluation: a differing vector is a
   ``refuted`` witness, otherwise the pair is only ``tested-only``.

A refutation witness always holds under concrete evaluation of both
sides, so the bit-blaster's over-approximation of memory loads can only
send a pair on to the sampler, never fabricate a refutation.

:func:`verify` folds the comparisons into one :class:`RuleVerdict` that
is as weak as its weakest comparison.  ``learn()`` calls it once per
candidate and keeps every verdict; refuted and unmodelled candidates
never become rules, exactly as in the paper, and ``repro check``
reports the verdicts ``learn()`` kept instead of classifying again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common.errors import RuleVerificationError
from ..host.isa import EAX, EDX, REG_NAMES
from .extract import CandidateRule
from .symexec.arm_exec import ArmSymExec
from .symexec.bitblast import BudgetExceeded, Unsupported, check_equivalent
from .symexec.expr import MASK, Sym, evaluate, proved_equal, symbols
from .symexec.x86_exec import X86SymExec

CLASS_PROVED = "proved"
CLASS_TESTED = "tested-only"
CLASS_REFUTED = "refuted"

_CLASS_RANK = {CLASS_PROVED: 0, CLASS_TESTED: 1, CLASS_REFUTED: 2}

#: reason prefix of candidates the symbolic executors cannot model.
_UNMODELLED = "unmodelled"

#: scratch-register correspondence between the two back ends.
_SCRATCH_PAIRS = [("r0", REG_NAMES[EAX]), ("r1", REG_NAMES[EDX])]

#: vectors the sampler evaluates: the corner values, then seeded random.
_SAMPLES = 256
_CORNERS = (0, 1, MASK, 0x80000000, 0x7FFFFFFF)


@dataclass
class RuleVerdict:
    """Classification of one candidate."""

    classification: str
    reason: str = ""
    witness: Optional[Dict[str, int]] = None
    #: per-comparison detail: (what, classification)
    checks: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def refuted(self) -> bool:
        return self.classification == CLASS_REFUTED

    @property
    def admitted(self) -> bool:
        """True when ``learn()`` lets the candidate become a rule."""
        return not self.refuted and not self.reason.startswith(_UNMODELLED)


def _sampled_witness(a, b) -> Optional[Dict[str, int]]:
    """The first sampled assignment on which *a* and *b* differ."""
    names = sorted(symbols(a, b))
    rng = random.Random(0x5EED)
    for trial in range(_SAMPLES):
        if trial < len(_CORNERS):
            env = {name: _CORNERS[trial] for name in names}
        else:
            env = {name: rng.getrandbits(32) for name in names}
        if evaluate(a, env) != evaluate(b, env):
            return env
    return None


def classify_equiv(a, b) -> Tuple[str, Optional[Dict[str, int]]]:
    """Classify one expression pair: proved / tested-only / refuted.

    A ``refuted`` result carries a witness on which concrete evaluation
    of the two expressions differs.
    """
    if proved_equal(a, b):
        return CLASS_PROVED, None
    try:
        equal, witness = check_equivalent(a, b)
        if equal:
            return CLASS_PROVED, None
        if witness is not None and evaluate(a, witness) != \
                evaluate(b, witness):
            return CLASS_REFUTED, witness
        # The BDD difference hinged on load values the concrete hash
        # model does not realize: inconclusive, so sample.
    except (BudgetExceeded, Unsupported):
        pass
    witness = _sampled_witness(a, b)
    if witness is not None:
        return CLASS_REFUTED, witness
    return CLASS_TESTED, None


def verify(candidate: CandidateRule) -> RuleVerdict:
    """Classify *candidate* by comparing its observable state."""
    guest_init: Dict[str, object] = {}
    host_init: Dict[str, object] = {}
    for var, guest_reg in candidate.guest_vars.items():
        symbol = Sym(var)
        guest_init[guest_reg] = symbol
        host_init[REG_NAMES[candidate.host_vars[var]]] = symbol
    for guest_scratch, host_scratch in _SCRATCH_PAIRS:
        symbol = Sym(f"scratch_{guest_scratch}")
        guest_init.setdefault(guest_scratch, symbol)
        host_init.setdefault(host_scratch, symbol)

    try:
        guest_state = ArmSymExec(guest_init).execute(candidate.guest)
        host_state = X86SymExec(host_init).execute(candidate.host)
    except RuleVerificationError as exc:
        return RuleVerdict(CLASS_TESTED, reason=f"{_UNMODELLED}: {exc}")

    verdict = RuleVerdict(CLASS_PROVED)

    def compare(what: str, a, b) -> bool:
        classification, witness = classify_equiv(a, b)
        verdict.checks.append((what, classification))
        if _CLASS_RANK[classification] > \
                _CLASS_RANK[verdict.classification]:
            verdict.classification = classification
            verdict.reason = f"{what} " + (
                "differs" if classification == CLASS_REFUTED
                else "only sampled")
            verdict.witness = witness
        return classification != CLASS_REFUTED

    def refute_structural(reason: str,
                          witness: Optional[Dict] = None) -> RuleVerdict:
        verdict.classification = CLASS_REFUTED
        verdict.reason = reason
        verdict.witness = witness
        return verdict

    # Variable home registers.
    for var, guest_reg in candidate.guest_vars.items():
        host_reg = REG_NAMES[candidate.host_vars[var]]
        guest_value = guest_state.regs.get(guest_reg, Sym(var))
        host_value = host_state.regs.get(host_reg, Sym(var))
        if not compare(f"variable {var}", guest_value, host_value):
            return verdict

    # Scratch registers are dead at statement boundaries; the only
    # observable one is the return-value location (r0 <-> eax) in
    # fragments that jump to the epilogue.
    if guest_state.jumps and host_state.jumps and \
            guest_state.branch is None:
        guest_value = guest_state.regs.get("r0")
        host_value = host_state.regs.get(REG_NAMES[EAX])
        if (guest_value is None) != (host_value is None):
            return refute_structural("return value on one side only")
        if guest_value is not None:
            if not compare("return value", guest_value, host_value):
                return verdict

    # Stores.
    if len(guest_state.stores) != len(host_state.stores):
        return refute_structural(
            "store counts differ",
            {"guest_stores": len(guest_state.stores),
             "host_stores": len(host_state.stores)})
    for index, ((guest_addr, guest_size, guest_value),
                (host_addr, host_size, host_value)) in enumerate(
            zip(guest_state.stores, host_state.stores)):
        if guest_size != host_size:
            return refute_structural(
                f"store {index} sizes differ",
                {"guest_size": guest_size, "host_size": host_size})
        if not compare(f"store {index} address", guest_addr, host_addr):
            return verdict
        if not compare(f"store {index} value", guest_value, host_value):
            return verdict

    # Branches.
    if (guest_state.branch is None) != (host_state.branch is None):
        return refute_structural("branch structure differs")
    if guest_state.branch is not None:
        guest_cond, guest_lhs, guest_rhs = guest_state.branch
        host_cond, host_lhs, host_rhs = host_state.branch
        if guest_cond != host_cond:
            return refute_structural(
                f"conditions differ: {guest_cond} vs {host_cond}")
        if not compare("branch lhs", guest_lhs, host_lhs):
            return verdict
        if not compare("branch rhs", guest_rhs, host_rhs):
            return verdict
    if guest_state.jumps != host_state.jumps:
        return refute_structural("jump structure differs")

    return verdict
