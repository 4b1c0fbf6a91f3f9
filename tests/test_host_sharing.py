"""Interned host operands and shared host instructions.

Operands (``Reg``, ``Imm``, ``Mem``) are interned on construction, and
an engine's builders emit one ``X86Insn`` per distinct helper-free
instruction of a run, jumps included (docs/internals.md, "Interned
operands and shared instructions").  Neither may change an emitted
instruction, a counter or a stored byte, and labels stay inside the
builder that made them.
"""

import copy
import dataclasses
import gc
import os
import pickle

import pytest

from repro.harness.runner import make_machine, run_workload
from repro.host.builder import CodeBuilder
from repro.host.isa import EAX, EBP, Imm, Mem, Reg, X86Cond, X86Insn, X86Op
from repro.workloads import ALL_WORKLOADS

_JUMPS = (X86Op.JMP, X86Op.JCC)


def _fields(insn):
    return (insn.op, insn.dst, insn.src, insn.cond, insn.imm, insn.tag,
            insn.target_index)


def _shareable(insn):
    return insn.helper is None


# ---------------------------------------------------------------------------
# Operands.
# ---------------------------------------------------------------------------

def test_positional_and_keyword_mem_are_one_object():
    assert Mem(EBP, 8) is Mem(base=EBP, disp=8)
    assert Mem(EBP, 8, None, 1, 4) is Mem(disp=8, base=EBP)
    assert Mem(EBP, 8) is not Mem(EBP, 8, size=1)
    assert Reg(EAX) is Reg(number=EAX)
    assert Imm(7) is Imm(value=7)
    assert dataclasses.replace(Mem(EBP, 8), disp=12) is Mem(EBP, 12)


@pytest.mark.parametrize("operand", [Reg(EAX), Imm(-5), Mem(EBP, 8),
                                     Mem(None, 0x40, EAX, 4, 2)],
                         ids=["reg", "imm", "mem", "mem-index"])
def test_copies_and_pickles_return_the_interned_operand(operand):
    assert copy.copy(operand) is operand
    assert copy.deepcopy(operand) is operand
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(operand, protocol)) is operand
    # Inside a container as well (deepcopy's memo, pickle's memo).
    insn = X86Insn(X86Op.MOV, Reg(EAX), operand)
    assert copy.deepcopy(insn).src is operand
    assert pickle.loads(pickle.dumps(insn)).src is operand


def test_operands_stay_frozen_and_equal_by_value():
    mem = Mem(EBP, 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.disp = 4
    assert mem == Mem(base=EBP, disp=8) and hash(mem) == hash(Mem(EBP, 8))
    assert Imm(1) != Imm(2) and Reg(EAX) != Imm(EAX)
    assert [field.name for field in dataclasses.fields(Mem)] == \
        ["base", "disp", "index", "scale", "size"]


def test_operand_classes_have_no_metaclass():
    """Interning lives in ``__new__``, not in a metaclass: a metaclass
    about doubles the cost of an ``isinstance`` miss (0.074 -> 0.141 us
    under timeit), which ``HostInterpreter._read``/``_write`` take on
    most operands, and a metaclass prototype made warm-code about 5%
    slower."""
    for cls in (Reg, Imm, Mem):
        assert type(cls) is type


# ---------------------------------------------------------------------------
# Instructions.
# ---------------------------------------------------------------------------

def test_builder_without_a_memo_keeps_its_own():
    codes = []
    for _ in range(2):
        builder = CodeBuilder()
        builder.mov(Reg(EAX), Imm(1))
        builder.mov(Reg(EAX), Imm(1))
        codes.append(builder.finish())
    (first, second), (other, _) = codes
    assert first is second
    assert other == first and other is not first


def test_builders_of_one_memo_share_helper_free_instructions():
    memo = {}
    codes = []
    for _ in range(2):
        builder = CodeBuilder(shared=memo)
        label = builder.new_label()
        builder.bind(label)
        builder.mov(Reg(EAX), Imm(1))
        builder.call_helper(len)
        builder.jmp(label)
        builder.exit_tb(0)
        codes.append(builder.finish())
    (mov, call, jmp, exit_tb), again = codes
    assert again[0] is mov and again[2] is jmp and again[3] is exit_tb
    assert again[1] is not call
    assert jmp.target_index == 0 and str(jmp) == "jmp L0"


def test_labels_are_numbered_per_builder():
    labels = []
    for _ in range(2):
        builder = CodeBuilder()
        labels.append((builder.new_label("irq"), builder.new_label("irq")))
    assert labels == [("irq_0", "irq_1")] * 2


def test_jumps_are_resolved_into_shared_instructions():
    """Equal resolved jumps are one object, whichever label, builder or
    splice they came from; a spliced jump's target is re-based."""
    memo = {}
    first = CodeBuilder(shared=memo)
    skip = first.new_label("skip")
    first.jcc(X86Cond.NE, skip)
    first.mov(Reg(EAX), Imm(1))
    first.bind(skip)
    first.exit_tb(0)
    (jne, _, _) = first.finish()
    assert jne.target_index == 2

    second = CodeBuilder(shared=memo)
    second.jcc(X86Cond.NE, "elsewhere")
    second.mov(Reg(EAX), Imm(1))
    second.bind("elsewhere")
    second.exit_tb(0)
    assert second.finish()[0] is jne

    spliced = CodeBuilder(shared=memo)
    spliced.nop()
    spliced.splice([jne, X86Insn(X86Op.EXIT_TB)], tag="code")
    assert spliced.insns[1].target_index == 3
    assert spliced.insns[1] is not jne and spliced.insns[1].cond is X86Cond.NE


def _check_sharing(machine):
    """Every memo entry holds its key, and every helper-free instruction
    of the run's TBs, jumps included, is the one object of its
    fields."""
    memo = machine.engine.insn_memo
    assert memo
    for key, insn in memo.items():
        assert _fields(insn) == key
    seen = {}
    for tb in machine.engine.cache.all_tbs():
        for insn in tb.code:
            if _shareable(insn):
                assert seen.setdefault(_fields(insn), insn) is insn
    return seen


def test_a_run_shares_each_distinct_instruction():
    workload = ALL_WORKLOADS["cpu-prime"]
    machine = make_machine(workload, "rules-full")
    assert machine.run(workload.max_insns) == 0
    tiers = {tb.meta.get("tier") for tb in machine.engine.cache.all_tbs()}
    assert "rules" in tiers
    seen = _check_sharing(machine)
    code = [insn for tb in machine.engine.cache.all_tbs()
            for insn in tb.code]
    assert len(seen) < sum(map(_shareable, code))
    jumps = [insn for insn in code if insn.op in _JUMPS]
    assert jumps and all(jump.target_index >= 0 for jump in jumps)
    assert len({id(jump) for jump in jumps}) < len(jumps)


def test_no_host_instruction_is_written_after_it_is_built(monkeypatch):
    """Emitted code is read-only: no builder (its finish() and splice
    included), engine or fault injector assigns a field of an
    instruction once it exists; code that changes one builds a new one."""
    written = []

    def guard(insn, name, value):
        # Recorded, not raised: the degradation ladder would catch it.
        if name in insn.__dict__:
            written.append(f"{name} of {insn}")
        object.__setattr__(insn, name, value)

    monkeypatch.setattr(X86Insn, "__setattr__", guard)
    for name, engine, inject in (
            ("cpu-prime", "rules-full", None), ("cpu-prime", "tcg", None),
            ("cpu-prime", "rules-full", "seed=1,extra-sync=0.5"),
            ("fileio", "rules-full", None)):
        workload = ALL_WORKLOADS[name]
        machine = make_machine(workload, engine, inject=inject)
        if name == "fileio":
            # The quarantined rule's TBs splice in the fallback's code.
            machine.engine.ladder.quarantine_rule("LDR", "test")
        assert machine.run(workload.max_insns) == 0
        assert not written, (name, engine, written[:3])


def test_fallback_splice_leaves_memoized_instructions_as_emitted():
    """A quarantined rule's instructions are spliced in from the TCG
    backend and retagged ``fallback``; the splice must re-emit them,
    never retag a shared instruction in place."""
    workload = ALL_WORKLOADS["fileio"]
    reference = run_workload(workload, "rules-full")
    machine = make_machine(workload, "rules-full")
    for rule in ("LDR", "STR"):
        machine.engine.ladder.quarantine_rule(rule, "test")
    assert machine.run(workload.max_insns) == 0
    assert machine.uart.text == reference.output
    tags = {insn.tag for tb in machine.engine.cache.all_tbs()
            for insn in tb.code}
    assert "fallback" in tags and "mmu" in tags
    _check_sharing(machine)


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------

def _store_bytes(root):
    (name,) = os.listdir(root)
    directory = os.path.join(root, name)
    return {file: open(os.path.join(directory, file), "rb").read()
            for file in ("entries.json", "manifest.json")}


def test_store_does_not_depend_on_earlier_runs_in_the_process(tmp_path):
    """The intern tables outlive a run, and a save memoizes tokens by
    ``id(insn)``: neither may leak into a later run's store, and no
    label numbered in an earlier run may either.  Collecting between
    runs frees a finished run's instructions, so the next run's may take
    their ids."""
    first, other, again = (str(tmp_path / name)
                           for name in ("first", "other", "again"))
    sjeng, prime = ALL_WORKLOADS["sjeng"], ALL_WORKLOADS["cpu-prime"]
    for workload, root in ((sjeng, first), (prime, other), (sjeng, again)):
        run_workload(workload, "rules-full", cache_dir=root)
        gc.collect()
    assert _store_bytes(first) == _store_bytes(again)
