"""Interned host operands and shared host instructions.

Operands (``Reg``, ``Imm``, ``Mem``) are interned on construction, and
an engine's builders emit one ``X86Insn`` per distinct helper-free,
non-jump instruction of a run (docs/internals.md, "Interned operands and
shared instructions").  Neither may change an emitted instruction, a
counter or a stored byte.
"""

import copy
import dataclasses
import gc
import itertools
import os
import pickle

import pytest

import repro.host.builder as host_builder
from repro.harness.runner import make_machine, run_workload
from repro.host import CodeBuilder, EAX, EBP, Imm, Mem, Reg, X86Op
from repro.host.isa import X86Insn
from repro.workloads import ALL_WORKLOADS

_JUMPS = (X86Op.JMP, X86Op.JCC)


def _fields(insn):
    return (insn.op, insn.dst, insn.src, insn.cond, insn.imm, insn.tag)


def _shareable(insn):
    return insn.helper is None and insn.op not in _JUMPS


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

def test_builder_without_a_memo_builds_fresh_instructions():
    builder = CodeBuilder()
    builder.mov(Reg(EAX), Imm(1))
    builder.mov(Reg(EAX), Imm(1))
    first, second = builder.insns
    assert first == second and first is not second


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
    assert again[0] is mov and again[3] is exit_tb
    assert again[1] is not call and again[2] is not jmp
    assert len(memo) == 2


def _check_sharing(machine):
    """Every memo entry holds its key, and every helper-free non-jump
    instruction of the run's TBs is the one object of its fields."""
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
    total = sum(_shareable(insn) for tb in machine.engine.cache.all_tbs()
                for insn in tb.code)
    assert len(seen) < total


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


def test_store_does_not_depend_on_earlier_runs_in_the_process(
        tmp_path, monkeypatch):
    """The intern tables outlive a run, and a save memoizes tokens by
    ``id(insn)``: neither may leak into a later run's store.  Labels are
    numbered by one process-wide counter, so each run starts it over;
    collecting between runs frees a finished run's instructions, so
    the next run's may take their ids."""
    first, other, again = (str(tmp_path / name)
                           for name in ("first", "other", "again"))
    sjeng, prime = ALL_WORKLOADS["sjeng"], ALL_WORKLOADS["cpu-prime"]
    for workload, root in ((sjeng, first), (prime, other), (sjeng, again)):
        monkeypatch.setattr(host_builder, "_label_counter",
                            itertools.count())
        run_workload(workload, "rules-full", cache_dir=root)
        gc.collect()
    assert _store_bytes(first) == _store_bytes(again)
