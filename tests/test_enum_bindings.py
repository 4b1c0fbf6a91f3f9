"""The per-instruction modules look up no enum member at run time.

On Python 3.10 and 3.11 ``X86Op.MOV`` runs ``EnumType.__getattr__`` on
every evaluation, several times the cost of a global.  The modules on
the per-instruction paths therefore bind each member they use once, as
a module constant (``_X86_MOV = X86Op.MOV``), and their functions read
the constant.  This test disassembles every function of those modules
(methods, nested functions, lambdas and comprehensions included) and
fails on a load of an enum class followed by an attribute load.  Module
code and class bodies run once and are exempt.
"""

import dis
import importlib
import inspect
import types

import pytest

from repro.core.condmap import CarryKind
from repro.guest.isa import Cond, Op, ShiftKind
from repro.host.isa import X86Cond, X86Op

ENUMS = {"X86Op": X86Op, "X86Cond": X86Cond, "Op": Op, "Cond": Cond,
         "ShiftKind": ShiftKind, "CarryKind": CarryKind}

#: The modules whose functions run per guest or host instruction.
MODULES = [
    "repro.host.interp", "repro.host.builder",
    "repro.guest.isa", "repro.guest.decoder",
    "repro.core.analysis", "repro.core.translator", "repro.core.alu",
    "repro.core.condmap", "repro.core.rulebook",
    "repro.miniqemu.mmu_codegen", "repro.miniqemu.machine",
]

#: Binding prefix of each enum's members: ``_OP_ADD`` is ``Op.ADD``.
PREFIXES = {"_X86_": (X86Op, X86Cond), "_OP_": (Op,), "_COND_": (Cond,),
            "_SHIFT_": (ShiftKind,), "_CARRY_": (CarryKind,)}

# A global load, or a local or closure one (a function-level import).
_NAME_LOADS = {"LOAD_GLOBAL", "LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_DEREF"}
_ATTR_LOADS = {"LOAD_ATTR", "LOAD_METHOD"}


def _functions(namespace, module, seen):
    """Functions defined in *module*, found through *namespace*."""
    for obj in list(vars(namespace).values()):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            yield from (f for f in (obj.fget, obj.fset, obj.fdel) if f)
        elif inspect.isfunction(obj):
            function = inspect.unwrap(obj)
            if function.__code__.co_filename == module.__file__:
                yield function
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and obj not in seen:
            seen.add(obj)
            yield from _functions(obj, module, seen)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_lookups(module):
    """``(function, 'Enum.MEMBER')`` of every member lookup in *module*'s
    functions."""
    found = []
    for function in _functions(module, module, set()):
        for code in _code_objects(function.__code__):
            insns = list(dis.get_instructions(code))
            for load, attr in zip(insns, insns[1:]):
                if load.opname in _NAME_LOADS and load.argval in ENUMS \
                        and attr.opname in _ATTR_LOADS:
                    found.append((f"{function.__qualname__}:{code.co_name}",
                                  f"{load.argval}.{attr.argval}"))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_per_instruction_code_looks_up_no_enum_member(name):
    module = importlib.import_module(name)
    assert enum_lookups(module) == []


def test_guard_sees_a_member_lookup():
    def stepper(insn):
        return insn.op is X86Op.MOV

    module = types.ModuleType("probe")
    module.__file__ = stepper.__code__.co_filename
    module.stepper = stepper
    stepper.__module__ = "probe"
    assert enum_lookups(module) == [
        ("test_guard_sees_a_member_lookup.<locals>.stepper:stepper",
         "X86Op.MOV")]


@pytest.mark.parametrize("name", MODULES)
def test_member_bindings_name_their_member(name):
    module = importlib.import_module(name)
    for binding, value in vars(module).items():
        for prefix, enums in PREFIXES.items():
            if binding.startswith(prefix) and isinstance(value, enums):
                assert value._name_ == binding[len(prefix):], binding
