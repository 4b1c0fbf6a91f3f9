"""Each name has one import path, and a run loads only what it runs.

A package ``__init__`` runs whenever one of its modules is imported, so
a package that re-exports its modules' names makes every import of one
module load them all, and lets two packages import each other.  The
rule (docs/internals.md, "Module layout"): import a name from the
module that defines it, and keep a package ``__init__`` free of imports
unless it defines code itself.  These checks read the sources; one of
them imports in a fresh interpreter and lists the modules it loaded.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: The packages whose ``__init__`` defines code, and so imports.
CODE_PACKAGES = {"repro.cache", "repro.workloads"}

#: The imports a function makes when it is called, not when its module
#: loads: ``--check``'s dataflow checker, and the store a run without
#: ``--cache-dir`` never opens.
CALL_TIME_IMPORTS = {
    ("repro.core.engine", "RuleEngine._vet_tb"),
    ("repro.harness.runner", "make_machine"),
}

#: Modules that a ``repro run`` (runner, store and workloads) must not
#: load: the ``repro bench`` stack, the paper-figure experiments, the
#: checker, and the rule-learning pipeline.
NOT_LOADED_BY_A_RUN = {
    "repro.observability.baseline", "repro.observability.bench",
    "repro.observability.export", "repro.observability.profile",
    "repro.observability.regress", "repro.harness.experiments",
    "repro.harness.report", "repro.analysis.findings",
    "repro.analysis.checker", "repro.analysis.dataflow",
    "repro.analysis.reorder",
}


def _modules():
    """``{module name: (path, is_package)}`` for every module of repro."""
    found = {}
    for top, _, names in os.walk(os.path.join(SRC, "repro")):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(top, name)
            parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
            package = parts[-1] == "__init__"
            if package:
                parts.pop()
            found[".".join(parts)] = (path, package)
    return found


MODULES = _modules()


def _tree(name):
    with open(MODULES[name][0]) as handle:
        return ast.parse(handle.read())


def _imported(name, node):
    """The repro modules an import statement in module *name* loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names
                if alias.name in MODULES]
    if node.level:
        base = name.split(".")
        if not MODULES[name][1]:
            base.pop()
        base = base[:len(base) - node.level + 1]
        target = ".".join(base + ([node.module] if node.module else []))
    else:
        target = node.module
    if target not in MODULES:
        return []
    return [target] + [f"{target}.{alias.name}" for alias in node.names
                       if f"{target}.{alias.name}" in MODULES]


def _ancestors(name):
    parts = name.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts))}


def _imports(tree):
    """``(function qualname or None, node)`` for each import in *tree*;
    the qualname is that of the innermost enclosing function."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((scope if in_function else None, child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                visit(child, inner, in_function or
                      not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(tree, "", False)
    return found


def test_package_inits_import_nothing_unless_they_define_code():
    offenders = []
    for name, (_, package) in sorted(MODULES.items()):
        if not package or name in CODE_PACKAGES:
            continue
        offenders += [f"{name}:{node.lineno}"
                      for _, node in _imports(_tree(name))]
    assert offenders == []


def test_module_level_import_graph_is_acyclic():
    # Importing a module first runs its packages' ``__init__``s; those
    # of the importer's own packages are already running.
    graph = {}
    for name in MODULES:
        targets = {target for scope, node in _imports(_tree(name))
                   if scope is None for target in _imported(name, node)}
        targets |= {package for target in targets
                    for package in _ancestors(target)}
        graph[name] = targets - _ancestors(name) - {name}
    done, active, cycles = set(), [], []

    def walk(name):
        active.append(name)
        for target in sorted(graph[name]):
            if target in active:
                cycles.append(active[active.index(target):] + [target])
            elif target not in done:
                walk(target)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        if name not in done:
            walk(name)
    assert cycles == []


def test_a_run_loads_no_bench_checker_or_learning_module():
    code = ("import sys; import repro.harness.runner, repro.cache, "
            "repro.workloads; print('\\n'.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    loaded = set(done.stdout.split())
    assert "repro.harness.runner" in loaded
    assert sorted(loaded & NOT_LOADED_BY_A_RUN) == []
    assert sorted(name for name in loaded
                  if name.startswith("repro.learning")) == []


def test_only_the_named_functions_import_at_call_time():
    found = set()
    for name in MODULES:
        if name == "repro.__main__":
            continue
        found |= {(name, scope) for scope, _ in _imports(_tree(name))
                  if scope is not None}
    assert found == CALL_TIME_IMPORTS

