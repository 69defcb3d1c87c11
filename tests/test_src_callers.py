"""Every definition in ``src/repro`` has a caller outside ``tests/``.

A function, class or method that only tests call is a second API next
to the one the simulator runs: its tests pass while the code they were
meant to check goes unexercised.  This guard parses the package and
fails on

* any module-level function, class or constant (a name bound by a
  module-level assignment; dunders such as ``__all__`` are left out)
  that nothing references outside its own definition, and
* any method or property (dunders are left out, since syntax calls
  them by protocol, not by name) whose name nothing references
  outside every method of that name under ``src/repro``: an override
  counts as called only when something calls the name,

looking in ``src/``, ``perfbench/``, ``scripts/``, ``benchmarks/`` and
``examples/``.  A reference is an attribute, an identifier string
(``getattr`` and the perfbench frame tables name code that way), and,
for module-level definitions only, a bare name or an import: a local
variable that shares a method's name does not call the method.  An
``__init__.py`` re-export or an ``__all__`` entry is not a reference.
A helper only tests need belongs next to those tests
(``tests/conftest.py`` shares fixtures across directories).
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "perfbench", "scripts", "benchmarks", "examples")

#: Definitions kept without a caller, each with its reason.
ALLOWED = {
    "analysis/experiments.py:pte_dram_amplification":
        "the PTE DRAM-amplification driver that ROADMAP Open item 1 "
        "needs for its figure",
    "sim/faults.py:reset_fired":
        "clears the process-global once-only fault state between tests",
    "mem/request.py:KIND_INSTRUCTION":
        "no code issues an instruction request, but dropping the kind "
        "changes RunResult.dram_accesses_by_kind, hence every cache "
        "entry and the perfbench fingerprint: it waits for a "
        "CODE_VERSION bump",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions():
    """``(module path, label, name, first line, last line)`` of every
    module-level definition and of every method the guard checks."""
    found, methods = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                found.append((path, f"{module}:{node.name}", node.name,
                              node.lineno, node.end_lineno))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found += [
                    (path, f"{module}:{name.id}", name.id, node.lineno,
                     node.end_lineno)
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Store)
                    and not name.id.startswith("__")]
            if isinstance(node, ast.ClassDef):
                methods += [
                    (path, f"{module}:{node.name}.{sub.name}", sub.name,
                     sub.lineno, sub.end_lineno)
                    for sub in node.body if isinstance(sub, FUNCTIONS)
                    and not sub.name.startswith("__")]
    return found, methods


def references():
    """Name -> ``(path, line, bare)`` of every reference in the caller
    trees; ``bare`` marks a name or an import, which only a
    module-level definition can be called by."""
    found = defaultdict(list)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skipped = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        getattr(target, "id", None) == "__all__"
                        for target in node.targets):
                    skipped.update(ast.walk(node))
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if node in skipped:
                    continue
                bare = isinstance(node, (ast.Name, ast.ImportFrom))
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names = [alias.name for alias in node.names]
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier() and not reexports):
                    names = [node.value]
                else:
                    continue
                for name in names:
                    found[name].append((path, node.lineno, bare))
    return found


def uncalled():
    refs = references()
    found, methods = definitions()
    spans = defaultdict(list)  # method name -> every definition's span
    for path, _, name, first, last in methods:
        spans[name].append((path, first, last))

    def inside(ref_path, line, owners):
        return any(ref_path == path and first <= line <= last
                   for path, first, last in owners)

    return {
        label for path, label, name, first, last in found
        if all(inside(ref_path, line, [(path, first, last)])
               for ref_path, line, _ in refs.get(name, ()))
    } | {
        label for _, label, name, _, _ in methods
        if all(bare or inside(ref_path, line, spans[name])
               for ref_path, line, bare in refs.get(name, ()))
    }


def test_every_src_definition_has_a_non_test_caller():
    unexpected = sorted(uncalled() - set(ALLOWED))
    assert not unexpected, (
        "src/repro definitions that only tests (or nothing) reference; "
        "delete them or move them next to the tests that use them: "
        + ", ".join(unexpected))


def test_allowed_names_still_lack_a_caller():
    """An allowed name that gains a caller leaves the list."""
    assert set(ALLOWED) <= uncalled()
