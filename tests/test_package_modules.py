"""Every module of the package is read by the program itself: the CLI or
the benchmark workloads import it, so no package module lives only for the
tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sympconn"


def package_modules():
    """The dotted names of the modules under src/sympconn, packages included."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_the_cli_and_the_workloads_import_every_package_module():
    """In a fresh interpreter, importing `sympconn.cli` and perfbench's
    `workloads` leaves every module under src/sympconn in sys.modules."""
    code = ("import sys, sympconn.cli, workloads\n"
            "print('\\n'.join(m for m in sys.modules if m.partition('.')[0] == 'sympconn'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "sympconn.cli" in done.stdout.split()
    assert package_modules() - set(done.stdout.split()) == set()


def test_serialize_leaves_the_normalization_recursion_unloaded():
    """In a fresh interpreter, importing `sympconn.serialize` does not load
    `sympconn.normalization`: no file kind needs it."""
    code = "import sys, sympconn.serialize\nprint('sympconn.normalization' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


# The one public name that no command and no workload reaches and that stays:
# the paper's affine normal form of the stabilizer of nabla^0 on R^(2n).
WITHOUT_CALLER = {"stabilizer_check"}


def test_every_public_name_of_the_package_has_a_caller_in_the_program():
    """Each public module-level function and class under src/sympconn, and
    each public classmethod and staticmethod of those classes, is named by an
    `ast.Name` or `ast.Attribute` in the package outside its own definition,
    or in perfbench's `workloads`: what only the tests read lives in the
    tests.  An entry of `WITHOUT_CALLER` that is gone or has gained a caller
    fails too."""
    package = sorted(PACKAGE.rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in package + [ROOT / "perfbench" / "workloads.py"]}
    uses = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    defined = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined.append((node.name, node, path))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{m.name}", m, path) for m in node.body
                            if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                            and {getattr(d, "id", None) for d in m.decorator_list}
                            & {"classmethod", "staticmethod"}]
    uncalled = {qualified for qualified, node, path in defined
                if all(p == path and node.lineno <= line <= node.end_lineno
                       for p, line in uses.get(node.name, ()))}
    assert uncalled == WITHOUT_CALLER, (f"only the tests read {sorted(uncalled - WITHOUT_CALLER)}; "
                                        f"gone or called: {sorted(WITHOUT_CALLER - uncalled)}")
