"""Every module of the package is read by the program itself: the CLI or
the benchmark workloads import it, so no package module lives only for the
tests."""

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
