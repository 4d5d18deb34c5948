"""The package's dependency boundary: the stdlib and numpy only.

The test extra (pytest, mpmath, hypothesis, scipy) must never become a
runtime import: scipy serves only as a test oracle (`scipy.linalg` in
tests/test_quaternionic.py and tests/test_spin.py).
"""

import ast
import sys
from pathlib import Path

from reference_runs import run_python

SRC = Path(__file__).resolve().parents[1] / "src" / "qhodge"


def absolute_imports():
    """(file name, module) for every absolute import in the package, nested ones too."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, m) for m in modules]
    return found


def test_no_module_imports_scipy():
    assert [(f, m) for f, m in absolute_imports() if m.split(".")[0] == "scipy"] == []


def test_runtime_imports_are_stdlib_and_numpy():
    def allowed(module):
        top = module.split(".")[0]
        return top in sys.stdlib_module_names or top == "numpy"

    assert [(f, m) for f, m in absolute_imports() if not allowed(m)] == []


def test_boundary_sees_every_import_kind():
    # the walk must see plain and from-imports, or the checks above pass vacuously
    found = absolute_imports()
    assert ("cli.py", "argparse") in found
    assert ("suites.py", "numpy.linalg") in found
    assert ("zeta.py", "numpy") in found


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy may import optional packages of its own; a fresh interpreter
    # shows what `import qhodge.cli` pulls in end to end
    code = ("import sys, qhodge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = run_python(SRC.parent, ["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == b"[]"
