"""The package's dependency boundary: the stdlib, numpy and scipy.integrate only.

The test extra (pytest, mpmath, hypothesis) must never become a runtime
import, and scipy enters through one import in `zeta` only.
"""

import ast
import sys
from pathlib import Path

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


def test_only_zeta_imports_scipy_integrate():
    scipy = [(f, m) for f, m in absolute_imports() if m == "scipy" or m.startswith("scipy.")]
    assert scipy == [("zeta.py", "scipy.integrate")]


def test_runtime_imports_are_stdlib_numpy_and_scipy_integrate():
    def allowed(module):
        top = module.split(".")[0]
        return top in sys.stdlib_module_names or top == "numpy" or module == "scipy.integrate"

    assert [(f, m) for f, m in absolute_imports() if not allowed(m)] == []


def test_boundary_sees_every_import_kind():
    # the walk must see plain and from-imports, or the checks above pass vacuously
    found = absolute_imports()
    assert ("cli.py", "argparse") in found
    assert ("suites.py", "numpy.linalg") in found
    assert ("zeta.py", "scipy.integrate") in found
