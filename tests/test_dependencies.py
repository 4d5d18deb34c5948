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


def imports_in(source: str, filename: str = "<source>"):
    """(module, level) for every import in one module's source, nested ones too.

    A relative import's module is its absolute name in the package: `from .exterior
    import DEGREE` and `from . import exterior` both give ("qhodge.exterior", 1).
    """
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            found += [(alias.name, 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # every package module sits directly in qhodge, so "." is the package
            assert node.level <= 1, (filename, node.level)
            if node.level == 0:
                found.append((node.module, 0))
            elif node.module:
                found.append((f"qhodge.{node.module}", 1))
            else:
                found += [(f"qhodge.{alias.name}", 1) for alias in node.names]
    return found


def package_imports():
    """(file name, module, level) for every import in the package."""
    return [(path.name, module, level) for path in sorted(SRC.glob("*.py"))
            for module, level in imports_in(path.read_text(encoding="utf-8"), str(path))]


def absolute_imports():
    """(file name, module) for every absolute import in the package, nested ones too."""
    return [(f, m) for f, m, level in package_imports() if level == 0]


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
    found = package_imports()
    assert ("fields.py", "qhodge.exterior", 1) in found
    assert ("cli.py", "qhodge.zeta", 1) in found
    nested = "def f():\n    from .quaternionic import AD\n    from . import spin\n"
    assert imports_in(nested) == [("qhodge.quaternionic", 1), ("qhodge.spin", 1)]


def test_fields_imports_only_exterior_from_the_package():
    # fields is the data layer under every operator: a fiber matrix meets a form
    # field only in operators.apply_fiber, so fields needs no quaternionic table
    assert {m for f, m, _ in package_imports()
            if f == "fields.py" and m.split(".")[0] == "qhodge"} == {"qhodge.exterior"}


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy may import optional packages of its own; a fresh interpreter
    # shows what `import qhodge.cli` pulls in end to end
    code = ("import sys, qhodge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = run_python(SRC.parent, ["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == b"[]"
