"""The package's dependency boundary: scipy enters through one import only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qhodge"


def scipy_imports():
    """(file name, module) for every import of scipy or a scipy submodule, nested ones too."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, m) for m in modules if m == "scipy" or m.startswith("scipy.")]
    return found


def test_only_zeta_imports_scipy_integrate():
    assert scipy_imports() == [("zeta.py", "scipy.integrate")]
