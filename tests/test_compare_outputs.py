"""scripts/compare_outputs.py: equal trees agree, and a changed output is named."""

import importlib.util
import shutil
from pathlib import Path

import qhodge

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
SRC = Path(qhodge.__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_first_difference(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "COMMANDS", [["torsion"]])
    shutil.copytree(SRC / "qhodge", tmp_path / "qhodge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert script.main([str(SRC), str(tmp_path)]) == 0
    assert capsys.readouterr().out == "same: qhodge torsion\n"

    zeta = tmp_path / "qhodge" / "zeta.py"
    zeta.write_text(zeta.read_text() + "EULER_GAMMA += 1e-9\n")
    assert script.main([str(SRC), str(tmp_path)]) == 1
    assert capsys.readouterr().err == "differ: qhodge torsion: stdout\n"
