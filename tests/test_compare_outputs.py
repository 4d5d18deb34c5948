"""scripts/compare_outputs.py: equal trees agree, a changed output is named, and every run
is reported."""

import importlib.util
import shutil
from pathlib import Path

import qhodge
from reference_runs import RUNS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
SRC = Path(qhodge.__file__).resolve().parents[1]
DENSE = "same: qhodge transgress --order 1 --input dense.json --out out.json\n"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_first_difference(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "RUNS", [(["torsion"], 0, None)])
    shutil.copytree(SRC / "qhodge", tmp_path / "qhodge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert script.main([str(SRC), str(tmp_path)]) == 0
    assert capsys.readouterr().out == "same: qhodge torsion\n" + DENSE

    # a differing run does not stop the compare: the runs after it are still reported
    zeta = tmp_path / "qhodge" / "zeta.py"
    zeta.write_text(zeta.read_text() + "EULER_GAMMA += 1e-9\n")
    monkeypatch.setattr(script, "RUNS", [(["torsion"], 0, None), (["torsion", "--help"], 0, None)])
    assert script.main([str(SRC), str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == "differ: qhodge torsion: stdout\n"
    assert out == "same: qhodge torsion --help\n" + DENSE

    # with --out the report is a written file, and stdout stays empty on both trees
    monkeypatch.setattr(script, "RUNS", [(["torsion"], 0, "t.json")])
    assert script.main([str(SRC), str(tmp_path)]) == 1
    assert capsys.readouterr().err == "differ: qhodge torsion --out t.json: file t.json\n"


def test_an_undeclared_exit_code_fails(monkeypatch, capsys):
    # both trees exit 0 alike, but RUNS declares 3: agreeing is not enough
    script = load_script()
    monkeypatch.setattr(script, "RUNS", [(["torsion"], 3, None)])
    assert script.main([str(SRC), str(SRC)]) == 1
    out, err = capsys.readouterr()
    assert out == "same: qhodge torsion\n" + DENSE
    assert err == ("exit code 0, not 3, on parent: qhodge torsion\n"
                   "exit code 0, not 3, on change: qhodge torsion\n")


def test_both_report_writers_are_compared():
    # a report goes to stdout without --out and to the file with it; RUNS keeps a verify of each
    verify = [name for argv, _, name in RUNS if argv[0] == "verify" and "--help" not in argv]
    assert None in verify and any(verify)
