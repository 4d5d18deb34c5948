"""The reference command lines, and the one way to run Python on a source tree.

tests/test_pinned_outputs.py checks every entry of RUNS; scripts/compare_outputs.py
byte-compares it between two trees.  `PYTHONPATH=src python tests/reference_runs.py`
regenerates the committed targets, then the pinned reports; a change that does so on purpose
says so in CHANGES.md.  Only the standard library is imported at module level, so the byte
compare loads this module before it has chosen a tree.
"""

import os
import subprocess
import sys
from pathlib import Path

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
THETA = "0.13,0.71,0.29,0.9"


def target(order: int) -> str:
    return str(PINNED_DIR / f"target-order{order}.json")


# (command line, exit code, pinned report or None)
RUNS = [
    (["verify", "--kmax", "2", "--fields", "2", "--seed", "7", "--theta", THETA], 0, "verify.json"),
    # kmax 4 cuts the grid into three row blocks: the field suites' sums cross block seams
    (["verify", "--kmax", "4", "--fields", "2", "--seed", "7", "--theta", THETA,
      "--suite", "operators", "--suite", "kodaira"], 0, "verify-blocks.json"),
    (["verify", "--seed", "3", "--theta", THETA], 0, None),
    (["verify", "--kmax", "2", "--fields", "1", "--seed", "11"], 0, None),
    (["torsion"], 0, "torsion-untwisted.json"),
    (["torsion", "--theta", "0.5,0,0,0"], 0, "torsion-half.json"),
    (["torsion", "--theta", THETA], 0, "torsion.json"),
    (["lapl-constant"], 0, "lapl-constant.json"),
    (["transgress", "--order", "1", "--input", target(1)], 0, "transgress-order1.json"),
    (["transgress", "--order", "2", "--structure", "J", "--input", target(2)], 0,
     "transgress-order2-J.json"),
    (["transgress", "--order", "4", "--input", target(4)], 0, "transgress-order4.json"),
    (["transgress", "--order", "3", "--input", target(1), "--out", "out.json"], 2, None),
    (["transgress", "--order", "2", "--structure", "X", "--input", target(2), "--out", "out.json"],
     2, None),
    *(([*command, "--help"], 0, None)
      for command in ([], ["verify"], ["transgress"], ["torsion"], ["lapl-constant"])),
]


def label(argv: list[str]) -> str:
    """The command line with each path cut to its file name."""
    return " ".join(["qhodge", *(Path(a).name if os.sep in a else a for a in argv)])


def run_python(src, args: list[str], cwd, **env) -> subprocess.CompletedProcess:
    """Run `python *args` in cwd in a fresh interpreter that imports `qhodge` from src first."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def write_targets(directory):
    """Seeded real targets on two modes and their negatives: d of a form, d d_J of a form
    and d d_I d_J d_K of a 0-form, each a few kilobytes."""
    import numpy as np

    from qhodge.exterior import DEGREE
    from qhodge.fields import FormField
    from qhodge.operators import exterior_d, twisted_d
    from qhodge.transgression import quartic_differential

    rng = np.random.default_rng(2024)

    def real_form(degree=None):
        f = FormField(2)
        for k in ((1, 0, -1, 2), (0, 2, 1, -1)):
            a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            if degree is not None:
                a[DEGREE != degree] = 0.0
            f.set_coeff(k, a)
            f.set_coeff([-v for v in k], a.conj())
        return f

    exterior_d(real_form()).save(Path(directory, "target-order1.json"))
    exterior_d(twisted_d(real_form(), "J")).save(Path(directory, "target-order2.json"))
    quartic_differential(real_form(degree=0)).save(Path(directory, "target-order4.json"))


if __name__ == "__main__":
    from qhodge.cli import main

    write_targets(PINNED_DIR)
    for argv, code, name in RUNS:
        if name is not None and main([*argv, "--out", str(PINNED_DIR / name)]) != code:
            sys.exit(f"{name}: exit code is not {code}")
