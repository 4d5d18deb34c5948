"""A fixed sample of source mutants that `qhodge verify` must catch.

Each mutant is one textual edit of a copy of the package.  The fiber tables
are derived at import, so each copy runs `python -m qhodge.cli verify` in a
fresh interpreter: the unmutated copy must exit 0 and every mutant must fail
a check (exit 1) or a numerical gate (exit 4), never with a traceback or a
numpy warning on stderr.

The exact fiber checks take their tables as arguments, so their table mutants
run in process: each check reads 0 on the package's tables and at least 1 with
any one nonzero entry's sign flipped.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

import qhodge
from qhodge.exterior import INTERIOR_E, WEDGE
from qhodge.quaternionic import GROUP, STRUCTURE_NAMES
from qhodge.suites import derivation_defect, graded_commutativity_defect, multiplicativity_defect
from reference_runs import run_python

SRC = Path(qhodge.__file__).resolve().parent
ARGV = ["verify", "--kmax", "1", "--fields", "1", "--seed", "7",
        "--theta", "0.13,0.71,0.29,0.9"]

# id: (module file, text that occurs exactly once, its replacement)
MUTANTS = {
    "order2-sign": ("transgression.py", "ORDER2_SIGN = -1.0", "ORDER2_SIGN = +1.0"),
    "I-first-minus-one": ("quaternionic.py", "I = np.array([[0, -1, 0, 0],",
                          "I = np.array([[0, 1, 0, 0],"),
    "c-w-first-nonzero": ("spin.py", "_C_W = 2 * np.array([[[0, 0, 0, 0], [1, 0, 0, 0],",
                          "_C_W = 2 * np.array([[[0, 0, 0, 0], [-1, 0, 0, 0],"),
    "w1-coframe": ("spin.py", "[1.0, -1j, 0.0, 0.0],  # w^1", "[1.0, 1j, 0.0, 0.0],  # w^1"),
    "euler-gamma": ("zeta.py", "EULER_GAMMA = 0.5772156649015328606065120900824024",
                    "EULER_GAMMA = 0.5772156649015328606065120900824024 + 1e-9"),
    "star-sign-mask-3": ("exterior.py", "s[mc, m] = _merge_sign(m, mc)",
                         "s[mc, m] = _merge_sign(m, mc) * (-1 if m == 3 else 1)"),
    # e_1 ^ e_2 = -e_12 while e_2 ^ e_1 = -e_12 too: WEDGE is no longer graded commutative
    "merge-sign-masks-1-2": ("exterior.py", "return 1 - 2 * (s & 1)",
                             "return (1 - 2 * (s & 1)) * (-1 if (a, b) == (1, 2) else 1)"),
    # the form-document writer puts each entry's real part under "im" and its imaginary under "re"
    "writer-re-im": ("fields.py", "im, re = z.imag.tolist(), z.real.tolist()",
                     "im, re = z.real.tolist(), z.imag.tolist()"),
    # the writer looks up k components 1 and 2 in each other's place, so they trade places
    "writer-k-tables": ("fields.py", "k12[k[1]], k12[k[2]]", "k12[k[2]], k12[k[1]]"),
    # the order-4 closed form applies G once to the target's vol column instead of twice
    "order4-one-green": ("transgression.py", "target.coeffs[:, VOL_MASK] * inv * inv",
                         "target.coeffs[:, VOL_MASK] * inv"),
    # apply_fiber's plan sends each matrix entry (i, j) from blade i to blade j: the transpose
    "apply-fiber-transpose": ("operators.py", "_row_plan([mat], [None])",
                              "_row_plan([mat.T], [None])"),
    # a +-1 fiber entry adds its source row whatever its sign: every -1 reads as +1
    "fiber-unit-negate": ("operators.py", "(s, unit, v == -1)",
                          "(s, unit, v == -1 and unit is not None)"),
    # the adjoint's symbol plan drops its negate flags, so iota acts as unsigned bit flips
    "symbol-plan-negate": ("operators.py", "_IOTA_PLAN = _row_plan(INTERIOR_E, range(4))",
                           "_IOTA_PLAN = [[(s, a, False) for s, a, _ in row] "
                           "for row in _row_plan(INTERIOR_E, range(4))]"),
    # both symbol plans drop their negate flags, so d^2 != 0: the transgression solvers
    # refuse their targets, which fails those checks instead of ending the run
    "both-symbol-plans-negate": ("operators.py", "negate != axes[a][1])", "axes[a][1])"),
    # each symbol axis ignores the sign of its row of L: d_I, d_J and d_K lose theirs
    "axis-factor-sign": ("operators.py", "negate != axes[a][1])", "negate)"),
    # a row whose first nonzero entry is negative binds its negation's weight unflipped:
    # d_I, d_J, d_K and d_x act with some axes' signs reversed
    "axis-fold-flip": ("operators.py", "for v in row)), flip", "for v in row)), False"),
}
# mutants that must fail a check (exit 1), not a numerical gate
FAIL_A_CHECK = {"apply-fiber-transpose", "fiber-unit-negate", "symbol-plan-negate",
                "both-symbol-plans-negate", "axis-factor-sign", "axis-fold-flip",
                "merge-sign-masks-1-2"}
# the writer mutants must fail the one check that reads written text back
ROUNDTRIP = {"writer-re-im", "writer-k-tables"}


def run_copy(tmp_path, mutant=None):
    """Run ARGV on a copy of the package under tmp_path, with the mutant's edit applied."""
    shutil.copytree(SRC, tmp_path / "qhodge", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        name, old, new = mutant
        path = tmp_path / "qhodge" / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
    return run_python(tmp_path, ["-m", "qhodge.cli", *ARGV], tmp_path)


def test_unmutated_copy_passes(tmp_path):
    proc = run_copy(tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(tmp_path, name):
    proc = run_copy(tmp_path, MUTANTS[name])
    assert proc.returncode in ((1,) if name in FAIL_A_CHECK else (1, 4)), proc.stderr
    if name in ROUNDTRIP:
        assert b"FAILED: operators:serialization_roundtrip " in proc.stderr
    assert b"Traceback" not in proc.stderr
    # the w^1 mutant zeroes the target of spin._fit; a NaN fails the check, silently
    assert b"RuntimeWarning" not in proc.stderr


def flips(table):
    """(index, copy of table with that entry's sign flipped) for each nonzero entry, in C order."""
    for index in zip(*np.nonzero(table)):
        out = table.copy()
        out[index] *= -1
        yield tuple(map(int, index)), out


class TestTableMutants:
    groups = np.stack([GROUP[n] for n in STRUCTURE_NAMES])

    def test_graded_commutativity(self):
        assert graded_commutativity_defect(WEDGE) == 0.0
        defects = {index: graded_commutativity_defect(w) for index, w in flips(WEDGE)}
        # e_0 ^ e_0 = e_0 commutes whatever its sign; the derivation check sees that flip
        assert defects.pop((0, 0, 0)) == 0.0
        assert min(defects.values()) >= 1

    def test_interior_derivation(self):
        assert derivation_defect(WEDGE, INTERIOR_E) == 0.0
        assert min(derivation_defect(WEDGE, iota) for _, iota in flips(INTERIOR_E)) >= 1
        assert min(derivation_defect(w, INTERIOR_E) for _, w in flips(WEDGE)) >= 1

    def test_group_multiplicativity(self):
        assert multiplicativity_defect(WEDGE, self.groups) == 0.0
        assert min(multiplicativity_defect(WEDGE, g) for _, g in flips(self.groups)) >= 1
