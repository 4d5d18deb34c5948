"""Committed outputs of small CLI runs that every later tree must reproduce.

Each file under tests/pinned/ is the --out document of one command line in
PINNED.  The test reruns it and requires the same exit code and document
shape (keys, list lengths, types), the same strings, booleans and integers,
and the same config echo, with every float within 1e-13 relative.  A float
under a key that names a residual, or torsion's method_agreement (the gap
between two log det' methods, which verify checks as a residual), may
instead be within 1e-13 absolute: a residual is rounding noise, which
another BLAS kernel or SIMD width changes by up to 100% (1.8e-15 read 8.9e-15
with OpenBLAS's Sandybridge kernels, an untwisted method_agreement 4.4e-16
read 1.3e-15); its verdict against the tolerance is still compared exactly.

The transgress lines read seeded targets that are committed beside their
outputs.  A change that alters an output on purpose regenerates the targets,
then the outputs, with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and says so in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from qhodge.cli import main

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
THETA = "0.13,0.71,0.29,0.9"


def target(order: int) -> str:
    return str(PINNED_DIR / f"target-order{order}.json")


# file: (command line, exit code, key of the echoed input)
PINNED = {
    "verify.json": (["verify", "--kmax", "2", "--fields", "2", "--seed", "7", "--theta", THETA],
                    0, "config"),
    "torsion.json": (["torsion", "--theta", THETA], 0, "theta"),
    "torsion-untwisted.json": (["torsion"], 0, "theta"),
    "torsion-half.json": (["torsion", "--theta", "0.5,0,0,0"], 0, "theta"),
    "lapl-constant.json": (["lapl-constant"], 0, "modes"),
    "transgress-order1.json": (["transgress", "--order", "1", "--input", target(1)], 0, "order"),
    "transgress-order2-J.json": (["transgress", "--order", "2", "--structure", "J",
                                  "--input", target(2)], 0, "order"),
    "transgress-order4.json": (["transgress", "--order", "4", "--input", target(4)], 0, "order"),
}

REL_TOL = 1e-13
RESIDUAL_ABS_TOL = 1e-13
RESIDUAL_KEYS = ("residual", "method_agreement")


def mismatch(got, want, path=""):
    """The path of the first place where got differs from want, or None."""
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} against {type(want).__name__}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} against {sorted(want)}"
        found = (mismatch(got[k], want[k], f"{path}/{k}") for k in sorted(want))
        return next(filter(None, found), None)
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} against {len(want)}"
        found = (mismatch(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want)))
        return next(filter(None, found), None)
    if isinstance(want, float):
        abs_tol = RESIDUAL_ABS_TOL if any(key in path for key in RESIDUAL_KEYS) else 0.0
        same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)
    else:
        same = got == want
    return None if same else f"{path}: {got!r} against {want!r}"


@pytest.mark.parametrize("name", PINNED)
def test_output_matches_pinned(tmp_path, name):
    argv, code, echo = PINNED[name]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((PINNED_DIR / name).read_text(encoding="utf-8"))
    assert got[echo] == want[echo]
    assert mismatch(got, want) is None


@pytest.mark.parametrize("got, want, where", [
    ({"a": 1.0}, {"a": 1.0 + 1e-12}, "/a"),
    ({"checks": {"x": {"residual": 3e-13}}}, {"checks": {"x": {"residual": 1e-16}}},
     "/checks/x/residual"),
    ({"pass": 1}, {"pass": True}, "/pass: int"),
    ({"a": [1.0]}, {"a": [1.0, 2.0]}, "/a: length"),
    ({"a": 1.0, "b": 2.0}, {"a": 1.0}, ": keys"),
], ids=["float", "residual", "type", "length", "keys"])
def test_mismatch_is_found(got, want, where):
    assert mismatch(got, want).startswith(where)


def test_rounding_noise_matches():
    assert mismatch({"a": 0.5 * (1 + 1e-15), "max_residual": 8.9e-15, "method_agreement": 1.3e-15},
                    {"a": 0.5, "max_residual": 1.8e-15, "method_agreement": 4.4e-16}) is None


def write_targets():
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

    exterior_d(real_form()).save(target(1))
    exterior_d(twisted_d(real_form(), "J")).save(target(2))
    quartic_differential(real_form(degree=0)).save(target(4))


if __name__ == "__main__":
    write_targets()
    for name, (argv, code, _) in PINNED.items():
        if main([*argv, "--out", str(PINNED_DIR / name)]) != code:
            sys.exit(f"{name}: exit code is not {code}")
