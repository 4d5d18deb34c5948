"""Committed outputs of small CLI runs that every later tree must reproduce.

Each file under tests/pinned/ is the --out document of one command line in
reference_runs.RUNS.  The test reruns it and requires the same exit code and document
shape (keys, list lengths, types), the same strings, booleans and integers,
and the same input echo, with every float within 1e-13 relative.  A float
under a key that names a residual, or torsion's method_agreement (the gap
between two log det' methods, which verify checks as a residual), may
instead be within 1e-13 absolute: a residual is rounding noise, which
another BLAS kernel or SIMD width changes by up to 100% (1.8e-15 read 8.9e-15
with OpenBLAS's Sandybridge kernels, an untwisted method_agreement 4.4e-16
read 1.3e-15); its verdict against the tolerance is still compared exactly.
Every command line of RUNS without a file must give its exit code and write
no file.  tests/reference_runs.py says how the pinned files are regenerated.
"""

import json
import math

import pytest

from qhodge.cli import main
from reference_runs import PINNED_DIR, RUNS, label, write_targets

# the key under which each subcommand echoes its input
ECHO = {"verify": "config", "torsion": "theta", "lapl-constant": "modes", "transgress": "order"}

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


@pytest.mark.parametrize("argv, code, name",
                         [pytest.param(*run, id=run[2]) for run in RUNS if run[2] is not None])
def test_output_matches_pinned(tmp_path, argv, code, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((PINNED_DIR / name).read_text(encoding="utf-8"))
    assert got[ECHO[argv[0]]] == want[ECHO[argv[0]]]
    assert mismatch(got, want) is None


@pytest.mark.parametrize("argv, code", [pytest.param(argv, code, id=label(argv))
                                        for argv, code, name in RUNS if name is None])
def test_unpinned_run_exits_and_writes_nothing(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert list(tmp_path.iterdir()) == []


def test_every_pinned_report_is_one_runs_entry():
    # the committed targets are inputs; every other file is the report of exactly one entry
    named = sorted(name for _, _, name in RUNS if name is not None)
    assert named == sorted(path.name for path in PINNED_DIR.glob("*.json")
                           if not path.name.startswith("target-order"))


def test_committed_targets_are_reproducible(tmp_path):
    write_targets(tmp_path)
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written == {path.name: path.read_bytes() for path in PINNED_DIR.glob("target-*.json")}


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
