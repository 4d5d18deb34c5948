"""Seeded workloads and the correctness check attached to every operation.

A workload is a fixed list of CLI operations.  Everything an operation
needs (flags, form files) is derived from the benchmark seed and written
before any timing starts; qhodge only ever sees the generated flags and
files.  Each operation carries a check that reads its output file and
raises CheckFailed when the output is wrong.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import forms

# the CLI's default residual tolerance for each transgression order
TRANSGRESS_TOL = {1: 1e-9, 2: 1e-9, 4: 1e-8}
TORSION_TOL = 1e-8
ORACLE_TOL = 1e-8


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    id: str
    argv: list
    out: str
    check: Callable[[dict], None]
    inputs: list = field(default_factory=list)


@dataclass
class Workload:
    ops: list
    grids: list  # truncations whose mode grid every CLI call builds first


def load_oracles(root: str):
    """tests/oracles.py imports no package code; load it by path."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("qhodge_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(token):
    raise CheckFailed(f"output is not strict JSON: {token} token")


def load_strict(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _fmt_theta(theta) -> str:
    return ",".join(repr(float(v)) for v in theta)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close_mod1(a, b) -> bool:
    gap = (np.asarray(a, float) - np.asarray(b, float)) % 1.0
    return bool(np.all(np.minimum(gap, 1.0 - gap) <= 1e-12))


# ---------------------------------------------------------------------------

def verify(rng: np.random.Generator, work: str, tiny: bool, oracles) -> Workload:
    seed = int(rng.integers(0, 2**31 - 1))
    theta = rng.random(4)
    out = os.path.join(work, "verify.json")
    argv = ["verify", "--seed", str(seed), "--theta", _fmt_theta(theta), "--out", out]
    kmax = 4
    if tiny:
        kmax = 2
        argv += ["--kmax", "2", "--fields", "1"]
        for suite in ("exterior", "quaternionic", "operators", "kodaira", "transgression", "clifford"):
            argv += ["--suite", suite]

    def check(doc):
        _require(doc.get("all_pass") is True, f"all_pass is {doc.get('all_pass')!r}")
        cfg = doc["config"]
        _require(cfg["seed"] == seed and cfg["kmax"] == kmax, "report config does not echo the flags")
        _require(_close_mod1(cfg["theta"], theta), "report theta does not echo --theta")

    return Workload([Op("verify", argv, out, check)], [kmax])


def torsion(rng: np.random.Generator, work: str, tiny: bool, oracles) -> Workload:
    log_det0 = oracles.jacobi_logdet_oracle()
    thetas = [np.zeros(4)] + ([] if tiny else [rng.random(4) for _ in range(2)])
    ops = []
    for i, theta in enumerate(thetas):
        out = os.path.join(work, f"torsion-{i}.json")
        untwisted = i == 0
        argv = ["torsion", "--out", out] if untwisted else \
            ["torsion", "--theta", _fmt_theta(theta), "--out", out]

        def check(doc, theta=theta, untwisted=untwisted):
            _require(_close_mod1(doc["theta"], theta), "report theta does not echo --theta")
            for name, value in doc["identity_residuals"].items():
                _require(math.isfinite(value) and value <= TORSION_TOL,
                         f"identity residual {name} = {value!r} > {TORSION_TOL}")
            if untwisted:
                gap = abs(doc["per_q"]["0"]["log_det_prime"] - log_det0)
                _require(gap <= ORACLE_TOL, f"log det' Delta_0 misses the oracle by {gap:.3e}")

        ops.append(Op(f"torsion-{i}", argv, out, check))
    return Workload(ops, [])


def transgress(rng: np.random.Generator, work: str, tiny: bool, oracles) -> Workload:
    structures = {"I": oracles.L_I, "J": oracles.L_J, "K": oracles.L_K}
    dense_kmax, vol_kmax = (2, 2) if tiny else (4, 6)
    name2 = "IJK"[int(rng.integers(0, 3))]
    f = forms.random_real(dense_kmax, rng)
    sigma = forms.random_real(vol_kmax, rng, degree=0)
    quartic = [structures[c] for c in "IJK"]
    problems = [(1, None, f, dense_kmax, []),
                (2, name2, f, dense_kmax, [structures[name2]]),
                (4, None, sigma, vol_kmax, quartic)]
    ops = []
    for order, name, source, kmax, chain in problems:
        target = forms.chain(source, kmax, chain)
        src = os.path.join(work, f"target-{order}.json")
        out = os.path.join(work, f"potential-{order}.json")
        forms.write(src, target, kmax)
        argv = ["transgress", "--order", str(order), "--input", src, "--out", out]
        if name:
            argv[3:3] = ["--structure", name]

        def check(doc, order=order, target=target, kmax=kmax, chain=chain):
            tol = TRANSGRESS_TOL[order]
            _require(doc["order"] == order, f"report order {doc['order']!r} != {order}")
            reported = doc["residual"]
            _require(math.isfinite(reported) and reported <= tol,
                     f"reported residual {reported!r} > {tol}")
            try:
                potential, pk = forms.from_doc(doc["potential"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckFailed(f"malformed potential: {exc}") from exc
            _require(pk == kmax, f"potential truncation {pk} != {kmax}")
            residual = forms.relative_residual(forms.chain(potential, kmax, chain), target)
            _require(residual <= tol, f"recomputed residual {residual:.3e} > {tol}")

        ops.append(Op(f"transgress-{order}", argv, out, check, inputs=[src]))
    return Workload(ops, sorted({dense_kmax, vol_kmax}))


WORKLOADS = {"verify": verify, "torsion": torsion, "transgress": transgress}


def check_op(op: Op, code) -> str | None:
    """None when the operation succeeded, else why it failed."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        op.check(load_strict(op.out))
    except OSError as exc:
        return f"cannot read output: {exc}"
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks an expected field: {exc!r}"
    return None
