"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import oracles
from qhodge import spin, zeta
from qhodge.fields import random_field
from qhodge.operators import (
    cancellation_defect,
    exterior_d,
    kodaira_suite,
    laplacian,
    quaternionic_d,
    quaternionic_d_star,
    rel_defect,
    twisted_d,
    xhat,
)
from qhodge.quaternionic import left_matrix
from qhodge.transgression import (
    NotDCClosed,
    measure_lapl_constant,
    quartic_differential,
    transgress4,
)

SEED = 2026


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")


def test_criterion_1_operator_algebra_suite():
    """Prop trgr1 (i)-(iii): 100 fields at kmax 4, 20 quaternion pairs, <= 1e-10."""
    tol = 1e-10
    t0 = time.monotonic()
    rng = np.random.default_rng([SEED, 1])
    pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(20)]
    worst = 0.0
    for i in range(100):
        f = random_field(4, rng)
        x, y = pairs[i % 20]

        lhs = xhat(quaternionic_d(f, y), x) - quaternionic_d(xhat(f, x), y)
        worst = max(worst, rel_defect(lhs, quaternionic_d(f, left_matrix(x) @ y)))

        a = quaternionic_d(quaternionic_d(f, y), x)
        b = quaternionic_d(quaternionic_d(f, x), y)
        worst = max(worst, cancellation_defect(a + b, a, b))

        a = quaternionic_d(quaternionic_d_star(f, y), x)
        b = quaternionic_d_star(quaternionic_d(f, x), y)
        rhs = (x @ y) * laplacian(f)  # Re(conj(x) y) = x . y
        worst = max(worst, (a + b - rhs).norm() / max(a.norm() + b.norm(), rhs.norm()))
    elapsed = time.monotonic() - t0
    ok = worst <= tol and elapsed <= 60.0
    _report(1, ok, f"operator algebra: max residual {worst:.2e} <= {tol}, {elapsed:.1f}s <= 60s")
    assert worst <= tol
    assert elapsed <= 60.0


def test_criterion_2_kodaira_suite():
    """All six identities of the generalized Kodaira set on 100 fields, <= 1e-10."""
    tol = 1e-10
    rng = np.random.default_rng([SEED, 2])
    worst = {}
    for _ in range(100):
        f = random_field(4, rng)
        for name, val in kodaira_suite(f).items():
            worst[name] = max(worst.get(name, 0.0), val)
    top = max(worst.values())
    ok = top <= tol
    _report(2, ok, f"kodaira identities ({len(worst)} residual channels): max {top:.2e} <= {tol}")
    assert top <= tol


def test_criterion_3_fourth_order_transgression():
    """25 quartic targets at kmax 6 reconstruct <= 1e-8; 25 bad inputs rejected."""
    tol = 1e-8
    rng = np.random.default_rng([SEED, 3])
    worst = 0.0
    for _ in range(25):
        sigma = random_field(6, rng, degree=0)
        res = transgress4(quartic_differential(sigma), tol=tol)
        worst = max(worst, res.residual)

    rejected = 0
    for _ in range(25):
        degree = int(rng.integers(1, 3))
        bad = exterior_d(random_field(3, rng, degree=degree))
        try:
            transgress4(bad, tol=tol)
        except NotDCClosed:
            rejected += 1
    ok = worst <= tol and rejected == 25
    _report(3, ok, f"transgress4: max residual {worst:.2e} <= {tol}; {rejected}/25 rejections")
    assert worst <= tol
    assert rejected == 25


def test_criterion_4_quartic_constant():
    """Constant over >= 20 modes, spread <= 1e-10, matches the exact oracle."""
    rng = np.random.default_rng([SEED, 4])
    modes = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    while len(modes) < 22:
        k = tuple(int(v) for v in rng.integers(-4, 5, size=4))
        if any(k) and k not in modes:
            modes.append(k)
    c, report = measure_lapl_constant(modes, tol=1e-10)
    oracle_values = {oracles.quartic_constant_oracle(k) for k in modes}
    ok = (
        report["spread"] <= 1e-10
        and len(oracle_values) == 1
        and abs(c - float(next(iter(oracle_values)))) <= 1e-12
        and "16" in report["note"]
    )
    _report(
        4, ok,
        f"quartic constant {c} over {len(modes)} modes, spread {report['spread']:.2e}, "
        f"exact oracle {next(iter(oracle_values))}",
    )
    assert report["spread"] <= 1e-10
    assert len(oracle_values) == 1
    assert c == pytest.approx(float(next(iter(oracle_values))), abs=1e-12)
    assert "16" in report["note"] and "1" in report["note"]


def test_criterion_5_regularized_integral_identities():
    """-log h for h in {0.5, 2, 10} at 1e-10; the second-order identity at 1e-9."""
    worst_log = 0.0
    for h in (0.5, 2.0, 10.0):
        val, _ = zeta.regularized_integral(lambda t, h=h: math.exp(-h * t), {0: 1.0})
        worst_log = max(worst_log, abs(val + math.log(h)))

    def second_order(t):
        # t dt (t dt + 1) e^{-3t}
        return 9 * t * t * math.exp(-3 * t) - 6 * t * math.exp(-3 * t)

    val, _ = zeta.regularized_integral(second_order, {})
    app1 = abs(val + 1.0)
    ok = worst_log <= 1e-10 and app1 <= 1e-9
    _report(5, ok, f"regularized integrals: -log h defect {worst_log:.2e} <= 1e-10, "
                   f"second-order identity defect {app1:.2e} <= 1e-9")
    assert worst_log <= 1e-10
    assert app1 <= 1e-9


def test_criterion_6_zeta_cross_validation():
    """Mellin split vs lattice closed form <= 1e-8; split independence <= 1e-9."""
    mellin = zeta.log_det_prime(theta=(0, 0, 0, 0))
    gap_oracle = abs(mellin.log_det_prime - oracles.jacobi_logdet_oracle())
    a = zeta.log_det_prime(theta=(0, 0, 0, 0), split=0.5)
    b = zeta.log_det_prime(theta=(0, 0, 0, 0), split=2.0)
    split_gap = abs(a.log_det_prime - b.log_det_prime)
    ok = gap_oracle <= 1e-8 and split_gap <= 1e-9
    _report(6, ok, f"log det' {mellin.log_det_prime:.12f}: closed-form gap {gap_oracle:.2e} <= 1e-8, "
                   f"split gap {split_gap:.2e} <= 1e-9")
    assert gap_oracle <= 1e-8
    assert split_gap <= 1e-9


def test_criterion_7_torsion_identities():
    """T = 1, T_h = det0^2, beta0 = 3 log T_h for theta = 0 and (1/2,0,0,0)."""
    t0 = time.monotonic()
    details = []
    ok = True
    for theta in ((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)):
        rep = zeta.torsion_report(theta)
        r = rep["identity_residuals"]
        ok = ok and r["abs(T - 1)"] <= 1e-8
        ok = ok and r["rel(T_h - det0^2)"] <= 1e-8
        ok = ok and r["abs(beta0 - 3 log T_h)"] <= 1e-6
        details.append(
            f"theta={theta[0]}: |T-1|={r['abs(T - 1)']:.1e}, "
            f"Th={r['rel(T_h - det0^2)']:.1e}, beta0={r['abs(beta0 - 3 log T_h)']:.1e}"
        )
        assert r["abs(T - 1)"] <= 1e-8
        assert r["rel(T_h - det0^2)"] <= 1e-8
        assert r["abs(beta0 - 3 log T_h)"] <= 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 300.0
    _report(7, ok, "; ".join(details) + f"; {elapsed:.1f}s <= 300s")
    assert elapsed <= 300.0


def test_criterion_8_supersymmetric_cancellation():
    """sum_q (-1)^q tr e^{-t Delta_q} = 0 to 1e-14 at t in {0.1, 1, 10}."""
    worst = max(abs(zeta.alternating_heat_sum((0, 0, 0, 0), t)) for t in (0.1, 1.0, 10.0))
    ok = worst <= 1e-14
    _report(8, ok, f"graded heat-trace cancellation: max {worst:.2e} <= 1e-14")
    assert worst <= 1e-14


def test_criterion_9_clifford_suite():
    """Clifford relation, chirality, conjugation, grading, sl2 closure at 1e-10."""
    tol = 1e-10
    rng = np.random.default_rng([SEED, 9])
    gamma = spin.chirality()
    h = spin.sl2_triple()[0]
    table = spin.sl2_table()
    omega = spin.omega_operator_check()
    checks = {
        "clifford_relation": spin.clifford_relation_defect(),
        "chirality": float(np.abs(gamma @ gamma - np.eye(4)).max()),
        "conjugation": max(spin.conjugation_defect_sample(rng) for _ in range(20)),
        "grading": max(
            abs(complex(z) - 1j * (2 * q - 2))
            for z, q in zip(spin.grading_eigenvalues(), (0, 1, 1, 2))
        ),
        "h_multiplicities": max(
            abs(a - b) for a, b in zip(sorted(np.diag(h).real), (-1.0, 0.0, 0.0, 1.0))
        ),
        "ef_equals_h": abs(table["[e,f]"]["h"] - 1.0)
        + abs(table["[e,f]"]["e"]) + abs(table["[e,f]"]["f"]),
        "sl2_closure": max(v["residual"] for v in table.values()),
        "prop_forms_e": omega["e_defect"],
        "prop_forms_f": omega["f_defect"],
        "prop_forms_vacuum": omega["f_kills_vacuum"],
    }
    worst = max(checks.values())
    measured = (
        f"[h,e]={table['[h,e]']['e'].real:+.0f}e, [h,f]={table['[h,f]']['f'].real:+.0f}f, "
        f"[e,f]={table['[e,f]']['h'].real:+.0f}h"
    )
    ok = worst <= tol
    _report(9, ok, f"clifford suite: max defect {worst:.2e} <= {tol}; measured sl2 table {measured}")
    assert worst <= tol
