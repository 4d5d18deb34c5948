"""Clifford algebra, spin module, sl2 structure, Dirac blocks."""

import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qhodge import spin
from qhodge.exterior import DEGREE, N_BLADES, one_form, wedge, wedge_matrix
from qhodge.quaternionic import I, J, K


class TestCliffordAction:
    def test_relation_all_pairs(self):
        assert spin.clifford_relation_defect() <= 1e-14

    def test_relation_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            cu, cv = spin.clifford_action(u), spin.clifford_action(v)
            anti = cu @ cv + cv @ cu
            assert np.abs(anti + 2 * float(u @ v) * np.eye(4)).max() <= 1e-12

    def test_creation_on_vacuum(self):
        # c(w^1)|1> = sqrt2 * w^1, i.e. sqrt2 times the unit basis vector
        vac = np.zeros(4, complex)
        vac[0] = 1.0
        out = spin.clifford_action(spin.W_COFRAME[0]) @ vac
        expected = np.zeros(4, complex)
        expected[1] = np.sqrt(2.0) * np.sqrt(2.0)  # |w^1| = sqrt2 in the fiber
        assert np.abs(out - expected).max() <= 1e-14

    def test_vacuum_annihilated_by_antiholomorphic(self):
        assert spin.vacuum_annihilation_defect() == 0.0

    def test_real_unit_vector_squares_to_minus_one(self):
        for a in range(4):
            c = spin.GENERATORS[a]
            assert np.abs(c @ c + np.eye(4)).max() <= 1e-14

    def test_generators_are_exact(self):
        # every entry of c(e^a) is 0, +-1 or +-i, so the squares are exact
        assert set(np.unique(spin.GENERATORS)) <= {0, 1, -1, 1j, -1j}
        for c in spin.GENERATORS:
            assert np.array_equal(c @ c, -np.eye(4))

    def test_relation_defect_keeps_nan(self, monkeypatch):
        gens = spin.GENERATORS.copy()
        gens[2, 0, 1] = np.nan
        monkeypatch.setattr(spin, "GENERATORS", gens)
        assert math.isnan(spin.clifford_relation_defect())

    def test_vacuum_defect_keeps_nan(self, monkeypatch):
        # a NaN in the second of the two annihilators, after a clean first one
        action, calls = spin.clifford_action, itertools.count()
        monkeypatch.setattr(spin, "clifford_action",
                            lambda v: action(v) * (np.nan if next(calls) == 1 else 1.0))
        assert math.isnan(spin.vacuum_annihilation_defect())

    def test_generators_odd_and_antihermitian(self):
        odd = spin.S_DEGREES % 2 == 1
        for g in spin.GENERATORS:
            assert not g[odd == odd[:, None]].any()  # only parity-changing entries
            assert np.abs(g + g.conj().T).max() <= 1e-14


class TestClosedFormOracles:
    """The literal fiber constants against the constructions they replace."""

    def test_literal_matrices_are_the_orthonormalized_ones(self):
        # eps(w^i), iota(wbar^i) on the unnormalized basis (1, w^1, w^2, w^1 ^ w^2)
        eps, iota = np.zeros((2, 4, 4)), np.zeros((2, 4, 4))
        eps[0, 1, 0] = eps[0, 3, 2] = eps[1, 2, 0] = 1.0
        eps[1, 3, 1] = -1.0  # w^2 ^ w^1 = -(w^1 ^ w^2)
        iota[0, 0, 1] = iota[0, 2, 3] = iota[1, 0, 2] = 2.0  # <wbar^i, w^j> = 2 delta_ij
        iota[1, 1, 3] = -2.0
        # coordinates transform with diag(norms), so operators conjugate by it
        norms = np.array([1.0, np.sqrt(2.0), np.sqrt(2.0), 2.0])
        to, back = np.diag(norms), np.diag(1.0 / norms)
        # c(w^i) = sqrt2 eps(w^i) and c(wbar^i) = -sqrt2 iota(wbar^i)
        assert np.abs(np.sqrt(2.0) * to @ eps @ back - spin._C_W).max() <= 1e-15
        assert np.abs(-np.sqrt(2.0) * to @ iota @ back - spin._C_WBAR).max() <= 1e-15

    def test_s_basis_is_the_coframe_over_its_literal_norms(self):
        w1, w2 = (one_form(w) for w in spin.W_COFRAME)
        expected = [np.eye(N_BLADES)[0], w1 / np.sqrt(2.0), w2 / np.sqrt(2.0), wedge(w1, w2) / 2.0]
        assert np.array_equal(spin.s_basis_forms(), np.array(expected))
        # each basis element is homogeneous of its S_DEGREES degree
        assert spin.S_DEGREES.tolist() == [0, 1, 1, 2]
        for phi, q in zip(spin.s_basis_forms(), spin.S_DEGREES):
            assert set(DEGREE[phi != 0]) == {q}

    def test_literal_matrices_are_wedge_and_contraction_on_forms(self):
        # on the embedded S basis, eps(w) is wedging with w and iota(wbar) its adjoint
        phi = spin.s_basis_forms()
        for w, c_w, c_wbar in zip(spin.W_COFRAME, spin._C_W, spin._C_WBAR):
            wedge_w = wedge_matrix(one_form(w))
            eps = phi.conj() @ wedge_w @ phi.T
            iota = phi.conj() @ wedge_w.conj().T @ phi.T
            assert np.abs(np.sqrt(2.0) * eps - c_w).max() <= 1e-15
            assert np.abs(-np.sqrt(2.0) * iota - c_wbar).max() <= 1e-15

    def test_split_matches_coframe_solve(self):
        basis = np.vstack([spin.W_COFRAME, spin.W_COFRAME.conj()]).T  # columns are the coframe
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.abs(np.linalg.solve(basis, v) - spin._split_holomorphic(v)).max() <= 1e-15

    def test_chirality_is_the_ordered_product(self):
        g = np.eye(4, dtype=complex)
        for c in spin.GENERATORS:
            g = g @ c
        assert np.array_equal(spin.chirality(), -g)


class TestQuantization:
    def test_two_blade_is_ordered_product(self):
        form = np.eye(N_BLADES)[0b0011]  # e^1 ^ e^2
        lhs = spin.quantize(form)
        rhs = spin.GENERATORS[0] @ spin.GENERATORS[1]
        assert np.abs(lhs - rhs).max() == 0.0

    def test_linear(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = rng.standard_normal(16)
        lhs = spin.quantize(a + 2.0 * b)
        rhs = spin.quantize(a) + 2.0 * spin.quantize(b)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_tau_map_gives_structure_rotation(self):
        # [c(omega^C)/2, c(v)] = c(C v)
        rng = np.random.default_rng(3)
        for name, mat in (("I", I), ("J", J), ("K", K)):
            com = spin.quantize(spin.spin_kahler_form(name))
            for _ in range(10):
                v = rng.standard_normal(4)
                cv = spin.clifford_action(v)
                lhs = (com @ cv - cv @ com) / 2.0
                rhs = spin.clifford_action(mat @ v)
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_grading_eigenvalues(self):
        # c(omega^I) = i(2q - 2) on the grade-q pieces, ordered (0, 1, 1, 2)
        eig = spin.grading_eigenvalues()
        expected = [1j * (2 * q - 2) for q in (0, 1, 1, 2)]
        assert max(abs(a - b) for a, b in zip(eig, expected)) <= 1e-12


class TestChirality:
    def test_squares_to_one(self):
        g = spin.chirality()
        assert np.abs(g @ g - np.eye(4)).max() <= 1e-13

    def test_is_parity_operator(self):
        g = spin.chirality()
        assert np.allclose(g, np.diag([1, -1, -1, 1]))

    def test_supertrace_four(self):
        assert abs(spin.supertrace(spin.chirality()) - 4.0) <= 1e-12

    def test_commutes_with_even_anticommutes_with_odd(self):
        # n = 4: c(v) Gamma = -Gamma c(v)
        g = spin.chirality()
        for c in spin.GENERATORS:
            assert np.abs(c @ g + g @ c).max() <= 1e-13


class TestSl2:
    def test_h_spectrum(self):
        h, _, _ = spin.sl2_triple()
        assert np.allclose(np.diag(h), [-1, 0, 0, 1], atol=1e-13)
        assert np.abs(h - np.diag(np.diag(h))).max() <= 1e-13

    def test_ef_is_adjoint_pair(self):
        _, e, f = spin.sl2_triple()
        assert np.abs(f - e.conj().T).max() <= 1e-13

    def test_table_closure_and_ef_h(self):
        table = spin.sl2_table()
        assert max(v["residual"] for v in table.values()) <= 1e-10
        assert table["[e,f]"]["h"] == pytest.approx(1.0, abs=1e-12)
        assert abs(table["[e,f]"]["e"]) <= 1e-12
        assert abs(table["[e,f]"]["f"]) <= 1e-12

    def test_h_e_proportional_to_e(self):
        # structure-theory oracle: h is grading-diagonal and e shifts the
        # grade by +2, so [h,e] is a multiple of e with coefficient +/-2
        table = spin.sl2_table()
        assert abs(table["[h,e]"]["h"]) <= 1e-12
        assert abs(table["[h,e]"]["f"]) <= 1e-12
        assert abs(abs(table["[h,e]"]["e"]) - 2.0) <= 1e-12

    def test_h_f_mirrors_h_e(self):
        table = spin.sl2_table()
        assert abs(table["[h,f]"]["f"] + table["[h,e]"]["e"]) <= 1e-12

    def test_measured_constants(self):
        # frozen measured values: [h,e] = 2e, [h,f] = -2f
        table = spin.sl2_table()
        assert table["[h,e]"]["e"] == pytest.approx(2.0, abs=1e-12)
        assert table["[h,f]"]["f"] == pytest.approx(-2.0, abs=1e-12)


class TestSpGroupAction:
    def test_conjugation_rotates_generators(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert spin.conjugation_defect_sample(rng) <= 1e-10

    def test_explicit_quarter_turn(self):
        # exp((pi/4) c(omega^I)) conjugates c(v) to c(exp((pi/2) I) v) = c(Iv)
        com = spin.quantize(spin.spin_kahler_form("I"))
        rot = expm(np.pi / 4 * com / 1.0)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        lhs = rot @ spin.clifford_action(v) @ np.linalg.inv(rot)
        rhs = spin.clifford_action(expm(np.pi / 2 * I) @ v)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestPropForms:
    def test_omega_is_20(self):
        rep = spin.omega_operator_check()
        assert rep["omega_is_20_type"] <= 1e-13

    def test_e_is_wedge_by_omega(self):
        rep = spin.omega_operator_check()
        assert rep["e_defect"] <= 1e-12
        # measured identification normalization, frozen: the operator acts
        # as 2 eps(Omega) on the orthonormal identification
        assert rep["e_normalization"] == pytest.approx(2.0, abs=1e-12)

    def test_f_is_contraction(self):
        rep = spin.omega_operator_check()
        assert rep["f_defect"] <= 1e-12
        assert rep["f_normalization"] == pytest.approx(2.0, abs=1e-12)

    def test_f_on_omega_matches_gram(self):
        # <Omega, Omega> = 1/4; f maps the embedded Omega to 2<Omega,Omega>|1>
        omega = (spin.spin_kahler_form("J") - 1j * spin.spin_kahler_form("K")) * 0.25
        assert np.vdot(omega, omega) == pytest.approx(0.25, abs=1e-14)
        rep = spin.omega_operator_check()
        assert rep["f_on_omega_vs_gram"] == pytest.approx(2.0, abs=1e-12)

    def test_f_kills_vacuum(self):
        rep = spin.omega_operator_check()
        assert rep["f_kills_vacuum"] == 0.0

    def test_fit_to_zero_target_is_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, misfit = spin._fit(np.ones((4, 4)), np.zeros((4, 4)))
        assert cmath.isnan(lam) and math.isnan(misfit)


class TestDiracBlocks:
    def test_untwisted(self):
        rep = spin.dirac_block_check((0, 0, 0, 0), kmax=3)
        assert rep["clifford_symbol_defect"] <= 1e-12
        assert rep["square_defect_rel"] <= 1e-12
        assert rep["even_odd_pairing_defect"] <= 1e-12
        assert rep["graded_heat_trace_rel"] <= 1e-14

    def test_twisted(self):
        rep = spin.dirac_block_check((0.5, 0.0, 0.25, 0.0), kmax=2)
        assert rep["clifford_symbol_defect"] <= 1e-12
        assert rep["square_defect_rel"] <= 1e-12
        assert rep["even_odd_pairing_defect"] <= 1e-12
        assert rep["graded_heat_trace_rel"] <= 1e-14

    @pytest.mark.parametrize("row, col, value, residual, floor", [
        pytest.param(2, 0, 1.0, "even_odd_pairing_defect", 1e-10, id="2-0-1.0"),
        pytest.param(1, 0, 1.5, "even_odd_pairing_defect", 1e-10, id="1-0-1.5"),
        pytest.param(3, 0, 1.0, "graded_heat_trace_rel", 0.1, id="3-0-1.0"),
    ])
    def test_corrupted_symbol_breaks_pairing(self, monkeypatch, row, col, value, residual, floor):
        # a wrong odd entry makes D_k mix parities; a rescaled entry keeps
        # D_k odd but no longer an isometry (up to |kappa|) between halves;
        # an even -> even entry breaks the grading, which the graded trace sees
        bad = spin._C_W[0].copy()
        bad[row, col] = value * (bad[row, col] if bad[row, col] else 1.0)
        monkeypatch.setattr(spin, "_C_W", [bad, spin._C_W[1]])
        for theta in ((0, 0, 0, 0), (0.13, 0.71, 0.29, 0.9)):
            assert spin.dirac_block_check(theta, kmax=2)[residual] > floor

    def test_exact_symbol_reads_zero_and_a_scaled_generator_fails(self, monkeypatch):
        # both sides of the symbol comparison are exact, so the clean value is 0.0
        assert spin.dirac_block_check((0, 0, 0, 0), kmax=2)["clifford_symbol_defect"] == 0.0
        gens = spin.GENERATORS.copy()
        gens[0, 1, 0] *= 1.5
        monkeypatch.setattr(spin, "GENERATORS", gens)
        for theta in ((0, 0, 0, 0), (0.13, 0.71, 0.29, 0.9)):
            assert spin.dirac_block_check(theta, kmax=2)["clifford_symbol_defect"] > 1.0

    def test_single_mode_eigenvalue(self):
        # D^2 on the mode k with character theta acts as 4 pi^2 |k+theta|^2
        theta = np.array([0.5, 0.0, 0.0, 0.0])
        k = np.array([1, 0, 0, 0])
        kappa = 2 * np.pi * (k + theta)
        D = 1j * spin.clifford_action(kappa)
        lam = float(kappa @ kappa)
        assert np.abs(D @ D - lam * np.eye(4)).max() <= 1e-12 * lam
        assert np.abs(D - D.conj().T).max() <= 1e-13  # self-adjoint

