"""Fiber algebra: wedge, contraction, Hodge star, grading, pairing."""

import numpy as np
import pytest
from numpy.linalg import norm

from qhodge.exterior import (
    DEGREE,
    N_BLADES,
    STAR,
    VOL,
    interior,
    one_form,
    wedge,
    wedge_matrix,
    interior_matrix,
)

ONE = np.eye(N_BLADES)[0]


def dxi(a):
    """The coordinate one-form dxi^a, a = 1..4."""
    return np.eye(N_BLADES)[1 << (a - 1)]


def e(a):
    """Coordinate vector, a = 1..4."""
    return np.eye(4)[a - 1]


def rand_mv(rng, degree=None):
    c = rng.standard_normal(N_BLADES) + 1j * rng.standard_normal(N_BLADES)
    if degree is not None:
        c = c * (DEGREE == degree)
    return c


class TestWedge:
    def test_basis_convention(self):
        out = wedge(dxi(1), dxi(2))
        assert out[0b0011] == 1.0
        assert np.count_nonzero(out) == 1

    def test_alternation(self):
        assert not wedge(dxi(1), dxi(1)).any()

    def test_antisymmetry(self):
        assert np.allclose(wedge(dxi(2), dxi(1)), -wedge(dxi(1), dxi(2)))

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (rand_mv(rng) for _ in range(3))
            lhs = wedge(wedge(a, b), c)
            rhs = wedge(a, wedge(b, c))
            assert norm(lhs - rhs) <= 1e-12 * norm(a) * norm(b) * norm(c)

    def test_graded_commutativity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pa, pb = rng.integers(0, 5, size=2)
            a, b = rand_mv(rng, pa), rand_mv(rng, pb)
            lhs = wedge(a, b)
            rhs = (-1.0) ** (pa * pb) * wedge(b, a)
            scale = max(norm(a) * norm(b), 1e-30)
            assert norm(lhs - rhs) / scale <= 1e-12

    def test_one_form(self):
        v = np.array([1.0, -2.0, 0.5, 3j])
        assert np.array_equal(one_form(v), v @ np.stack([dxi(a) for a in range(1, 5)]))
        assert np.array_equal(wedge_matrix(v), wedge_matrix(one_form(v)))


class TestInterior:
    def test_duality_pairing(self):
        out = interior(e(1), dxi(1))
        assert out[0] == 1.0

    def test_orthogonality(self):
        assert not interior(e(1), dxi(2)).any()

    def test_two_form_contraction(self):
        out = interior(e(1), wedge(dxi(1), dxi(2)))
        assert np.allclose(out, dxi(2))

    def test_derivation_property(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v = rng.standard_normal(4)
            pa = int(rng.integers(0, 5))
            a, b = rand_mv(rng, pa), rand_mv(rng)
            lhs = interior(v, wedge(a, b))
            rhs = wedge(interior(v, a), b) + (-1.0) ** pa * wedge(a, interior(v, b))
            scale = max(norm(v) * norm(a) * norm(b), 1e-30)
            assert norm(lhs - rhs) / scale <= 1e-12

    def test_interior_is_wedge_adjoint(self):
        rng = np.random.default_rng(9)
        for a in range(4):
            x, y = rand_mv(rng), rand_mv(rng)
            lhs = np.vdot(y, wedge(dxi(a + 1), x))
            rhs = np.vdot(interior(e(a + 1), y), x)
            assert abs(lhs - rhs) <= 1e-12 * norm(x) * norm(y)


class TestHodgeStar:
    def test_star_of_one_is_vol(self):
        assert np.allclose(STAR @ ONE, VOL)

    def test_orientation_convention(self):
        out = STAR @ wedge(dxi(1), dxi(2))
        assert np.allclose(out, wedge(dxi(3), dxi(4)))

    def test_double_star_on_one_form(self):
        out = STAR @ (STAR @ dxi(1))
        assert np.allclose(out, -dxi(1))

    def test_double_star_sign_law_all_blades(self):
        for m in range(N_BLADES):
            p = int(DEGREE[m])
            b = np.eye(N_BLADES)[m]
            ss = STAR @ (STAR @ b)
            assert np.array_equal(ss, (-1.0) ** (p * (4 - p)) * b)

    def test_defining_property(self):
        # a ^ star(b) = <a, b> vol for homogeneous a, b of equal degree
        rng = np.random.default_rng(11)
        for p in range(5):
            a, b = rand_mv(rng, p), rand_mv(rng, p)
            lhs = wedge(a, STAR @ b.conj())
            assert abs(lhs[15] - np.vdot(b, a)) <= 1e-12 * norm(a) * norm(b)


class TestPairing:
    def test_blade_gram_is_identity(self):
        gram = np.zeros((N_BLADES, N_BLADES), complex)
        for a in range(N_BLADES):
            for b in range(N_BLADES):
                ea, eb = np.eye(N_BLADES)[a], np.eye(N_BLADES)[b]
                gram[a, b] = wedge(ea, STAR @ eb.conj())[15]
        assert np.abs(gram - np.eye(N_BLADES)).max() == 0.0

    def test_positive_definite_per_degree(self):
        rng = np.random.default_rng(13)
        for p in range(5):
            a = rand_mv(rng, p)
            val = np.vdot(a, a)
            assert val.imag == pytest.approx(0.0, abs=1e-14)
            assert val.real > 0


class TestMatrices:
    def test_wedge_matrix_consistency(self):
        rng = np.random.default_rng(15)
        a, b = rand_mv(rng), rand_mv(rng)
        assert np.allclose(wedge_matrix(a) @ b, wedge(a, b))

    def test_interior_matrix_consistency(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal(4)
        a = rand_mv(rng)
        assert np.allclose(interior_matrix(v) @ a, interior(v, a))

    def test_degree_parts_recoverable(self):
        rng = np.random.default_rng(19)
        a = rand_mv(rng)
        total = np.zeros(N_BLADES, complex)
        for p in range(5):
            total = total + a * (DEGREE == p)
        assert np.array_equal(total, a)

    def test_vol_is_read_only(self):
        with pytest.raises(ValueError):
            VOL[0] = 1.0
