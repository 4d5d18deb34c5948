"""Structure matrices, derivation/group actions, Lefschetz, type projectors."""

import numpy as np
import pytest
from numpy.linalg import norm
from scipy.linalg import expm, null_space

from qhodge.exterior import DEGREE, N_BLADES, VOL, one_form, wedge
from qhodge.quaternionic import (
    AD,
    FORM_RANKS,
    GROUP,
    I,
    J,
    K,
    INVARIANT_PROJECTOR,
    ad_matrix,
    group_matrix,
    invariance_defect,
    kahler_form,
    left_matrix,
    lefschetz_dual_matrix,
    lefschetz_matrix,
    rotor_matrix,
    structure_matrix,
    type_projector_matrix,
)

RNG_SEED = 20240601


def rand_mv(rng, degree=None):
    c = rng.standard_normal(N_BLADES) + 1j * rng.standard_normal(N_BLADES)
    if degree is not None:
        c = c * (DEGREE == degree)
    return c


def scalar(value):
    out = np.zeros(N_BLADES, complex)
    out[0] = value
    return out


class TestMatrices:
    def test_quaternion_relations_exact(self):
        eye = np.eye(4)
        assert np.array_equal(I @ I, -eye)
        assert np.array_equal(J @ J, -eye)
        assert np.array_equal(K @ K, -eye)
        assert np.array_equal(I @ J @ K, -eye)
        assert np.array_equal(I @ J, K)

    def test_orthogonal(self):
        for m in (I, J, K):
            assert np.array_equal(m @ m.T, np.eye(4))

    def test_left_matrix_is_homomorphism(self):
        rng = np.random.default_rng(RNG_SEED)
        x, y = rng.standard_normal((2, 4))
        assert np.allclose(left_matrix(x) @ left_matrix(y), left_matrix(left_matrix(x) @ y))

    def test_dot_is_real_part_of_conjugate_product(self):
        rng = np.random.default_rng(RNG_SEED + 12)
        for x, y in rng.standard_normal((20, 2, 4)):
            conj_x = x * np.array([1.0, -1.0, -1.0, -1.0])
            assert (left_matrix(conj_x) @ y)[0] == pytest.approx(x @ y, abs=1e-14)

    def test_sphere_combination_squares_to_minus_one(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(20):
            s = rng.standard_normal(3)
            s /= np.linalg.norm(s)
            c = structure_matrix(s)
            assert np.allclose(c @ c, -np.eye(4), atol=1e-14)


class TestAdAction:
    def test_kills_scalars(self):
        for n in "IJK":
            assert not (AD[n] @ scalar(1.0)).any()

    def test_su2_commutators(self):
        assert np.abs(AD["I"] @ AD["J"] - AD["J"] @ AD["I"] - 2 * AD["K"]).max() <= 1e-12
        assert np.abs(AD["J"] @ AD["K"] - AD["K"] @ AD["J"] - 2 * AD["I"]).max() <= 1e-12
        assert np.abs(AD["K"] @ AD["I"] - AD["I"] @ AD["K"] - 2 * AD["J"]).max() <= 1e-12

    def test_commutator_on_random_fiber(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(50):
            a = rand_mv(rng)
            lhs = AD["I"] @ (AD["J"] @ a) - AD["J"] @ (AD["I"] @ a)
            rhs = 2 * AD["K"] @ a
            assert norm(lhs - rhs) <= 1e-12 * norm(a)

    def test_type_eigenvalue(self):
        # a (p,q) form w.r.t. I satisfies ad_I a = i(p-q) a
        rng = np.random.default_rng(RNG_SEED + 3)
        for p in range(3):
            for q in range(3):
                a = type_projector_matrix("I", p, q) @ rand_mv(rng, p + q)
                if norm(a) < 1e-9:
                    continue
                assert norm(AD["I"] @ a - 1j * (p - q) * a) <= 1e-12 * norm(a)

    def test_leibniz_rule(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(50):
            a, b = rand_mv(rng), rand_mv(rng)
            lhs = AD["J"] @ wedge(a, b)
            rhs = wedge(AD["J"] @ a, b) + wedge(a, AD["J"] @ b)
            assert norm(lhs - rhs) <= 1e-12 * norm(a) * norm(b)

    def test_ad_matrix_builds_table(self):
        for n in "IJK":
            assert np.array_equal(ad_matrix(n), AD[n])


class TestGroupAction:
    def test_definition_on_two_blade(self):
        a = np.eye(N_BLADES)[0b0001]  # dxi^1
        b = np.eye(N_BLADES)[0b0010]  # dxi^2
        lhs = group_matrix("I") @ wedge(a, b)
        rhs = wedge(one_form(I[:, 0]), one_form(I[:, 1]))
        assert np.allclose(lhs, rhs)

    def test_eigenvalue_on_pq_form(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for p, q in [(1, 0), (2, 0), (1, 1), (2, 1), (0, 2)]:
            a = type_projector_matrix("I", p, q) @ rand_mv(rng, p + q)
            assert norm(a) > 1e-9
            assert norm(GROUP["I"] @ a - 1j ** (p - q) * a) <= 1e-12 * norm(a)

    def test_unit_rotor_preserves_vol(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            u = rng.standard_normal(4)
            rot = rotor_matrix(u / norm(u))
            assert np.abs(rot @ VOL - VOL).max() <= 1e-12

    def test_fourth_power_is_identity(self):
        for n in "IJK":
            assert np.abs(np.linalg.matrix_power(GROUP[n], 4) - np.eye(16)).max() <= 1e-12

    def test_group_equals_exponential(self):
        assert np.allclose(GROUP["I"], expm(np.pi / 2 * AD["I"]), atol=1e-12)

    def test_multiplicativity(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        a, b = rand_mv(rng), rand_mv(rng)
        lhs = GROUP["J"] @ wedge(a, b)
        rhs = wedge(GROUP["J"] @ a, GROUP["J"] @ b)
        assert norm(lhs - rhs) <= 1e-12 * norm(a) * norm(b)


def expm_rotor_oracle(u):
    """exp(phi n.(ad_I, ad_J, ad_K)) for the unit quaternion u = exp(phi n.(i, j, k))."""
    s = norm(u[1:])
    phi = np.arctan2(s, u[0])
    axis = u[1:] / s if s > 0 else np.array([1.0, 0.0, 0.0])  # u = +-1: any axis
    return expm(phi * sum(c * AD[n] for c, n in zip(axis, "IJK")))


class TestRotor:
    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        units = [sign * e for e in np.eye(4) for sign in (1.0, -1.0)]  # +-1, +-i, +-j, +-k
        for u in [v / norm(v) for v in rng.standard_normal((50, 4))] + units:
            rot = rotor_matrix(u)
            assert np.abs(rot - expm_rotor_oracle(u)).max() <= 1e-13
            assert np.abs(rot @ rot.T - np.eye(N_BLADES)).max() <= 1e-14

    def test_accepts_quaternion(self):
        # a quaternion is any length-4 sequence of components
        u = (0.5, -0.5, 0.5, 0.5)
        assert np.array_equal(rotor_matrix(u), rotor_matrix(np.array(u)))

    def test_rejects_non_unit(self):
        u = np.array([0.5, -0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            rotor_matrix(2.0 * u)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            rotor_matrix(np.full(4, np.nan))


class TestLefschetz:
    def test_on_scalar(self):
        out = lefschetz_matrix("I") @ scalar(1.0)
        assert np.allclose(out, kahler_form("I"))

    def test_dual_on_omega(self):
        # <omega_I, omega_I> = 2 for the unit-coefficient construction
        om = kahler_form("I")
        assert np.vdot(om, om) == pytest.approx(2.0, abs=1e-14)
        out = lefschetz_dual_matrix("I") @ om
        assert np.allclose(out, scalar(2.0))

    def test_top_degree_relation(self):
        # Lambda_C^2 (psi vol) = 2 psi
        for n in "IJK":
            out = lefschetz_dual_matrix(n) @ (lefschetz_dual_matrix(n) @ VOL)
            assert np.allclose(out, scalar(2.0), atol=1e-13)

    def test_ko2_conjugation(self):
        # J Lambda_I J^{-1} = -Lambda_I as fiber operators
        rng = np.random.default_rng(RNG_SEED + 8)
        gj = GROUP["J"]
        gj_inv = np.linalg.inv(gj)
        for _ in range(20):
            a = rand_mv(rng)
            lhs = gj @ lefschetz_dual_matrix("I") @ gj_inv @ a
            rhs = -1.0 * lefschetz_dual_matrix("I") @ a
            assert norm(lhs - rhs) <= 1e-12 * norm(a)

    def test_ko2_l_operator(self):
        gj = GROUP["J"]
        li = lefschetz_matrix("I")
        assert np.abs(gj @ li @ np.linalg.inv(gj) + li).max() <= 1e-12


class TestTypeProjectors:
    def test_omega_I_is_11(self):
        om = kahler_form("I")
        assert norm(type_projector_matrix("I", 1, 1) @ om - om) <= 1e-13
        assert norm(AD["I"] @ om) <= 1e-13

    def test_canonical_20_form(self):
        omega = (kahler_form("J") - 1j * kahler_form("K")) * 0.25
        assert norm(type_projector_matrix("I", 2, 0) @ omega - omega) <= 1e-13
        assert norm(type_projector_matrix("I", 0, 2) @ omega) <= 1e-13

    def test_idempotent_and_complete(self):
        for k in range(5):
            pairs = [(p, k - p) for p in range(max(0, k - 2), min(k, 2) + 1)]
            total = sum(type_projector_matrix("I", p, q) for p, q in pairs)
            assert np.abs(total - np.diag((DEGREE == k).astype(float))).max() <= 1e-12
            for p, q in pairs:
                proj = type_projector_matrix("I", p, q)
                assert np.abs(proj @ proj - proj).max() <= 1e-12

    def test_form_ranks_are_the_projector_traces(self):
        # dim Lambda^{q,0} = C(2, q) on a fiber of complex dimension 2, for every structure
        assert FORM_RANKS == (1, 2, 1)
        assert all(type(r) is int for r in FORM_RANKS)
        for name in ("I", "J", "K"):
            traces = [np.trace(type_projector_matrix(name, q, 0)) for q in range(3)]
            assert np.abs(np.array(traces) - FORM_RANKS).max() <= 1e-12

    def test_commutes_with_degree(self):
        rng = np.random.default_rng(RNG_SEED + 9)
        a = rand_mv(rng)
        out = type_projector_matrix("J", 1, 1) @ a
        assert set(DEGREE[np.abs(out) > 1e-12]) <= {2}


class TestInvariance:
    def test_vol_invariant(self):
        assert invariance_defect(VOL) == 0.0

    def test_scalar_invariant(self):
        assert invariance_defect(scalar(3.7 + 1j)) == 0.0

    def test_one_form_not_invariant(self):
        d1 = np.eye(N_BLADES)[0b0001]
        # ad_I(dxi^1) = I(dxi^1), a unit covector
        assert invariance_defect(d1) == pytest.approx(1.0, abs=1e-14)

    def test_nan_derivation_keeps_nan(self, monkeypatch):
        monkeypatch.setitem(AD, "J", np.full((N_BLADES, N_BLADES), np.nan))
        assert np.isnan(invariance_defect(VOL))

    def test_invariant_projector(self):
        # joint kernel of the three derivations: scalars, ASD 2-forms, vol
        assert INVARIANT_PROJECTOR.shape == (16, 16)
        assert np.trace(INVARIANT_PROJECTOR) == pytest.approx(5.0, abs=1e-10)
        rng = np.random.default_rng(RNG_SEED + 10)
        a = INVARIANT_PROJECTOR @ rand_mv(rng)
        assert invariance_defect(a) <= 1e-12

    def test_invariant_projector_matches_null_space_oracle(self):
        basis = null_space(np.vstack([AD[n] for n in "IJK"]), rcond=1e-12)
        assert np.abs(INVARIANT_PROJECTOR - basis @ basis.T).max() <= 1e-14

    def test_omega_span_is_ad_invariant(self):
        omegas = [kahler_form(n) for n in "IJK"]
        basis = np.stack(omegas, axis=1)
        for n in "IJK":
            for om in omegas:
                image = AD[n] @ om
                coeff, *_ = np.linalg.lstsq(basis, image, rcond=None)
                assert np.linalg.norm(basis @ coeff - image) <= 1e-12
