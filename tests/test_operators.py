"""The operator algebra on form fields: d, d_C, d_x, adjoints, Delta, G, H.

Single-mode expected values are frozen from the mode-symbol oracle: on the
mode k the exterior derivative acts as 2 pi i (wedge by k), so every
operator identity reduces to finite-dimensional linear algebra that was
derived independently before being asserted here.
"""

import numpy as np
import pytest

from qhodge.exterior import GRADING, INTERIOR_E, N_BLADES, VOL, WEDGE_E
from qhodge.fields import FormField, dump_json, grid, random_field, single_mode
from qhodge.operators import (
    apply_fiber,
    cancellation_defect,
    conjugation_defect,
    d_star,
    exterior_d,
    grading,
    green,
    harmonic_project,
    kodaira_samples,
    kodaira_suite,
    laplacian,
    laplacian_hodge,
    quaternionic_d,
    quaternionic_d_star,
    rel_defect,
    twisted_d,
    twisted_d_star,
    xhat,
)
from qhodge import operators
from qhodge.quaternionic import (
    AD,
    GROUP,
    STRUCTURE_NAMES,
    left_matrix,
    lefschetz_dual_matrix,
    lefschetz_matrix,
    rotor_matrix,
    structure_matrix,
    xhat_matrix,
)

SEED = 99


def blade(mask):
    return np.eye(N_BLADES)[mask]


ONE = np.array([1.0, 0.0, 0.0, 0.0])  # the unit quaternion


def rand_quat(rng):
    return rng.standard_normal(4)


class TestExteriorD:
    def test_constant_is_closed(self):
        f = single_mode(2, (0, 0, 0, 0), 2.0 * blade(0b0011))
        assert exterior_d(f).norm() == 0.0

    def test_single_mode_value(self):
        # d(e^{2 pi i xi^1}) = 2 pi i e^{2 pi i xi^1} dxi^1
        f = single_mode(2, (1, 0, 0, 0), blade(0))
        df = exterior_d(f)
        expected = single_mode(2, (1, 0, 0, 0), 2j * np.pi * blade(0b0001))
        assert rel_defect(df, expected) <= 1e-15

    def test_d_squared_zero(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            f = random_field(2, rng)
            df = exterior_d(f)
            assert exterior_d(df).norm() <= 1e-12 * df.norm()

    def test_preserves_truncation_and_realness(self):
        rng = np.random.default_rng(SEED + 1)
        f = random_field(2, rng, real=True)
        df = exterior_d(f)
        assert df.kmax == f.kmax
        assert df.realness_defect() <= 1e-12 * f.norm()


def literal_symbol(coeffs, weights, tables, scale):
    """sum_a (coeffs @ E_a.T) * weights[:, a], times scale: the symbol as four products."""
    out = (coeffs @ tables[0].T) * weights[:, 0, None]
    for a in range(1, 4):
        out += (coeffs @ tables[a].T) * weights[:, a, None]
    return out * scale


def unit_weights(a):
    """Weights that select axis a on each of 16 rows."""
    w = np.zeros((N_BLADES, 4))
    w[:, a] = 1.0
    return w


SYMBOLS = [(operators._EPS_PLAN, WEDGE_E, 2j * np.pi), (operators._IOTA_PLAN, INTERIOR_E, -2j * np.pi)]


class TestSymbolKernel:
    """The slab kernel against the literal sum of four fiber products."""

    @pytest.mark.parametrize("kmax", [0, 1, 2, 3])
    def test_equals_literal_formula(self, kmax):
        rng = np.random.default_rng(SEED + 30 + kmax)
        matrices = [np.eye(4), *(structure_matrix(c) for c in "IJK"),
                    left_matrix(rand_quat(rng)), rng.standard_normal((4, 4))]
        # a cosine mode a (e^{2 pi i k.xi} + e^{-2 pi i k.xi}) with real a has real coefficients
        k = (min(kmax, 1), 0, -min(kmax, 1), min(kmax, 1))
        a = rng.standard_normal(N_BLADES)
        cosine = single_mode(kmax, k, a) + single_mode(kmax, tuple(-np.array(k)), a)
        assert not np.iscomplex(cosine.coeffs).any()
        for f in (random_field(kmax, rng), random_field(kmax, rng), cosine):
            for L in matrices:
                weights = grid(kmax)[0] @ L.T
                for plan, tables, scale in SYMBOLS:
                    got = operators._apply_symbol(f.coeffs, weights, plan, scale)
                    want = literal_symbol(f.coeffs, weights, tables, scale)
                    assert np.array_equal(got, want)
                    if f is cosine:
                        assert "".join(dump_json(FormField(kmax, got))) == \
                            "".join(dump_json(FormField(kmax, want)))

    def test_plans_rebuild_the_tables(self):
        units = np.eye(N_BLADES, dtype=complex)  # row m: the unit blade m
        for plan, tables, _ in SYMBOLS:
            for a in range(4):
                rebuilt = operators._apply_symbol(units, unit_weights(a), plan, 1.0).T
                assert np.array_equal(rebuilt, tables[a])

    def test_plan_from_a_corrupted_table_differs(self):
        bad = WEDGE_E.copy()
        bad[2, 0b0100, 0] *= -1  # dxi^3 = -(dxi^3 ^ 1)
        rebuilt = operators._apply_symbol(np.eye(N_BLADES, dtype=complex), unit_weights(2),
                                          operators._axis_plan(bad), 1.0).T
        assert np.array_equal(rebuilt, bad[2])
        assert not np.array_equal(rebuilt, WEDGE_E[2])

    def test_table_that_is_no_bit_flip_is_refused(self):
        bad = WEDGE_E.copy()
        bad[1, 0b0011, 0] = 1.0  # blade 0 sent to a blade two bits away
        with pytest.raises(AssertionError, match="table 1 is not a signed flip of bit 1"):
            operators._axis_plan(bad)


class TestApplyFiber:
    """apply_fiber's blade-major product against the row-major one."""

    @staticmethod
    def fiber_matrices(rng):
        """Every kind of fiber matrix the package applies to a field."""
        u = rng.standard_normal(4)
        return [*AD.values(), *GROUP.values(),
                *(lefschetz_matrix(c) for c in STRUCTURE_NAMES),
                *(lefschetz_dual_matrix(c) for c in STRUCTURE_NAMES),
                GRADING, rotor_matrix(u / np.linalg.norm(u)), xhat_matrix(rng.standard_normal(4))]

    @pytest.mark.parametrize("kmax", range(5))
    def test_within_the_dot_product_bound_of_the_row_major_product(self, kmax):
        # Each entry is a 16-term dot product.  Whether BLAS sums the
        # blade-major (16, 16) @ (16, n) product and the row-major
        # (n, 16) @ (16, 16) one in the same order depends on its kernel (and
        # at one mode on gemv against gemm), so the check is the gap that the
        # forward error bounds of two length-16 dot products allow (with a
        # factor 2 for the modulus of a complex entry).
        rng = np.random.default_rng(SEED + 40 + kmax)
        f = random_field(kmax, rng)
        row_major = np.ascontiguousarray(f.coeffs)
        for M in self.fiber_matrices(rng):
            assert np.isrealobj(M)
            bound = 2 * N_BLADES * np.finfo(float).eps * (np.abs(row_major) @ np.abs(M).T)
            assert np.all(np.abs(apply_fiber(f, M).coeffs - row_major @ M.T) <= bound)


class TestTwistedD:
    def test_constant(self):
        f = single_mode(1, (0, 0, 0, 0), blade(0))
        assert twisted_d(f, "I").norm() == 0.0

    def test_realizations_agree(self):
        rng = np.random.default_rng(SEED + 2)
        for n in "IJK":
            for _ in range(30):
                f = random_field(1, rng)
                # d_C = [ad_C, d]
                ad_form = apply_fiber(exterior_d(f), AD[n]) - exterior_d(apply_fiber(f, AD[n]))
                assert rel_defect(twisted_d(f, n), ad_form) <= 1e-11

    def test_nilpotent_and_anticommuting(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(10):
            f = random_field(2, rng)
            dI = twisted_d(f, "I")
            assert twisted_d(dI, "I").norm() <= 1e-11 * dI.norm()
            a = exterior_d(dI)
            b = twisted_d(exterior_d(f), "I")
            assert cancellation_defect(a + b, a, b) <= 1e-11

    def test_sphere_structure(self):
        rng = np.random.default_rng(SEED + 4)
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        f = random_field(1, rng)
        combo = s[0] * twisted_d(f, "I") + s[1] * twisted_d(f, "J") + s[2] * twisted_d(f, "K")
        assert rel_defect(twisted_d(f, s), combo) <= 1e-12


class TestQuaternionicD:
    def test_unit_is_exterior_d(self):
        rng = np.random.default_rng(SEED + 5)
        f = random_field(1, rng)
        assert rel_defect(quaternionic_d(f, ONE), exterior_d(f)) == 0.0

    def test_relation_i(self):
        rng = np.random.default_rng(SEED + 6)
        for _ in range(20):
            f = random_field(1, rng)
            x, y = rand_quat(rng), rand_quat(rng)
            lhs = xhat(quaternionic_d(f, y), x) - quaternionic_d(xhat(f, x), y)
            assert rel_defect(lhs, quaternionic_d(f, left_matrix(x) @ y)) <= 1e-10

    def test_relation_ii(self):
        rng = np.random.default_rng(SEED + 7)
        for _ in range(20):
            f = random_field(1, rng)
            x, y = rand_quat(rng), rand_quat(rng)
            a = quaternionic_d(quaternionic_d(f, y), x)
            b = quaternionic_d(quaternionic_d(f, x), y)
            assert cancellation_defect(a + b, a, b) <= 1e-10

    def test_relation_iii(self):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(20):
            f = random_field(1, rng)
            x, y = rand_quat(rng), rand_quat(rng)
            a = quaternionic_d(quaternionic_d_star(f, y), x)
            b = quaternionic_d_star(quaternionic_d(f, x), y)
            rhs = (x @ y) * laplacian(f)  # Re(conj(x) y) = x . y
            denom = max(a.norm() + b.norm(), rhs.norm())
            assert (a + b - rhs).norm() <= 1e-10 * denom

    def test_grading_is_xhat_at_one(self):
        rng = np.random.default_rng(SEED + 9)
        f = random_field(1, rng)
        assert rel_defect(xhat(f, ONE), grading(f)) == 0.0

    def test_n_commutator_with_d(self):
        rng = np.random.default_rng(SEED + 10)
        f = random_field(1, rng)
        df = exterior_d(f)
        assert rel_defect(grading(df) - exterior_d(grading(f)), df) <= 1e-12


class TestAdjoints:
    def test_adjoint_on_constant(self):
        f = single_mode(1, (0, 0, 0, 0), blade(0b0001))
        assert d_star(f).norm() == 0.0

    def test_adjointness(self):
        rng = np.random.default_rng(SEED + 11)
        for _ in range(20):
            f, g = random_field(1, rng), random_field(1, rng)
            scale = 2 * np.pi * f.norm() * g.norm()
            assert abs(exterior_d(f).inner(g) - f.inner(d_star(g))) <= 1e-11 * scale
            assert abs(twisted_d(f, "J").inner(g) - f.inner(twisted_d_star(g, "J"))) <= 1e-11 * scale
            x = rand_quat(rng)
            assert (
                abs(quaternionic_d(f, x).inner(g) - f.inner(quaternionic_d_star(g, x)))
                <= 1e-11 * scale * np.linalg.norm(x)
            )


class TestLaplacian:
    def test_constant_harmonic(self):
        f = single_mode(1, (0, 0, 0, 0), VOL)
        assert laplacian(f).norm() == 0.0

    def test_single_mode_eigenvalue(self):
        # oracle: apply dd* + d*d symbolically to a single mode; the
        # cross terms cancel and the eigenvalue is 4 pi^2 |k|^2
        k = (2, -1, 0, 3)
        lam = 4 * np.pi**2 * sum(v * v for v in k)
        f = single_mode(3, k, 1.5 * blade(0b0110))
        assert rel_defect(laplacian(f), lam * f) <= 1e-14
        assert rel_defect(laplacian_hodge(f), lam * f) <= 1e-13

    def test_matches_hodge_composition(self):
        rng = np.random.default_rng(SEED + 13)
        for _ in range(10):
            f = random_field(1, rng)
            assert rel_defect(laplacian(f), laplacian_hodge(f)) <= 1e-12

    def test_hodge_composition_is_the_literal_sum(self):
        # assembled in the array of its first term: the bits of the plain sum, and f untouched
        rng = np.random.default_rng(SEED + 15)
        for kmax in (1, 3):
            f = random_field(kmax, rng)
            before = f.coeffs.copy()
            want = d_star(exterior_d(f)) + exterior_d(d_star(f))
            assert np.array_equal(laplacian_hodge(f).coeffs, want.coeffs)
            assert np.array_equal(f.coeffs, before)

    def test_twisted_laplacian_equal(self):
        # Delta_d = Delta_{d_C}
        rng = np.random.default_rng(SEED + 14)
        for n in "IJK":
            f = random_field(1, rng)
            viaC = twisted_d_star(twisted_d(f, n), n) + twisted_d(twisted_d_star(f, n), n)
            assert rel_defect(viaC, laplacian(f)) <= 1e-10


class TestGreen:
    def test_green_kills_harmonic(self):
        f = single_mode(1, (0, 0, 0, 0), VOL)
        assert green(f).norm() == 0.0

    def test_harmonic_projector(self):
        f = single_mode(1, (1, 0, 0, 0), VOL)
        assert harmonic_project(f).norm() == 0.0
        g = single_mode(1, (0, 0, 0, 0), 2.0 * blade(0))
        assert rel_defect(harmonic_project(g), g) == 0.0

    def test_hodge_decomposition(self):
        rng = np.random.default_rng(SEED + 15)
        for _ in range(100):
            f = random_field(1, rng)
            rec = harmonic_project(f) + laplacian(green(f))
            assert rel_defect(rec, f) <= 1e-12

    def test_green_realness(self):
        rng = np.random.default_rng(SEED + 16)
        f = random_field(1, rng, real=True)
        for op in (green, harmonic_project, laplacian):
            assert op(f).realness_defect() <= 1e-12 * f.norm()


class TestRelDefect:
    def test_both_vanish(self):
        assert rel_defect(FormField(1), FormField(1)) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_equals_the_literal_quotients(self, kmax, scale):
        # near 1e200 the squares overflow and near 1e-200 they underflow, so every
        # norm takes its rescaled sum
        rng = np.random.default_rng(SEED + 30 + kmax)
        a, b = random_field(kmax, rng) * scale, random_field(kmax, rng) * scale
        assert rel_defect(a, b) == (a - b).norm() / max(a.norm(), b.norm())
        assert rel_defect(FormField(kmax), b) == 1.0
        assert cancellation_defect(a + b, a, b) == (a + b).norm() / (a.norm() + b.norm())
        zero = FormField(kmax)
        assert rel_defect(zero, FormField(kmax)) == 0.0
        assert cancellation_defect(zero, zero, FormField(kmax)) == 0.0

    def test_nan_operand_keeps_nan(self):
        nan_field = FormField(1)
        nan_field.coeffs[3, 5] = np.nan
        assert np.isnan(rel_defect(FormField(1), nan_field))
        assert np.isnan(rel_defect(nan_field, FormField(1)))


class TestKodaira:
    def test_constant_field(self):
        f = single_mode(1, (0, 0, 0, 0), blade(0))
        assert max(kodaira_suite(f).values()) == 0.0

    def test_random_fields(self):
        rng = np.random.default_rng(SEED + 17)
        for _ in range(10):
            f = random_field(1, rng)
            res = kodaira_suite(f)
            assert len(res) == 14
            assert max(res.values()) <= 1e-10

    def test_identity_names(self):
        f = FormField(1)
        res = kodaira_suite(f)
        assert "dK_star_eq_comm_LambdaI_dJ" in res
        assert "dJ_star_eq_comm_dK_LambdaI" in res

    @pytest.mark.parametrize("name, marker, count", [
        ("lefschetz_dual_matrix", "Lambda", 8),
        ("lefschetz_matrix", "comm_L_", 6),
    ])
    def test_each_channel_can_fail(self, name, marker, count, monkeypatch):
        # a sign error in Lambda_C (or L_C) flips every commutator built from it
        f = random_field(2, np.random.default_rng(SEED + 20))
        good = kodaira_suite(f)
        original = getattr(operators, name)
        monkeypatch.setattr(operators, name, lambda c: -original(c))
        bad = kodaira_suite(f)
        hit = [k for k in bad if marker in k]
        assert len(hit) == count
        assert all(bad[k] >= 1.0 for k in hit)
        assert all(bad[k] == good[k] for k in bad if k not in hit)

    def test_sample_loop_equals_one_call_per_field(self):
        # each sample's operands are computed afresh, and no input array is written
        rng = np.random.default_rng(SEED + 22)
        fields = [random_field(2, rng) for _ in range(3)]
        before = [f.coeffs.copy() for f in fields]
        assert list(kodaira_samples(fields)) == [kodaira_suite(f) for f in fields]
        assert all(np.array_equal(f.coeffs, c) for f, c in zip(fields, before))

    def test_matches_literal_compositions(self):
        # each identity written out as its two compositions, bit for bit
        rng = np.random.default_rng(SEED + 21)
        for _ in range(10):
            f = random_field(2, rng)
            want = {}
            for n in ("I", "J", "K"):
                L, Lam = lefschetz_matrix(n), lefschetz_dual_matrix(n)
                want[f"dC_star_eq_comm_Lambda_d[{n}]"] = rel_defect(
                    twisted_d_star(f, n),
                    apply_fiber(exterior_d(f), Lam) - exterior_d(apply_fiber(f, Lam)),
                )
                want[f"d_star_eq_minus_comm_Lambda_dC[{n}]"] = rel_defect(
                    d_star(f),
                    -1 * (apply_fiber(twisted_d(f, n), Lam) - twisted_d(apply_fiber(f, Lam), n)),
                )
                want[f"d_eq_comm_L_dC_star[{n}]"] = rel_defect(
                    exterior_d(f),
                    apply_fiber(twisted_d_star(f, n), L) - twisted_d_star(apply_fiber(f, L), n),
                )
                want[f"dC_eq_minus_comm_L_d_star[{n}]"] = rel_defect(
                    twisted_d(f, n),
                    -1 * (apply_fiber(d_star(f), L) - d_star(apply_fiber(f, L))),
                )
            LamI = lefschetz_dual_matrix("I")
            want["dK_star_eq_comm_LambdaI_dJ"] = rel_defect(
                twisted_d_star(f, "K"),
                apply_fiber(twisted_d(f, "J"), LamI) - twisted_d(apply_fiber(f, LamI), "J"),
            )
            want["dJ_star_eq_comm_dK_LambdaI"] = rel_defect(
                twisted_d_star(f, "J"),
                twisted_d(apply_fiber(f, LamI), "K") - apply_fiber(twisted_d(f, "K"), LamI),
            )
            assert kodaira_suite(f) == want


class TestConjugationLaw:
    def test_trivial_u(self):
        rng = np.random.default_rng(SEED + 18)
        f = random_field(1, rng)
        assert conjugation_defect(f, ONE, rand_quat(rng)) <= 1e-14

    def test_quarter_rotation(self):
        # U = I realizes d -> d_I
        rng = np.random.default_rng(SEED + 19)
        f = random_field(1, rng)
        assert conjugation_defect(f, np.array([0.0, 1.0, 0.0, 0.0]), ONE) <= 1e-10

    def test_random(self):
        rng = np.random.default_rng(SEED + 20)
        for _ in range(10):
            f = random_field(1, rng)
            u = rand_quat(rng)
            u /= np.linalg.norm(u)
            assert conjugation_defect(f, u, rand_quat(rng)) <= 1e-10
