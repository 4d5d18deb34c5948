"""Regularized integrals, heat traces, determinants, torsion identities.

Oracles, computed independently of the code under test:
  - brute-force lattice sums at generous radius for heat traces;
  - a from-scratch Poisson-resummation implementation for the modular
    identity;
  - the four-square closed form for the untwisted determinant, with
    zeta'(0), zeta'(-1) taken from mpmath rather than from the constants
    embedded in the package (`oracles.jacobi_logdet_oracle`).
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from oracles import brute_heat_sum, jacobi_logdet_oracle
from qhodge import zeta as Z

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def poisson_rhs_oracle(t, radius=25):
    """(4 pi t)^{-2} sum_m exp(-|m|^2/(4t)) written out from scratch."""
    total = mpmath.mpf(0)
    for m1 in range(-radius, radius + 1):
        for m2 in range(-radius, radius + 1):
            s = m1 * m1 + m2 * m2
            total += mpmath.exp(-mpmath.mpf(s) / (4 * t))
    # four dimensions factorize for theta = 0
    total2 = total * total
    return float(total2 / (4 * mpmath.pi * t) ** 2)


def per_degree_logs(theta):
    """log det' Delta_q for q = 0, 1, 2, computed afresh by torsion_report."""
    per_q = Z.torsion_report(theta)["per_q"]
    logs = [per_q[str(q)]["log_det_prime"] for q in range(3)]
    # the torsion checks must not pass on a placeholder such as (0, 0, 0)
    assert all(math.isfinite(v) and v != 0.0 for v in logs)
    return logs


class TestRegularizedIntegral:
    def test_exponential_gives_minus_log(self):
        for h in (0.5, 2.0, 10.0):
            val, err = Z.regularized_integral(lambda t, h=h: math.exp(-h * t), {0: 1.0})
            assert abs(val + math.log(h)) <= 1e-10
            assert err < 1e-8

    def test_total_derivative(self):
        # t d/dt F with F = e^{-t}: value -F(0)
        val, _ = Z.regularized_integral(lambda t: -t * math.exp(-t), {})
        assert abs(val + 1.0) <= 1e-9

    def test_second_order_identity(self):
        # t dt (t dt + 1) F with F = e^{-3t}: value -F(0)
        def integrand(t):
            return 9 * t * t * math.exp(-3 * t) - 6 * t * math.exp(-3 * t)

        val, _ = Z.regularized_integral(integrand, {})
        assert abs(val + 1.0) <= 1e-9

    def test_linearity_and_convergent_agreement(self):
        val, _ = Z.regularized_integral(lambda t: math.exp(-t) - math.exp(-2 * t), {})
        assert abs(val - math.log(2.0)) <= 1e-10

    def test_singular_powers_validated(self):
        with pytest.raises(ValueError):
            Z.regularized_integral(lambda t: 1.0, {1: 2.0})

    def test_split_invariance_with_singular_part(self):
        def g(t):
            return math.exp(-2 * t) / t**2 + 3 * math.exp(-t)

        # the subtracted integrand loses ~2 digits to cancellation near 0,
        # which the 1e-9 bound leaves room for
        sing = {-2: 1.0, -1: -2.0, 0: 2.0 + 3.0}  # e^{-2t}/t^2 = 1/t^2 - 2/t + 2 - ...
        a, _ = Z.regularized_integral(g, sing, split=0.5)
        b, _ = Z.regularized_integral(g, sing, split=2.0)
        assert abs(a - b) <= 1e-9

    def test_tail_that_does_not_decay_fails(self):
        # int_1^inf dt/t diverges; the truncated exp-sinh sum is finite, and
        # only the end nodes, weighed differently by the two levels, show it
        with pytest.raises(Z.QuadratureFailure):
            Z.regularized_integral(lambda t: 1.0, {0: 1.0})

    @pytest.mark.parametrize("node", [0, 300, 1200])
    def test_nan_at_one_node_fails(self, node):
        # at split 1 the first 140 nodes are the coarse level on [0, split],
        # the next 280 its fine level, the rest on [split, inf)
        calls = itertools.count()

        def G(t):
            return math.nan if next(calls) == node else math.exp(-t)

        with pytest.raises(Z.QuadratureFailure):
            Z.regularized_integral(G, {0: 1.0})

    @pytest.mark.parametrize("split", [0.0, -1.0, math.inf, math.nan])
    def test_split_validated(self, split):
        with pytest.raises(ValueError):
            Z.regularized_integral(lambda t: math.exp(-t), {0: 1.0}, split=split)

    def test_deterministic_nodes_and_bits(self):
        # a fixed rule: the same calls see the same nodes and give the same bits
        def run():
            nodes = []

            def G(t):
                nodes.append(t)
                return math.exp(-2 * t)

            return Z.regularized_integral(G, {0: 1.0}), nodes

        (first, nodes1), (second, nodes2) = run(), run()
        assert first == second and nodes1 == nodes2
        assert len(nodes1) == 7 * 60 + 1025  # the count the zeta module documents at split 1
        theta = (0.13, 0.71, 0.29, 0.9)
        assert Z.log_det_prime(theta) == Z.log_det_prime(theta)


class TestHeatTraces:
    def test_poisson_summation_identity(self):
        # direct and modular representations at t = 0.1 against the oracle
        t = 0.1
        direct = Z.heat_trace_direct((0, 0, 0, 0), t)
        dual = Z.heat_trace_dual((0, 0, 0, 0), t)
        oracle = poisson_rhs_oracle(t)
        assert abs(direct - dual) <= 1e-12
        assert abs(dual - oracle) <= 1e-12

    def test_switchover_continuity(self):
        # around the 0.05 switch and across t from 0.003 to 10; absolute at
        # large t, where the dual sum reaches a tiny twisted trace only
        # through cancellation of O(1) terms
        for theta in ((0.5, 0.0, 0.0, 0.0), (0, 0, 0, 0), (0.1, 0.7, 0.3, 0.9)):
            for t in (0.04, 0.05, 0.06, *np.geomspace(0.003, 10.0, 15)):
                a = Z.heat_trace_direct(theta, t)
                b = Z.heat_trace_dual(theta, t)
                assert abs(a - b) <= 1e-12 * max(1.0, a), (theta, t)

    @pytest.mark.parametrize("theta", [(0.1, 0.7, 0.3, 0.9), (0.5, 0.0, 0.25, 0.0), (0, 0, 0, 0)])
    @pytest.mark.parametrize("t", [0.01, 0.04, 0.06, 0.2, 1.0, 50.0])
    def test_factored_sums_match_4d_brute_force(self, theta, t):
        # the oracle drops the k = 0 term at theta = 0, as scalar_heat_trace
        # does; the two regime sums keep it.  At t = 50 (the decay case) a
        # twisted trace is ~1e-268, which the dual sum could only reach
        # through cancellation of O(1) terms; only the direct sum runs there
        oracle = brute_heat_sum(theta, t)
        kept = oracle + (0.0 if any(theta) else 1.0)
        assert abs(Z.scalar_heat_trace(theta, t) - oracle) <= 1e-12 * kept
        regimes = [Z.heat_trace_direct] + ([Z.heat_trace_dual] if t < 10 else [])
        for trace in regimes:
            assert abs(trace(theta, t) - kept) <= 1e-12 * kept

    def test_batched_kernel_matches_scalar_entry_points(self):
        # one batch on both sides of the regime switch, its boxes sized for
        # its smallest and largest times, against one call per time
        ts = np.concatenate([np.geomspace(0.004, 0.0499, 9), [Z._T_SWITCH],
                             np.geomspace(0.0501, 40.0, 9)])
        for theta in ((0, 0, 0, 0), (0.5, 0, 0, 0), (0.13, 0.71, 0.29, 0.9)):
            batch = Z._kept_kernel_trace(Z.reduce_theta(theta), ts)
            for t, b in zip(ts, batch):
                one = Z.heat_trace_dual(theta, t) if t < Z._T_SWITCH else Z.heat_trace_direct(theta, t)
                assert abs(b - one) <= 1e-15 * abs(one), (theta, t)

    def test_remainder_keeps_relative_accuracy_at_small_t(self):
        # K(t) - (4 pi t)^-2 is ~1e-20 at t = 0.004 and would be lost to
        # cancellation if formed as a difference; against mpmath at 30 digits
        theta = (0.13, 0.71, 0.29, 0.9)
        ts = np.array([0.004, 0.01, 0.03])
        got = Z._heat_remainder(Z.reduce_theta(theta), ts)
        for t, g in zip(ts, got):
            with mpmath.workdps(80):  # P - 1 ~ 1e-26 at t = 0.004
                t = mpmath.mpf(t)
                axes = [1 + 2 * mpmath.nsum(lambda m: mpmath.exp(-m * m / (4 * t))
                                            * mpmath.cos(2 * mpmath.pi * m * th), [1, mpmath.inf])
                        for th in theta]
                exact = float((axes[0] * axes[1] * axes[2] * axes[3] - 1) / (4 * mpmath.pi * t) ** 2)
            assert abs(g - exact) <= 1e-13 * abs(exact), float(t)

    def test_near_zero_theta_counts_as_untwisted(self):
        # a theta within 1e-8 of Z^4 reduces to exact zeros, on either side of
        # the lattice point: the kernel criterion, decided once by reduce_theta
        base = Z.scalar_heat_trace((0, 0, 0, 0), 0.3)
        untwisted = Z.log_det_prime(theta=(0, 0, 0, 0))
        for theta in ((1e-9, 0, 0, 0), (-1e-9, 0, 0, 0), (0.999999999, 0, 0, 0)):
            assert Z.kernel_dim_scalar(theta) == 1
            assert Z.scalar_heat_trace(theta, 0.3) == pytest.approx(base, rel=1e-14)
            res = Z.log_det_prime(theta=theta)
            assert res.method_gap <= 1e-8
            assert abs(res.log_det_prime - untwisted.log_det_prime) <= 1e-9
            assert abs(Z.beta0(theta) - Z.beta0((0, 0, 0, 0))) <= 1e-9
        assert Z.kernel_dim_scalar((2e-8, 0, 0, 0)) == 0
        assert Z.kernel_dim_scalar((-2e-8, 0, 0, 0)) == 0

    def test_reduce_theta_is_the_centered_representative(self):
        theta = np.array([0.25, 0.75, -0.625, 2.5])
        th = Z.reduce_theta(theta)
        assert th.tolist() == [0.25, -0.25, 0.375, 0.5]  # a half-integer goes to +1/2
        assert Z.reduce_theta((-0.5, 1.5, -1e-7, 0)).tolist() == [0.5, 0.5, -1e-7, 0.0]
        for shift in ((1, 0, 0, 0), (-3, 2, 1, -1)):
            assert np.array_equal(Z.reduce_theta(theta + np.array(shift)), th)
        # exact zeros within 1e-8 of Z^4 in the max norm, and not beyond
        assert Z.reduce_theta((1 - 9e-9, 3 + 9e-9, -2, 5e-9)).tolist() == [0.0] * 4
        assert Z.reduce_theta((2e-8, 0, 0, 0)).tolist() == [2e-8, 0, 0, 0]
        with pytest.raises(ValueError):
            Z.reduce_theta((0, 0, 0))


class TestLogDet:
    @pytest.mark.parametrize("a", [1e-9, 3e-8, 1e-7, 1e-6])
    def test_near_lattice_theta_sign_does_not_matter(self, a):
        # theta and -theta twist the same spectrum; both reduce without losing digits
        plus, minus = (a, 0, 0, 0), (-a, 0, 0, 0)
        gap = Z.log_det_prime(plus).log_det_prime - Z.log_det_prime(minus).log_det_prime
        assert abs(gap) <= 1e-12
        assert abs(Z.beta0(plus) - Z.beta0(minus)) <= 1e-12

    def test_methods_agree_untwisted(self):
        res = Z.log_det_prime(theta=(0, 0, 0, 0))
        assert res.method_gap <= 1e-8

    def test_method_gap_carried_untwisted_only(self):
        # every untwisted call is cross-checked against the closed form,
        # whatever its split or scale; a twisted one has nothing to check
        for kwargs in ({"split": 0.5}, {"split": 2.0}, {"scale": 2.0}):
            res = Z.log_det_prime(theta=(0, 0, 0, 0), **kwargs)
            assert res.method_gap is not None and res.method_gap <= 1e-8, kwargs
        twisted = Z.log_det_prime(theta=(0.5, 0, 0, 0))
        assert twisted.method_gap is None
        assert list(vars(twisted)) == ["log_det_prime", "error_estimate", "method_gap"]

    def test_against_mpmath_oracle(self):
        res = Z.log_det_prime(theta=(0, 0, 0, 0))
        assert abs(res.log_det_prime - jacobi_logdet_oracle()) <= 1e-9

    def test_embedded_constants_against_mpmath(self):
        assert abs(Z.ZETA_PRIME_0 - float(mpmath.zeta(0, derivative=1))) < 1e-15
        assert abs(Z.ZETA_PRIME_MINUS_1 - float(mpmath.zeta(-1, derivative=1))) < 1e-15
        assert abs(Z.EULER_GAMMA - float(mpmath.euler)) < 1e-15

    def test_split_independence(self):
        a = Z.log_det_prime(theta=(0, 0, 0, 0), split=0.5)
        b = Z.log_det_prime(theta=(0, 0, 0, 0), split=2.0)
        assert abs(a.log_det_prime - b.log_det_prime) <= 1e-9

    def test_split_independence_twisted(self):
        rng = np.random.default_rng(10)
        for theta in rng.random((6, 4)):
            a = Z.log_det_prime(theta=theta, split=0.5)
            b = Z.log_det_prime(theta=theta, split=2.0)
            assert abs(a.log_det_prime - b.log_det_prime) <= 1e-11, theta

    def test_near_untwisted_splits_off_the_small_eigenvalue(self):
        # at theta = (1e-7, 0, 0, 0) the k = 0 eigenvalue 4 pi^2 |theta|^2 is
        # tiny and every other one moves by O(|theta|^2): the determinant is
        # that eigenvalue times the untwisted det'.  The exp-sinh tail must
        # resolve e^{-4 pi^2 |theta|^2 t} out to t ~ 1e13 for this to hold
        theta = np.array([1e-7, 0.0, 0.0, 0.0])
        twisted = Z.log_det_prime(theta=theta).log_det_prime
        untwisted = Z.log_det_prime(theta=(0, 0, 0, 0)).log_det_prime
        small = math.log(4 * math.pi**2 * float(theta @ theta))
        assert abs(twisted - small - untwisted) <= 1e-11

    def test_rank_multiplicativity(self):
        one = Z.log_det_prime(theta=(0.5, 0, 0, 0), fiber_rank=1)
        three = Z.log_det_prime(theta=(0.5, 0, 0, 0), fiber_rank=3)
        assert abs(three.log_det_prime - 3 * one.log_det_prime) <= 1e-9

    def test_scaling_identity(self):
        # log det'(c Delta) = log det'(Delta) + zeta(0) log c with zeta(0) = -1
        base = Z.log_det_prime(theta=(0, 0, 0, 0))
        scaled = Z.log_det_prime(theta=(0, 0, 0, 0), scale=2.0)
        assert abs(scaled.log_det_prime - (base.log_det_prime - math.log(2.0))) <= 1e-8

    def test_scaling_identity_twisted(self):
        # no kernel: zeta(0) = 0, so the determinant is scale-covariant... via a0 = 0
        base = Z.log_det_prime(theta=(0.5, 0, 0, 0))
        scaled = Z.log_det_prime(theta=(0.5, 0, 0, 0), scale=2.0)
        assert abs(scaled.log_det_prime - base.log_det_prime) <= 1e-8

    def test_positive_determinant(self):
        for theta in ((0, 0, 0, 0), (0.5, 0, 0, 0), (0.25, 0.75, 0.5, 0.125)):
            res = Z.log_det_prime(theta=theta)
            assert math.isfinite(res.log_det_prime)
            assert math.exp(res.log_det_prime) > 0


class TestTorsion:
    def test_toy_spectrum_exponent_arithmetic(self):
        # ranks (1,2,1) on one scalar value D: T = D^{-2} D^{+2} = 1 and
        # T_h = D^{-2} D^{+4} = D^2 in closed form
        D = 0.371
        logs = [math.log(D) * r for r in Z.FORM_RANKS]
        T = math.exp(sum(q * (-1) ** q * logs[q] for q in range(3)))
        Th = math.exp(sum((-1) ** q * q * q * logs[q] for q in range(3)))
        assert T == pytest.approx(1.0, abs=1e-14)
        assert Th == pytest.approx(D**2, rel=1e-12)

    def test_torsion_trivial_untwisted(self):
        logs = per_degree_logs((0, 0, 0, 0))
        assert abs(Z.torsion_T(logs) - 1.0) <= 1e-8

    def test_torsion_trivial_twisted(self):
        logs = per_degree_logs((0.5, 0, 0, 0))
        assert abs(Z.torsion_T(logs) - 1.0) <= 1e-8

    def test_hypertorsion_is_det0_squared(self):
        logs = per_degree_logs((0, 0, 0, 0))
        Th = Z.hyper_torsion(logs)
        assert abs(Th - math.exp(2 * logs[0])) / Th <= 1e-8

    def test_beta0_identity(self):
        for theta in ((0, 0, 0, 0), (0.5, 0, 0, 0)):
            b0 = Z.beta0(theta)
            th = Z.hyper_torsion(per_degree_logs(theta))
            assert abs(b0 - 3 * math.log(th)) <= 1e-6

    def test_alternating_sum_vanishes(self):
        for t in (0.1, 1.0, 10.0):
            assert abs(Z.alternating_heat_sum((0, 0, 0, 0), t)) <= 1e-14

    def test_beta0_weight_arithmetic(self):
        # isotropy weights -(q-1)^2 with ranks (1,2,1): the q = 1 block drops
        # out and the graded sum collapses to -6 per unit scalar trace
        weights = [3 * (-1) ** q * (-((q - 1) ** 2)) * r for q, r in enumerate(Z.FORM_RANKS)]
        assert weights[1] == 0
        assert sum(weights) == -6

    def test_report_structure(self):
        rep = Z.torsion_report((0.5, 0, 0, 0))
        assert set(rep) == {
            "schema_version", "theta", "per_q", "T", "T_h", "beta0", "identity_residuals",
        }
        assert set(rep["per_q"]) == {"0", "1", "2"}
        assert rep["identity_residuals"]["abs(T - 1)"] <= 1e-8
