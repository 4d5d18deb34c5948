"""Transgression round trips, precondition guards, and the quartic constant.

The quartic-differential constant has an exact oracle: on the Fourier mode
k the composite d d_I d_J d_K applied to a scalar produces the wedge of the
four covectors (k, Ik, Jk, Kk), whose volume coefficient is the integer
determinant det[k | Ik | Jk | Kk]; `oracles.quartic_constant_oracle`
evaluates it in exact fraction arithmetic and compares against |k|^4, with
no floating point and no package code in the loop.

transgress4 returns the closed-form potential G^2 (vol coefficient);
`literal_order4_potential` below is the Green-operator formula it replaces,
kept as the regression oracle for it.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qhodge import transgression
from qhodge.exterior import VOL, VOL_MASK
from qhodge.fields import FormField, random_field, single_mode
from qhodge.operators import (
    apply_fiber,
    d_star,
    exterior_d,
    green,
    harmonic_project,
    laplacian,
    rel_defect,
    twisted_d,
    twisted_d_star,
)
from qhodge.quaternionic import INVARIANT_PROJECTOR
from qhodge.transgression import (
    DEFAULT_TOL,
    DegreeTooLow,
    InconsistentConstant,
    NotClosed,
    NotDCClosed,
    NotExact,
    ORDER2_SIGN,
    TransgressionResult,
    measure_lapl_constant,
    quartic_differential,
    transgress1,
    transgress2,
    transgress4,
)

from oracles import form_document_oracle, quartic_constant_oracle, stock_json

SEED = 314


def literal_order4_potential(target):
    """s4 d* d_I* d_J* d_K* G^4 target with s4 = +1, applied factor by factor."""
    g4 = green(green(green(green(target))))
    return d_star(twisted_d_star(twisted_d_star(twisted_d_star(g4, "K"), "J"), "I"))


class TestOrder1:
    def test_zero_target(self):
        res = transgress1(FormField(1))
        assert res.residual == 0.0
        assert res.potential.norm() == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            target = exterior_d(random_field(2, rng))
            res = transgress1(target)
            assert res.residual <= 1e-9
            assert rel_defect(exterior_d(res.potential), target) <= 1e-9

    def test_harmonic_rejected(self):
        vol_field = single_mode(1, (0, 0, 0, 0), VOL)
        with pytest.raises(NotExact):
            transgress1(vol_field)

    def test_not_closed_rejected(self):
        rng = np.random.default_rng(SEED + 1)
        with pytest.raises(NotClosed):
            transgress1(random_field(1, rng, degree=1))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_is_rejected(self):
        # finite coefficients whose norm lies beyond the float range, so the
        # closedness residual reads inf/inf = NaN: a NaN residual fails the gate
        # instead of passing every "> tol" test
        rng = np.random.default_rng(SEED + 1)
        target = random_field(1, rng, degree=1) * 1e307
        assert np.isfinite(target.coeffs).all() and target.norm() == np.inf
        with pytest.raises(NotClosed, match="nan"):
            transgress1(target)


    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_scaled_target_keeps_its_residuals(self, scale):
        # the target's squared norm overflows or underflows; its norm does not
        target = exterior_d(random_field(1, np.random.default_rng(SEED + 11)))
        plain, scaled = transgress1(target), transgress1(target * scale)
        assert abs(scaled.residual - plain.residual) <= 1e-15
        assert scaled.precondition_residuals.keys() == plain.precondition_residuals.keys()
        for name, value in plain.precondition_residuals.items():
            assert abs(scaled.precondition_residuals[name] - value) <= 1e-15
        assert scaled.residual > 0.0


class TestOrder2:
    def test_zero_target(self):
        assert transgress2(FormField(1), "I").residual == 0.0

    def test_roundtrip_each_structure(self):
        rng = np.random.default_rng(SEED + 2)
        for n in "IJK":
            f = random_field(2, rng)
            target = exterior_d(twisted_d(f, n))
            res = transgress2(target, n)
            assert res.residual <= 1e-9
            assert res.sign == ORDER2_SIGN == -1.0

    def test_generic_exact_form_rejected(self):
        rng = np.random.default_rng(SEED + 3)
        rejected = 0
        for _ in range(10):
            target = exterior_d(random_field(1, rng, degree=1))
            try:
                transgress2(target, "I")
            except NotDCClosed as exc:
                assert exc.structure == "I"
                rejected += 1
        assert rejected == 10


class TestOrder4:
    def test_zero_target(self):
        assert transgress4(FormField(1)).residual == 0.0

    def test_roundtrip_plain_sigma(self):
        rng = np.random.default_rng(SEED + 4)
        for kmax in [3] * 5 + [6]:
            sigma = random_field(kmax, rng, degree=0)
            target = quartic_differential(sigma)
            res = transgress4(target)
            assert res.residual <= 1e-8
            assert res.sign == +1.0
            # gauge freedom: tau equals sigma only up to its harmonic part
            assert rel_defect(res.potential, sigma - harmonic_project(sigma)) <= 1e-9
            assert rel_defect(res.potential, literal_order4_potential(target)) <= 1e-14

    def test_roundtrip_invariant_sigma(self):
        rng = np.random.default_rng(SEED + 5)
        for kmax in (2, 3, 6):
            sigma = apply_fiber(random_field(kmax, rng), INVARIANT_PROJECTOR)
            target = quartic_differential(sigma)
            res = transgress4(target)
            assert res.residual <= 1e-8
            assert res.potential.degrees(tol=1e-9) == [0]
            assert rel_defect(res.potential, literal_order4_potential(target)) <= 1e-14

    @pytest.mark.parametrize("kmax", [1, 2, 4, 6])
    def test_closed_form_is_the_vol_column_of_green_squared(self, kmax):
        # tau's scalar column is the target's vol column times G's symbol twice, bit for bit
        target = quartic_differential(random_field(kmax, np.random.default_rng(SEED + kmax),
                                                   degree=0))
        tau = transgress4(target).potential.coeffs
        want = np.ascontiguousarray(green(green(target)).coeffs[:, VOL_MASK])
        assert np.array_equal(np.ascontiguousarray(tau[:, 0]).view(np.uint64),
                              want.view(np.uint64))
        assert not tau[:, 1:].any()

    def test_potential_degree_drop(self):
        rng = np.random.default_rng(SEED + 6)
        sigma = random_field(2, rng, degree=0)
        res = transgress4(quartic_differential(sigma))
        assert res.potential.degrees(tol=1e-10 * sigma.norm()) == [0]

    def test_vol_times_bilaplacian(self):
        # target built directly as c vol Delta^2 f with the measured c = 1;
        # the recovered tau must reproduce the (mean-free part of) f
        rng = np.random.default_rng(SEED + 7)
        f = random_field(2, rng, degree=0)
        f = f - harmonic_project(f)
        target = FormField(2)
        target.coeffs[:, 15] = laplacian(laplacian(f)).coeffs[:, 0]
        res = transgress4(target)
        assert res.residual <= 1e-8
        assert rel_defect(res.potential, f) <= 1e-9

    def test_harmonic_rejected(self):
        harmonic = single_mode(1, (0, 0, 0, 0), VOL)
        with pytest.raises(NotExact):
            transgress4(harmonic)

    def test_not_dc_closed_rejected_names_structure(self):
        rng = np.random.default_rng(SEED + 8)
        target = exterior_d(random_field(1, rng, degree=1))
        with pytest.raises(NotDCClosed) as err:
            transgress4(target)
        assert err.value.structure in "IJK"
        assert err.value.residual > 0

    def test_low_degree_rejected(self):
        # a sub-tolerance low-degree admixture passes every closedness check
        # but must still be caught by the structural degree guard
        rng = np.random.default_rng(SEED + 9)
        sigma = random_field(2, rng, degree=0)
        good = quartic_differential(sigma)
        stray = exterior_d(twisted_d(random_field(2, rng, degree=0), "I"))
        target = good + (1e-10 * good.norm() / stray.norm()) * stray
        with pytest.raises(DegreeTooLow):
            transgress4(target)

    def test_result_serialization(self):
        rng = np.random.default_rng(SEED + 10)
        sigma = random_field(1, rng, degree=0)
        res = transgress4(quartic_differential(sigma))
        doc = res.to_dict()
        assert doc["order"] == 4
        assert doc["sign"] == 1.0
        assert set(doc["precondition_residuals"]) == {
            "d_closed", "harmonic_part", "dI_closed", "dJ_closed", "dK_closed",
        }


class TestResultDocument:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_written_document_is_the_stock_encoding_of_its_dict_form(self, order):
        from qhodge.fields import dump_json

        rng = np.random.default_rng(SEED + 12)
        if order == 1:
            res = transgress1(exterior_d(random_field(2, rng)))
        elif order == 2:
            res = transgress2(exterior_d(twisted_d(random_field(2, rng), "J")), "J")
        else:
            res = transgress4(quartic_differential(random_field(2, rng, degree=0)))
        doc = res.to_dict()
        assert doc["potential"] is res.potential
        old = dict(doc, potential=form_document_oracle(res.potential))
        assert "".join(dump_json(doc)) == stock_json(old)


class TestResidual:
    """The round-trip residual is ||image - target|| / ||target||, with the target's
    norm taken once per solve."""

    @staticmethod
    def solve(order, scale):
        rng = np.random.default_rng(SEED + 20 + order)
        if order == 1:
            target = exterior_d(random_field(2, rng)) * scale
            res = transgress1(target)
            image = exterior_d(res.potential)
        elif order == 2:
            target = exterior_d(twisted_d(random_field(2, rng), "J")) * scale
            res = transgress2(target, "J")
            image = exterior_d(twisted_d(res.potential, "J"))
        else:
            target = quartic_differential(random_field(2, rng, degree=0)) * scale
            res = transgress4(target)
            image = quartic_differential(res.potential)
        return target, res, image

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_equals_the_literal_quotient(self, order, scale):
        target, res, image = self.solve(order, scale)
        assert res.residual == (image - target).norm() / target.norm()

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_target_norm_is_taken_once(self, order, monkeypatch):
        calls = []
        norm = FormField.norm
        monkeypatch.setattr(FormField, "norm", lambda f: calls.append(f) or norm(f))
        target, _, _ = self.solve(order, 1.0)
        assert sum(f is target for f in calls) == 1


class TestHypothesisGate:
    """Each order computes d_C of its target only for the structures it names."""

    @pytest.fixture
    def dc_calls(self, monkeypatch):
        calls = []
        original = transgression.twisted_d

        def counting(f, c):
            calls.append((f, c))
            return original(f, c)

        monkeypatch.setattr(transgression, "twisted_d", counting)
        return calls

    def test_order1_computes_no_dc(self, dc_calls):
        rng = np.random.default_rng(SEED + 11)
        res = transgress1(exterior_d(random_field(1, rng)))
        assert dc_calls == []
        assert set(res.precondition_residuals) == {"d_closed", "harmonic_part"}

    def test_order2_computes_only_its_structure(self, dc_calls):
        rng = np.random.default_rng(SEED + 12)
        target = exterior_d(twisted_d(random_field(1, rng), "J"))
        res = transgress2(target, "J")
        assert [c for f, c in dc_calls if f is target] == ["J"]
        assert len(dc_calls) == 2  # the gate's, and the round trip's on the potential
        assert set(res.precondition_residuals) == {"d_closed", "harmonic_part", "dJ_closed"}

    def test_rejected_order4_stops_at_first_failing_structure(self, dc_calls):
        rng = np.random.default_rng(SEED + 8)
        target = exterior_d(random_field(1, rng, degree=1))
        with pytest.raises(NotDCClosed) as err:
            transgress4(target)
        assert err.value.structure == "I"
        assert [c for _, c in dc_calls] == ["I"]

    def test_not_closed_is_checked_first(self, dc_calls):
        rng = np.random.default_rng(SEED + 13)
        with pytest.raises(NotClosed):
            transgress4(random_field(1, rng, degree=1))
        assert dc_calls == []

    def test_solver_defaults_come_from_the_table(self):
        for order, solver in ((1, transgress1), (2, transgress2), (4, transgress4)):
            assert inspect.signature(solver).parameters["tol"].default == DEFAULT_TOL[order]

    def test_benchmark_checks_against_the_package_defaults(self):
        # perfbench/workloads.py checks each transgress output against its own
        # copy of the tolerances; read that literal without importing the harness
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        copies = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRANSGRESS_TOL"]]
        assert copies == [DEFAULT_TOL]


class TestLaplConstant:
    def test_oracle_agrees_per_mode(self):
        for k in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (2, -1, 3, 1)]:
            assert quartic_constant_oracle(k) == 1

    def test_measured_value_matches_oracle(self):
        modes = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]
        c, report = measure_lapl_constant(modes)
        oracle = float(quartic_constant_oracle((1, 0, 0, 0)))
        assert c == pytest.approx(oracle, abs=1e-12)
        assert report["spread"] <= 1e-10

    def test_mode_independence(self):
        rng = np.random.default_rng(SEED + 11)
        modes = []
        while len(modes) < 12:
            k = tuple(int(v) for v in rng.integers(-3, 4, size=4))
            if any(k):
                modes.append(k)
        c, report = measure_lapl_constant(modes)
        assert report["spread"] <= 1e-10

    @pytest.mark.parametrize("kmax", [1, 2, 4, 6])
    def test_denominator_is_the_blade0_bilaplacian(self, kmax):
        # each ratio, read at the first row of its mode pair, has the bits of num / Delta^2 phi
        modes = [(kmax, 0, 0, 0), (1, -kmax, 0, 1), (0, 1, kmax, -1)]
        _, report = measure_lapl_constant(modes)
        phi = FormField(kmax)
        pairs = [[phi.mode_index(k), phi.mode_index([-v for v in k])] for k in modes]
        phi.coeffs[np.ravel(pairs), 0] = 1.0
        rows = [min(pair) for pair in pairs]
        ratios = (quartic_differential(phi).coeffs[rows, VOL_MASK]
                  / laplacian(laplacian(phi)).coeffs[rows, 0]).real
        got = np.array([report["per_mode"][str(list(k))] for k in modes])
        assert np.array_equal(got.view(np.uint64), ratios.view(np.uint64))

    def test_nan_symbol_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(transgression, "quartic_differential", lambda f: f * np.nan)
        with pytest.raises(InconsistentConstant):
            measure_lapl_constant([(1, 0, 0, 0), (0, 1, 0, 0)])

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_lapl_constant([(0, 0, 0, 0)])

    def test_report_cites_candidates(self):
        _, report = measure_lapl_constant([(1, 0, 0, 0)])
        assert "16" in report["note"] and "1" in report["note"]

    def test_zero_function_both_sides_vanish(self):
        zero = FormField(2)
        assert quartic_differential(zero).norm() == 0.0
        assert laplacian(laplacian(zero)).norm() == 0.0


class TestDemoScale:
    def test_roundtrip_at_demo_truncation(self):
        # kmax = 8 is the demo-scale truncation; everything stays mode-exact
        rng = np.random.default_rng(SEED + 20)
        sigma = random_field(8, rng, degree=0)
        res = transgress4(quartic_differential(sigma))
        assert res.residual <= 1e-10


class TestGreenFormulaStructure:
    def test_composite_acts_as_identity_on_admissible_targets(self):
        # the reconstruction operator equals +1 times the identity (never -1)
        rng = np.random.default_rng(SEED + 12)
        sigma = random_field(2, rng, degree=0)
        target = quartic_differential(sigma)
        res = transgress4(target)
        rec = quartic_differential(res.potential)
        plus = rel_defect(rec, target)
        minus = rel_defect(rec, -1.0 * target)
        assert plus <= 1e-9
        assert minus > 1.0
