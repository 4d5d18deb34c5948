"""Row blocks: the field suites, evaluated one block of grid rows at a time, against the
same checks written on whole fields.

Every sum over a field runs block by block over `fields.row_blocks`, whole or blocked
alike, so each cut of the grid into blocks (patched in below: one block, an even and an
odd count, uneven sizes) must give the whole-field values bit for bit.
"""

import math

import numpy as np
import pytest
from numpy.linalg import norm

from qhodge import fields, suites
from qhodge.exterior import N_BLADES
from qhodge.fields import BLOCK_ROWS, FormField, random_field, row_blocks
from qhodge.operators import (
    apply_fiber,
    cancellation_defect,
    conjugation_sides,
    d_star,
    exterior_d,
    grading,
    green,
    harmonic_project,
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
from qhodge.quaternionic import AD, left_matrix, lefschetz_dual_matrix, lefschetz_matrix
from qhodge.suites import RunConfig, _operator_samples, _rng


def bounds_of(sizes):
    edges = np.cumsum([0, *sizes]).tolist()
    return tuple(zip(edges[:-1], edges[1:]))


# each cut of the n rows of a grid into blocks, as row_blocks gives it
CUTS = {
    "one": lambda n: ((0, n),),
    "even": lambda n: bounds_of([n // 2, n - n // 2]),
    "odd": lambda n: bounds_of([n // 5] * 4 + [n - 4 * (n // 5)]),
    # a block of one row, one that ends just before the middle row, one that starts on it
    # and one that starts past it
    "uneven": lambda n: bounds_of([1, n // 2 - 1, 3, n - n // 2 - 3]),
}


@pytest.fixture(params=sorted(CUTS))
def cut(request, monkeypatch):
    monkeypatch.setattr(fields, "row_blocks", lambda kmax: CUTS[request.param]((2 * kmax + 1) ** 4))
    return request.param


def literal_kodaira(f):
    """kodaira_suite's identities written out as their two whole-field compositions."""
    want = {}
    for n in ("I", "J", "K"):
        L, Lam = lefschetz_matrix(n), lefschetz_dual_matrix(n)
        want[f"dC_star_eq_comm_Lambda_d[{n}]"] = rel_defect(
            twisted_d_star(f, n), apply_fiber(exterior_d(f), Lam) - exterior_d(apply_fiber(f, Lam)))
        want[f"d_star_eq_minus_comm_Lambda_dC[{n}]"] = rel_defect(
            d_star(f), -1 * (apply_fiber(twisted_d(f, n), Lam) - twisted_d(apply_fiber(f, Lam), n)))
        want[f"d_eq_comm_L_dC_star[{n}]"] = rel_defect(
            exterior_d(f), apply_fiber(twisted_d_star(f, n), L) - twisted_d_star(apply_fiber(f, L), n))
        want[f"dC_eq_minus_comm_L_d_star[{n}]"] = rel_defect(
            twisted_d(f, n), -1 * (apply_fiber(d_star(f), L) - d_star(apply_fiber(f, L))))
    LamI = lefschetz_dual_matrix("I")
    want["dK_star_eq_comm_LambdaI_dJ"] = rel_defect(
        twisted_d_star(f, "K"), apply_fiber(twisted_d(f, "J"), LamI) - twisted_d(apply_fiber(f, LamI), "J"))
    want["dJ_star_eq_comm_dK_LambdaI"] = rel_defect(
        twisted_d_star(f, "J"), twisted_d(apply_fiber(f, LamI), "K") - apply_fiber(twisted_d(f, "K"), LamI))
    return want


def literal_operator_samples(cfg, rng):
    """suite_operators' samples written on whole fields, with the same draws."""
    for _ in range(cfg.field_count):
        f = random_field(cfg.kmax, rng)
        g = random_field(cfg.kmax, rng)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        u = rng.standard_normal(4)
        u = u / norm(u)
        fr = random_field(cfg.kmax, rng, real=True)
        df, dIf, dxf, dyf, lapf = (exterior_d(f), twisted_d(f, "I"), quaternionic_d(f, x),
                                   quaternionic_d(f, y), laplacian(f))
        d_dI, dI_d = exterior_d(dIf), twisted_d(df, "I")
        dxdy, dydx = quaternionic_d(dyf, x), quaternionic_d(dxf, y)
        dx_dystar, dystar_dx = quaternionic_d(quaternionic_d_star(f, y), x), quaternionic_d_star(dxf, y)
        re_xbar_y_lap = (x @ y) * lapf
        scale = max(f.norm() * g.norm(), 1e-300) * 2 * np.pi * cfg.kmax
        yield {
            "d_squared": exterior_d(df).norm() / max(df.norm(), 1e-300),
            "twisted_realizations_agree": rel_defect(
                dIf, apply_fiber(df, AD["I"]) - exterior_d(apply_fiber(f, AD["I"]))),
            "d_dI_anticommute": cancellation_defect(d_dI + dI_d, d_dI, dI_d),
            "relation_i_xhat_dy": rel_defect(xhat(dyf, x) - quaternionic_d(xhat(f, x), y),
                                             quaternionic_d(f, left_matrix(x) @ y)),
            "relation_ii_dx_dy": cancellation_defect(dxdy + dydx, dxdy, dydx),
            "relation_iii_dx_dy_star": (dx_dystar + dystar_dx - re_xbar_y_lap).norm()
            / max(dx_dystar.norm() + dystar_dx.norm(), re_xbar_y_lap.norm(), 1e-300),
            "adjointness_d": abs(df.inner(g) - f.inner(d_star(g))) / scale,
            "adjointness_dI": abs(dIf.inner(g) - f.inner(twisted_d_star(g, "I"))) / scale,
            "adjointness_dx": abs(dxf.inner(g) - f.inner(quaternionic_d_star(g, x))) / (scale * norm(x)),
            "laplacian_vs_hodge": rel_defect(lapf, laplacian_hodge(f)),
            "hodge_decomposition": rel_defect(harmonic_project(f) + laplacian(green(f)), f),
            "grading_commutator": rel_defect(grading(df) - exterior_d(grading(f)), df),
            "conjugation_law": rel_defect(*conjugation_sides(f, u, x)),
            "realness_preserved": float(np.max([
                op(fr).realness_defect() for op in (exterior_d, d_star, laplacian, green, harmonic_project)
            ])) / max(fr.norm(), 1e-300),
            "laplacian_commutes_dC": rel_defect(laplacian(twisted_d(f, "J")), twisted_d(lapf, "J")),
        }


def same(got: dict, want: dict) -> bool:
    """Equal dicts, a NaN equal to a NaN."""
    return got.keys() == want.keys() and all(
        got[k] == want[k] or (math.isnan(got[k]) and math.isnan(want[k])) for k in want)


class TestRowBlocks:
    @pytest.mark.parametrize("kmax", range(9))
    def test_consecutive_runs_of_block_rows(self, kmax):
        n = (2 * kmax + 1) ** 4
        blocks = row_blocks(kmax)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(stop - start == BLOCK_ROWS for start, stop in blocks[:-1])
        assert 0 < blocks[-1][1] - blocks[-1][0] <= BLOCK_ROWS

    def test_three_blocks_at_truncation_4(self):
        assert row_blocks(4) == ((0, 2187), (2187, 4374), (4374, 6561))

    def test_blocks_are_views(self):
        f = random_field(3, np.random.default_rng(1))
        blocks = list(f.blocks())
        assert [(b.start, b.stop) for b in blocks] == list(row_blocks(3))
        assert all(np.shares_memory(b.coeffs, f.coeffs) for b in blocks)
        inner = f.rows(10, 2300)
        assert [(b.start, b.stop) for b in inner.blocks()] == [(10, 2187), (2187, 2300)]
        assert next(blocks[1].blocks()) is blocks[1]
        with pytest.raises(ValueError):
            f.rows(900, 3000)
        with pytest.raises(ValueError):
            inner.distance(f.rows(11, 2301))

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_operators_map_rows_to_the_same_rows(self, kmax):
        rng = np.random.default_rng(kmax)
        f, x = random_field(kmax, rng), rng.standard_normal(4)
        n = len(f.coeffs)
        ops = [exterior_d, d_star, laplacian, green, harmonic_project, laplacian_hodge, grading,
               lambda h: twisted_d(h, "J"), lambda h: twisted_d_star(h, "K"),
               lambda h: twisted_d(h, np.array([0.6, 0.8, 0.0])),
               lambda h: quaternionic_d(h, x), lambda h: quaternionic_d_star(h, x),
               lambda h: apply_fiber(h, lefschetz_dual_matrix("I")), lambda h: xhat(h, x)]
        # the middle row alone, blocks that end on it, start on it or miss it, and the whole
        for start, stop in ((n // 2, n // 2 + 1), (0, n // 2 + 1), (n // 2, n), (1, n // 2), (0, n)):
            block = f.rows(start, stop)
            for op in ops:
                got = op(block)
                assert (got.start, got.stop) == (start, stop)
                want = np.ascontiguousarray(op(f).coeffs[start:stop])
                assert np.array_equal(np.ascontiguousarray(got.coeffs).view(np.uint64), want.view(np.uint64))


def cuts(large):
    """Every cut at truncations 1 to 3, and the given (truncation, cut) pairs above them."""
    return pytest.mark.parametrize("kmax, cut", [
        *((kmax, name) for kmax in (1, 2, 3) for name in sorted(CUTS)), *large], indirect=["cut"])


@pytest.mark.parametrize("kmax", [0, 1, 2, 4])
def test_harmonic_project_copies_the_middle_row(kmax, cut):
    # f's bits on the middle row k = 0, a -0.0 among them, and +0.0 on every other row,
    # where an inf or a NaN must not become a NaN (no 0 * inf)
    f = random_field(kmax, np.random.default_rng(60 + kmax))
    n = len(f.coeffs)
    f.coeffs[n // 2, 1] = complex(-0.0, 2.0)
    if n > 1:
        f.coeffs[0, 2], f.coeffs[n - 1, 3], f.coeffs[n // 2 - 1, 4] = np.inf, np.nan, complex(np.inf, np.nan)
    for part in [f, *f.blocks()]:
        want = np.zeros((N_BLADES, len(part.coeffs)), dtype=complex)
        if part.start <= n // 2 < part.stop:
            want[:, n // 2 - part.start] = part.coeffs[n // 2 - part.start]
        got = harmonic_project(part)
        assert (got.start, got.stop) == (part.start, part.stop) and got.coeffs.T.flags.c_contiguous
        assert np.array_equal(got.coeffs.T.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kmax", range(5))
def test_realness_defect_reads_every_mirror_pair(kmax, cut):
    rng = np.random.default_rng(70 + kmax)
    n = (2 * kmax + 1) ** 4
    for f in (random_field(kmax, rng), random_field(kmax, rng, real=True)):
        c = f.coeffs
        assert f.realness_defect() == float(np.abs(c - np.conj(c)[::-1]).max())
    # an imaginary k = 0 coefficient a reads 2|a|: the middle row is its own mirror
    f = FormField(kmax)
    f.coeffs[n // 2, 5] = 2.5j
    assert f.realness_defect() == 5.0
    # a NaN on a block's edge, the first, middle or last row
    edges = {0, n // 2, n - 1, *(row for start, stop in fields.row_blocks(kmax)
                                 for row in (start, stop - 1) if 0 <= row < n)}
    for row in sorted(edges):
        f = random_field(kmax, rng, real=True)
        f.coeffs[row, 9] = complex(0.0, np.nan)
        assert math.isnan(f.realness_defect())
    # a row range holds no mirror rows: each block of the cut short of the whole field, a
    # range that misses the first row and one that stops after the middle row
    ranges = [(b.start, b.stop) for b in f.blocks()] + ([(1, n), (0, n // 2 + 1)] if n > 1 else [])
    for start, stop in ranges:
        if (start, stop) != (0, n):
            with pytest.raises(ValueError):
                f.rows(start, stop).realness_defect()


@cuts([(5, "even"), (5, "uneven"), (6, "one"), (6, "odd")])
def test_kodaira_equals_the_whole_field_compositions(kmax, cut):
    f = random_field(kmax, np.random.default_rng(40 + kmax))
    assert kodaira_suite(f) == literal_kodaira(f)


@cuts([(5, "odd"), (6, "uneven")])
def test_operator_samples_equal_the_whole_field_checks(kmax, cut):
    cfg = RunConfig(kmax=kmax, field_count=2 if kmax < 3 else 1, seed=5)
    assert list(_operator_samples(cfg, _rng(cfg, 3))) == list(literal_operator_samples(cfg, _rng(cfg, 3)))


class TestBlockedResiduals:
    """Values that a blocked sum must carry through: a realness break, a NaN, a huge block."""

    KMAX = 3

    def run_samples(self, monkeypatch, edit):
        """suite_operators' residuals, blocked and written whole, with each drawn field edited."""
        def drawing(kmax, rng, **options):
            f = fields.random_field(kmax, rng, **options)
            edit(f, options)
            return f

        cfg = RunConfig(kmax=self.KMAX, field_count=1, seed=9)
        monkeypatch.setattr(suites, "random_field", drawing)
        got = next(_operator_samples(cfg, _rng(cfg, 3)))
        monkeypatch.setattr(__import__(__name__), "random_field", drawing)
        return got, next(literal_operator_samples(cfg, _rng(cfg, 3)))

    @pytest.mark.parametrize("where", ["mirror", "middle"])
    def test_realness_break_is_seen(self, monkeypatch, where):
        # a break in the last block, whose rows are read only with their mirrors in the first,
        # or on the middle row k = 0, its own mirror, which only harmonic_project keeps
        n = (2 * self.KMAX + 1) ** 4
        row, by = (row_blocks(self.KMAX)[-1][0] + 5, 1e-3) if where == "mirror" else (n // 2, 1e-3j)

        def edit(f, options):
            if options.get("real"):
                f.coeffs[row, 3] += by

        got, want = self.run_samples(monkeypatch, edit)
        assert same(got, want)
        assert got["realness_preserved"] > 1e-6

    def test_nan_in_one_block_stays_nan(self, monkeypatch):
        row = row_blocks(self.KMAX)[1][0] + 2

        def edit(f, options):
            if not options:
                f.coeffs[row, 6] = np.nan

        got, want = self.run_samples(monkeypatch, edit)
        assert same(got, want)
        assert math.isnan(got["hodge_decomposition"]) and math.isnan(got["adjointness_d"])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_huge_block_gives_finite_norms(self, monkeypatch):
        # the squares of one block overflow; every other block is of order 1
        start, stop = row_blocks(self.KMAX)[0]

        def edit(f, options):
            f.coeffs[start:stop] *= 1e200

        got, want = self.run_samples(monkeypatch, edit)
        assert same(got, want)
        # an inner product of two such fields overflows; every ratio of norms is finite
        assert [k for k, v in got.items() if not math.isfinite(v)] == [
            "adjointness_d", "adjointness_dI", "adjointness_dx"]
        f = fields.random_field(self.KMAX, np.random.default_rng(3))
        big = FormField(self.KMAX, f.coeffs.copy(order="F"))
        edit(big, {})
        assert math.isfinite(big.norm()) and math.isfinite(big.distance(f))
        tail = f.rows(stop, len(f.coeffs)).norm()
        head = f.rows(start, stop).norm() * 1e200
        assert big.norm() == pytest.approx(math.hypot(head, tail), rel=1e-14)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_or_inf_part_of_a_norm(self):
        f = random_field(self.KMAX, np.random.default_rng(4))
        last = row_blocks(self.KMAX)[-1][0]
        f.coeffs[last, 2] = np.inf
        assert f.norm() == math.inf
        f.coeffs[0, 0] = np.nan
        assert math.isnan(f.norm()) and math.isnan(f.inner(f).real)


def test_block_field_shape_is_checked():
    with pytest.raises(ValueError):
        FormField(1, np.zeros((N_BLADES, 5), dtype=complex).T, start=80)
    with pytest.raises(ValueError):
        FormField(1, np.zeros((N_BLADES, 0), dtype=complex).T, start=3)
    f = FormField(1, np.zeros((N_BLADES, 5), dtype=complex).T, start=76)
    assert (f.start, f.stop) == (76, 81) and f.modes.tolist()[-1] == [1, 1, 1, 1]
    with pytest.raises(KeyError):
        f.mode_index((0, 0, 0, 0))
