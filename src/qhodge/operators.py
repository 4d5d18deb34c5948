"""The operator algebra d, d_C, d_x, adjoints, N, Laplacian, Green on FormFields.

Every operator here is mode-diagonal: at mode k it is a 16x16 fiber matrix,
so nothing ever leaves the truncation and all identities hold to rounding.
With kappa = 2 pi k the mode symbols are

    d       ->  i eps(kappa)                (eps = exterior multiplication)
    d_C     ->  i eps(C kappa)              (C in {I, J, K} or any combination)
    d_x     ->  i eps(L_x kappa)            (L_x = left_matrix(x), x a (4,) array)
    d*      -> -i iota(kappa)               (iota = contraction, adjoint of eps)
    Delta   ->  4 pi^2 |k|^2 . Id
    G       ->  (4 pi^2 |k|^2)^{-1} off the k = 0 mode, 0 on it
    P_harm  ->  Id on the kernel of Delta's symbol (k = 0), 0 off it.

Every first-order operator is therefore one symbol, i eps(L kappa) or its
adjoint -i iota(L kappa) for a 4x4 matrix L (the identity, C or L_x),
applied by `_first_order`.  With weights w = L kappa per mode, the symbol is
sum_a w_a eps_a (or iota_a), and each eps_a and iota_a only flips blade
bit a and attaches a sign.  So a symbol, like a fiber matrix, is a row
plan of (source blade, factor, negate) terms, read by one builder,
`_row_plan`, off a stack of tables and applied by one kernel, `_apply_rows`,
on the blade-major (16, n) array (see `fields`) with no BLAS call.  The
symbols' plans are read off `WEDGE_E` and `INTERIOR_E` at import, and each
call binds axis a's factor from row a of L by one rule, whatever L is: the
grid row of w_a summed in a fixed order (`_weight`), where a row whose first
nonzero entry is negative reads the weight of its negation and flips the
axis's negate flags, so r and -r share one array.  d, d_I, d_J and d_K, the
pencil d_x at x = 1, i, j, k, read the four unit rows; d_x reads four general
ones.

Every operator maps a field over some grid rows to a field over the same
rows, reading its symbols for those rows only, so a field can be processed
one block of rows at a time (`fields.row_blocks`).  The residual helpers
come in two forms: `rel_parts` and `cancellation_parts` give the partial
sums of one block, which add up over the blocks (`fields.Partial`), and
`rel_defect` and `cancellation_defect` finish them on whole fields.  Since
the field suites run by row block, the whole-field forms have no caller in
the package: they stay as the tests' whole-field references.

Adjoint signs are not transcribed from anywhere: they are forced by the
L^2 adjointness property, which the test suite asserts directly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exterior import GRADING, INTERIOR_E, N_BLADES, WEDGE_E
from .fields import FormField, Partial, finish_blocks, mode_symbols
from .quaternionic import (
    STRUCTURE_NAMES,
    left_matrix,
    lefschetz_dual_matrix,
    lefschetz_matrix,
    rotor_matrix,
    structure_matrix,
    xhat_matrix,
)

_EYE = np.eye(4)


# the +0.0 every row's first term is added to; a 0-d array costs numpy less than a Python float
_ZERO = np.zeros((), dtype=complex)
_ZERO.setflags(write=False)


def _apply_rows(coeffs: np.ndarray, rows, scale: complex | None = None) -> np.ndarray:
    """The (n, 16) array whose blade r is the sum of +-coeffs[:, s] * factor over the
    (s, factor, negate) terms of rows[r], in order, times scale if one is given.

    Each row is built on the blade-major (16, n) array through one n-length
    scratch row; a term with no factor takes the source row itself.  Its first
    term is added to (or subtracted from) +0.0, so that, as in a sum into zeros,
    every zero of the sum is +0.0 whatever the signs of its terms' zeros.  The
    scale multiplies the whole array at the end, one call for all its rows.
    """
    src = coeffs.T
    out = np.empty(src.shape, dtype=complex)
    scratch = np.empty(src.shape[1], dtype=complex)
    for dst, terms in zip(out, rows):
        if not terms:
            dst.fill(0.0)
        acc = _ZERO
        for s, factor, negate in terms:
            term = src[s] if factor is None else np.multiply(src[s], factor, out=scratch)
            (np.subtract if negate else np.add)(acc, term, out=dst)
            acc = dst
    if scale is not None:
        out *= scale
    return out.T


def _row_plan(tables, units):
    """Row plan of a stack of 16x16 tables: each blade's (source, factor, negate) terms
    over the nonzero entries, in (table, source) order.  A +-1 entry of tables[t] takes
    units[t] as its factor (None: the kernel adds or subtracts the source row itself)
    and negates for -1; any other entry is its own factor."""
    plan = [[] for _ in range(N_BLADES)]
    for E, unit in zip(tables, units):
        dst, src = np.nonzero(E)
        for r, s, v in zip(dst.tolist(), src.tolist(), E[dst, src].tolist()):
            plan[r].append((s, unit, v == -1) if v in (1, -1) else (s, v, False))
    return plan


@lru_cache(maxsize=16)
def _fiber_plan(dtype: str, data: bytes) -> list:
    """The row plan of the 16x16 fiber matrix of this dtype and these C-order bytes."""
    mat = np.frombuffer(data, dtype).reshape(N_BLADES, N_BLADES)
    return _row_plan([mat], [None])


def apply_fiber(f: FormField, mat: np.ndarray) -> FormField:
    """Apply one mode-independent 16x16 fiber matrix to every mode: each entry of the
    product of f.coeffs with mat.T summed over its row of mat in ascending source order."""
    mat = np.asarray(mat)
    return FormField(f.kmax, _apply_rows(f.coeffs, _fiber_plan(mat.dtype.str, mat.tobytes())), f.start)


# the symbols' (source, axis, negate) plans: _first_order binds each axis a's factor per call
_EPS_PLAN = _row_plan(WEDGE_E, range(4))
_IOTA_PLAN = _row_plan(INTERIOR_E, range(4))


def _axis_factor(kmax: int, row: list) -> tuple:
    """(factor, flip) of the symbol axis whose row of L is `row`, over the whole grid of
    truncation kmax: the weight of the row, or, when its first nonzero entry is negative,
    the weight of its negation with flip set.  The key's zeros are all +0.0, so a key's
    weight does not depend on which of its equal rows came first."""
    flip = next((v < 0 for v in row if v != 0), False)
    return _weight(kmax, tuple(0.0 - v if flip else v + 0.0 for v in row)), flip


# the four unit rows of d and d_C, and the 16 general rows of one `verify` operators
# sample (the rows of x, y, xy and ux): 1.25 dense fields' bytes at any truncation
@lru_cache(maxsize=20)
def _weight(kmax: int, row: tuple) -> np.ndarray:
    """The read-only complex grid row of ((r0 k0 + r1 k1) + r2 k2) + r3 k3 over the modes of
    truncation kmax, for the float row r.

    The grid is the product of four axes -kmax..kmax, the last varying fastest, so each
    product r_p k_p is formed once per axis value and the sums by broadcasting, in that
    order: the last sum is one pass into the real part of one preallocated row.
    """
    m = 2 * kmax + 1
    axis = np.arange(-kmax, kmax + 1, dtype=float)
    t0, t1, t2, t3 = (axis * v for v in row)
    out = np.zeros(m**4, dtype=complex)
    np.add((np.add.outer(t0, t1)[:, :, None] + t2)[..., None], t3, out=out.real.reshape(m, m, m, m))
    out.setflags(write=False)
    return out


def _first_order(f: FormField, L: np.ndarray, star: bool) -> FormField:
    """i eps(L kappa), or its adjoint -i iota(L kappa) when star is set."""
    plan, scale = (_IOTA_PLAN, -2j * np.pi) if star else (_EPS_PLAN, 2j * np.pi)
    axes = [(factor[f.start:f.stop], flip)
            for factor, flip in (_axis_factor(f.kmax, row) for row in L.tolist())]
    rows = [[(s, axes[a][0], negate != axes[a][1]) for s, a, negate in row] for row in plan]
    return FormField(f.kmax, _apply_rows(f.coeffs, rows, scale), f.start)


def exterior_d(f: FormField) -> FormField:
    return _first_order(f, _EYE, False)


def d_star(f: FormField) -> FormField:
    return _first_order(f, _EYE, True)


def twisted_d(f: FormField, c) -> FormField:
    """d_C for a structure name, a 3-vector on the sphere, or a 4x4 matrix."""
    return _first_order(f, structure_matrix(c), False)


def twisted_d_star(f: FormField, c) -> FormField:
    return _first_order(f, structure_matrix(c), True)


def quaternionic_d(f: FormField, x) -> FormField:
    """d_x = x0 d + x1 d_I + x2 d_J + x3 d_K."""
    return _first_order(f, left_matrix(x), False)


def quaternionic_d_star(f: FormField, x) -> FormField:
    return _first_order(f, left_matrix(x), True)


def grading(f: FormField) -> FormField:
    return apply_fiber(f, GRADING)


def xhat(f: FormField, x) -> FormField:
    return apply_fiber(f, xhat_matrix(x))


def laplacian(f: FormField) -> FormField:
    return FormField(f.kmax, f.coeffs * mode_symbols(f.kmax)[0][f.start:f.stop, None], f.start)


def laplacian_hodge(f: FormField) -> FormField:
    """d d* + d* d, assembled from the factors (property-check companion)."""
    out = d_star(exterior_d(f))
    out.coeffs += exterior_d(d_star(f)).coeffs
    return out


def green(f: FormField) -> FormField:
    return FormField(f.kmax, f.coeffs * mode_symbols(f.kmax)[1][f.start:f.stop, None], f.start)


def harmonic_project(f: FormField) -> FormField:
    """f on the kernel of Delta's symbol, the k = 0 row; +0.0 on every other row."""
    # only the kept rows are written, so the zeros' untouched pages add nothing to the peak RSS
    out = np.zeros((N_BLADES, len(f.coeffs)), dtype=complex)
    np.copyto(out, f.coeffs.T, where=mode_symbols(f.kmax)[0][f.start:f.stop] == 0)
    return FormField(f.kmax, out.T, f.start)


# ---------------------------------------------------------------------------
# residual helpers
# ---------------------------------------------------------------------------

def _relative(a, b, diff) -> float:
    denom = float(np.max([a.root(), b.root()]))
    if denom == 0.0:
        return 0.0
    return diff.root() / denom


def rel_parts(a: FormField, b: FormField) -> Partial:
    """rel_defect's partial sums over a's rows: the square sums of a, b and a - b."""
    return Partial(_relative, a.square_sum(), b.square_sum(), a.distance_sum(b))


def rel_defect(a: FormField, b: FormField) -> float:
    """||a - b|| relative to the larger operand (0 when both vanish)."""
    return rel_parts(a, b).value()


def _cancellation(total, *terms) -> float:
    denom = sum(t.root() for t in terms)
    if denom == 0.0:
        return 0.0
    return total.root() / denom


def cancellation_parts(total: FormField, *terms: FormField) -> Partial:
    """cancellation_defect's partial sums over total's rows."""
    return Partial(_cancellation, total.square_sum(), *(t.square_sum() for t in terms))


def cancellation_defect(total: FormField, *terms: FormField) -> float:
    """||total|| relative to the magnitudes that were summed to produce it."""
    return cancellation_parts(total, *terms).value()


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def _subtract_into(a: FormField, b: FormField) -> FormField:
    """a - b, written into a: a must be a field its caller computed and holds alone."""
    a.coeffs -= b.coeffs
    return a


def kodaira_samples(fields):
    """kodaira_suite of each field of an iterable in turn, as one loop.

    Each field is taken one row block at a time (`FormField.blocks`): every
    operand is computed on the block, each identity's partial sums are added
    up over the blocks, and its residual is finished after the last one.  A
    loop, not a call per block: each block's operands stay bound until the
    next block rebinds them, so the allocator reuses their memory instead of
    returning it to the OS and faulting it back in.  Each commutator is formed
    in the array of its freshly computed left operand.
    """
    LamI = lefschetz_dual_matrix("I")
    lefschetz = {name: (lefschetz_matrix(name), lefschetz_dual_matrix(name)) for name in STRUCTURE_NAMES}
    # the operands of the last two identities, made once: the next block
    # replaces each entry on its own instead of freeing them all at once
    dC, dC_star, lam_f = {}, {}, {}

    def block_parts(whole):
        for f in whole.blocks():
            out: dict[str, Partial] = {}
            df = exterior_d(f)
            sf = d_star(f)
            for name, (L, Lam) in lefschetz.items():
                dc = twisted_d(f, name)
                dcs = twisted_d_star(f, name)
                lf = apply_fiber(f, L)
                lamf = apply_fiber(f, Lam)
                if name == "I":
                    lam_f["I"] = lamf
                else:
                    dC[name], dC_star[name] = dc, dcs

                comm = _subtract_into(apply_fiber(df, Lam), exterior_d(lamf))
                out[f"dC_star_eq_comm_Lambda_d[{name}]"] = rel_parts(dcs, comm)

                comm = _subtract_into(twisted_d(lamf, name), apply_fiber(dc, Lam))  # -[Lambda_C, d_C]
                out[f"d_star_eq_minus_comm_Lambda_dC[{name}]"] = rel_parts(sf, comm)

                comm = _subtract_into(apply_fiber(dcs, L), twisted_d_star(lf, name))
                out[f"d_eq_comm_L_dC_star[{name}]"] = rel_parts(df, comm)

                comm = _subtract_into(d_star(lf), apply_fiber(sf, L))  # -[L_C, d*]
                out[f"dC_eq_minus_comm_L_d_star[{name}]"] = rel_parts(dc, comm)

            comm = _subtract_into(apply_fiber(dC["J"], LamI), twisted_d(lam_f["I"], "J"))
            out["dK_star_eq_comm_LambdaI_dJ"] = rel_parts(dC_star["K"], comm)
            comm = _subtract_into(twisted_d(lam_f["I"], "K"), apply_fiber(dC["K"], LamI))
            out["dJ_star_eq_comm_dK_LambdaI"] = rel_parts(dC_star["J"], comm)
            yield out

    for whole in fields:
        yield finish_blocks(block_parts(whole))


def kodaira_suite(f: FormField) -> dict[str, float]:
    """Residuals of the six commutator identities tying d, d_C, L_C, Lambda_C.

        d_C* =  [Lambda_C, d]        d  =  [L_C, d_C*]
        d*   = -[Lambda_C, d_C]      d_C = -[L_C, d*]
        d_K* =  [Lambda_I, d_J]      d_J* = [d_K, Lambda_I]
    """
    return next(kodaira_samples([f]))


def conjugation_sides(f: FormField, u, x) -> tuple:
    """(U d_x U^{-1}(f), d_{Ux}(f)) for (4,) arrays u (a unit) and x."""
    rot = rotor_matrix(u)
    inv = rot.T  # the fiber action of a unit quaternion is orthogonal
    lhs = apply_fiber(quaternionic_d(apply_fiber(f, inv), x), rot)
    lu = left_matrix(u)
    # the product ux, summed in a fixed order: the one that made the pinned reports
    ux = (lu[:, 0] * x[0] + lu[:, 2] * x[2]) + (lu[:, 1] * x[1] + lu[:, 3] * x[3])
    return lhs, quaternionic_d(f, ux)
