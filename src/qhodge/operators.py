"""The operator algebra d, d_C, d_x, adjoints, N, Laplacian, Green on FormFields.

Every operator here is mode-diagonal: at mode k it is a 16x16 fiber matrix,
so nothing ever leaves the truncation and all identities hold to rounding.
With kappa = 2 pi k the mode symbols are

    d       ->  i eps(kappa)                (eps = exterior multiplication)
    d_C     ->  i eps(C kappa)              (C in {I, J, K} or any combination)
    d_x     ->  i eps(L_x kappa)            (L_x = left_matrix(x), x a (4,) array)
    d*      -> -i iota(kappa)               (iota = contraction, adjoint of eps)
    Delta   ->  4 pi^2 |k|^2 . Id
    G       ->  (4 pi^2 |k|^2)^{-1} off the k = 0 mode, 0 on it.

Every first-order operator is therefore one symbol, i eps(L kappa) or its
adjoint -i iota(L kappa) for a 4x4 matrix L (the identity, C or L_x),
applied by `_first_order`.  With weights w = L kappa per mode, the symbol is
sum_a w_a eps_a (or iota_a), and each eps_a and iota_a only flips blade
bit a and attaches a sign.  So a symbol, like a fiber matrix, is a row
plan of (source blade, factor, negate) terms, read by one builder,
`_row_plan`, off a stack of tables and applied by one kernel, `_apply_rows`,
on the blade-major (16, n) array (see `fields`) with no BLAS call.  The
symbols' plans are read off `WEDGE_E` and `INTERIOR_E` at import, and each
call binds axis a's factor from row a of L: the cached complex mode column p
(negated for -1) when the row holds a single +-1 at p, as for d and d_C with
C in {I, J, K}; else w_a summed in a fixed order (d_x, a general C).

Adjoint signs are not transcribed from anywhere: they are forced by the
L^2 adjointness property, which the test suite asserts directly.
"""

from __future__ import annotations

import numpy as np

from .exterior import GRADING, INTERIOR_E, N_BLADES, WEDGE_E
from .fields import FormField, mode_symbols
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


def _apply_rows(coeffs: np.ndarray, rows, scale: complex | None = None) -> np.ndarray:
    """The (n, 16) array whose blade r is the sum of +-coeffs[:, s] * factor over the
    (s, factor, negate) terms of rows[r], in order, times scale if one is given.

    Each row is built on the blade-major (16, n) array through one n-length
    scratch row; a term with no factor takes the source row itself.  Its first
    term is added to (or subtracted from) +0.0, so that, as in a sum into zeros,
    every zero of the sum is +0.0 whatever the signs of its terms' zeros.
    """
    src = coeffs.T
    out = np.empty(src.shape, dtype=complex)
    scratch = np.empty(src.shape[1], dtype=complex)
    for dst, terms in zip(out, rows):
        if not terms:
            dst.fill(0.0)
        for i, (s, factor, negate) in enumerate(terms):
            term = src[s] if factor is None else np.multiply(src[s], factor, out=scratch)
            (np.subtract if negate else np.add)(dst if i else 0.0, term, out=dst)
        if scale is not None:
            dst *= scale
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


def apply_fiber(f: FormField, mat: np.ndarray) -> FormField:
    """Apply one mode-independent 16x16 fiber matrix to every mode: each entry of the
    product of f.coeffs with mat.T summed over its row of mat in ascending source order."""
    return FormField(f.kmax, _apply_rows(f.coeffs, _row_plan([mat], [None])))


# the symbols' (source, axis, negate) plans: _first_order binds each axis a's factor per call
_EPS_PLAN = _row_plan(WEDGE_E, range(4))
_IOTA_PLAN = _row_plan(INTERIOR_E, range(4))


def _axis_factor(columns: np.ndarray, row: list) -> tuple:
    """(factor, flip) of the symbol axis whose row of L is `row`, for the complex mode
    columns: column p, flipped for -1, for a row holding a single +-1 at p; otherwise
    ((row[0] k0 + row[1] k1) + row[2] k2) + row[3] k3 over their real parts, cast once."""
    nonzero = [p for p, v in enumerate(row) if v != 0]
    if len(nonzero) == 1 and abs(row[nonzero[0]]) == 1:
        return columns[nonzero[0]], row[nonzero[0]] < 0
    weight = columns[0].real * row[0]
    for p in 1, 2, 3:
        weight += columns[p].real * row[p]
    return weight.astype(complex), False


def _first_order(f: FormField, L: np.ndarray, star: bool) -> FormField:
    """i eps(L kappa), or its adjoint -i iota(L kappa) when star is set."""
    plan, scale = (_IOTA_PLAN, -2j * np.pi) if star else (_EPS_PLAN, 2j * np.pi)
    columns = mode_symbols(f.kmax)[2]
    axes = [_axis_factor(columns, row) for row in L.tolist()]
    rows = [[(s, axes[a][0], negate != axes[a][1]) for s, a, negate in row] for row in plan]
    return FormField(f.kmax, _apply_rows(f.coeffs, rows, scale))


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
    return FormField(f.kmax, f.coeffs * mode_symbols(f.kmax)[0][:, None])


def laplacian_hodge(f: FormField) -> FormField:
    """d d* + d* d, assembled from the factors (property-check companion)."""
    out = d_star(exterior_d(f))
    out.coeffs += exterior_d(d_star(f)).coeffs
    return out


def green(f: FormField) -> FormField:
    return FormField(f.kmax, f.coeffs * mode_symbols(f.kmax)[1][:, None])


def harmonic_project(f: FormField) -> FormField:
    out = FormField(f.kmax)
    zero = len(f.coeffs) // 2  # k = 0, the middle row of the grid
    out.coeffs[zero] = f.coeffs[zero]
    return out


# ---------------------------------------------------------------------------
# residual helpers
# ---------------------------------------------------------------------------

def rel_defect(a: FormField, b: FormField) -> float:
    """||a - b|| relative to the larger operand (0 when both vanish)."""
    denom = float(np.max([a.norm(), b.norm()]))
    if denom == 0.0:
        return 0.0
    return a.distance(b) / denom


def cancellation_defect(total: FormField, *terms: FormField) -> float:
    """||total|| relative to the magnitudes that were summed to produce it."""
    denom = sum(t.norm() for t in terms)
    if denom == 0.0:
        return 0.0
    return total.norm() / denom


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def _subtract_into(a: FormField, b: FormField) -> FormField:
    """a - b, written into a: a must be a field its caller computed and holds alone."""
    a.coeffs -= b.coeffs
    return a


def kodaira_samples(fields):
    """kodaira_suite of each field of an iterable in turn, as one loop.

    A loop, not a call per field: each sample's fields stay bound until the
    next sample rebinds them, so the allocator reuses their memory instead of
    returning it to the OS and faulting it back in.  Each commutator is formed
    in the array of its freshly computed left operand.
    """
    LamI = lefschetz_dual_matrix("I")
    # the operands of the last two identities, made once: the next sample
    # replaces each entry on its own instead of freeing them all at once
    dC, dC_star, lam_f = {}, {}, {}
    for f in fields:
        out: dict[str, float] = {}
        df = exterior_d(f)
        sf = d_star(f)
        for name in STRUCTURE_NAMES:
            L = lefschetz_matrix(name)
            Lam = lefschetz_dual_matrix(name)
            dc = twisted_d(f, name)
            dcs = twisted_d_star(f, name)
            lf = apply_fiber(f, L)
            lamf = apply_fiber(f, Lam)
            if name == "I":
                lam_f["I"] = lamf
            else:
                dC[name], dC_star[name] = dc, dcs

            comm = _subtract_into(apply_fiber(df, Lam), exterior_d(lamf))
            out[f"dC_star_eq_comm_Lambda_d[{name}]"] = rel_defect(dcs, comm)

            comm = _subtract_into(twisted_d(lamf, name), apply_fiber(dc, Lam))  # -[Lambda_C, d_C]
            out[f"d_star_eq_minus_comm_Lambda_dC[{name}]"] = rel_defect(sf, comm)

            comm = _subtract_into(apply_fiber(dcs, L), twisted_d_star(lf, name))
            out[f"d_eq_comm_L_dC_star[{name}]"] = rel_defect(df, comm)

            comm = _subtract_into(d_star(lf), apply_fiber(sf, L))  # -[L_C, d*]
            out[f"dC_eq_minus_comm_L_d_star[{name}]"] = rel_defect(dc, comm)

        comm = _subtract_into(apply_fiber(dC["J"], LamI), twisted_d(lam_f["I"], "J"))
        out["dK_star_eq_comm_LambdaI_dJ"] = rel_defect(dC_star["K"], comm)
        comm = _subtract_into(twisted_d(lam_f["I"], "K"), apply_fiber(dC["K"], LamI))
        out["dJ_star_eq_comm_dK_LambdaI"] = rel_defect(dC_star["J"], comm)
        yield out


def kodaira_suite(f: FormField) -> dict[str, float]:
    """Residuals of the six commutator identities tying d, d_C, L_C, Lambda_C.

        d_C* =  [Lambda_C, d]        d  =  [L_C, d_C*]
        d*   = -[Lambda_C, d_C]      d_C = -[L_C, d*]
        d_K* =  [Lambda_I, d_J]      d_J* = [d_K, Lambda_I]
    """
    return next(kodaira_samples([f]))


def conjugation_defect(f: FormField, u, x) -> float:
    """|| U d_x U^{-1}(f) - d_{Ux}(f) || / scale for (4,) arrays u (a unit) and x."""
    rot = rotor_matrix(u)
    inv = rot.T  # the fiber action of a unit quaternion is orthogonal
    lhs = apply_fiber(quaternionic_d(apply_fiber(f, inv), x), rot)
    lu = left_matrix(u)
    # the product ux, summed in a fixed order: the one that made the pinned reports
    ux = (lu[:, 0] * x[0] + lu[:, 2] * x[2]) + (lu[:, 1] * x[1] + lu[:, 3] * x[3])
    rhs = quaternionic_d(f, ux)
    return rel_defect(lhs, rhs)
