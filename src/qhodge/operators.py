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
bit a and attaches a sign.  So no matrix product is taken: a field stores
its coefficients blade-major (see `fields`), and axis a moves one half of
the blades (one slab of contiguous runs over all modes) onto the other
half, times a fixed sign array and w_a, into a blade-major result.  The
per-axis plans are read off `WEDGE_E` and `INTERIOR_E` at import.  Fiber
matrices (`apply_fiber`) multiply the blade-major (16, n) array from the
left, so they keep the layout too.

Adjoint signs are not transcribed from anywhere: they are forced by the
L^2 adjointness property, which the test suite asserts directly.
"""

from __future__ import annotations

import numpy as np

from .exterior import GRADING, INTERIOR_E, N_BLADES, WEDGE_E
from .fields import FormField, grid
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


def apply_fiber(f: FormField, mat: np.ndarray) -> FormField:
    """Apply one mode-independent 16x16 fiber matrix to every mode.

    The product is taken on the blade-major (16, n) array and keeps that
    layout.  Each entry is the row-major f.coeffs @ mat.T up to the order in
    which BLAS sums its 16 terms.  For a real matrix, as every fiber matrix
    of the package is, the OpenBLAS Haswell and SkylakeX kernels give the
    same bits on two or more modes; other kernels, a single mode (a
    matrix-vector product) and a dense complex matrix may round differently.
    """
    return FormField(f.kmax, (mat @ f.coeffs.T).T)


def _axis_plan(tables):
    """Per-axis slab plan (destination, source, signs) of four signed bit flips.

    tables[a] must map blade m to +-blade m ^ 2^a on one half of the blades
    (bit a clear for eps, set for iota) and vanish on the other; that is
    checked here.  In the blade-major view (2, 2, 2, 2, n) bit a is axis
    3 - a, so each half is one slab and its signs are a (2, 2, 2, 1) array,
    complex like the fields, so signing a slab needs no buffered cast.
    """
    blades = np.arange(N_BLADES)
    plan = []
    for a, E in enumerate(tables):
        bits = blades >> a & 1
        signs = E[blades ^ (1 << a), blades]  # E[m ^ 2^a, m]
        bit = int(signs[bits == 1].any())  # bit a on the source half
        flip = np.zeros_like(E)
        flip[blades ^ (1 << a), blades] = np.where(bits == bit, signs, 0)
        assert np.array_equal(E, flip) and np.all(np.abs(signs[bits == bit]) == 1), \
            f"table {a} is not a signed flip of bit {a}"
        axis = (slice(None),) * (3 - a)
        source = axis + (bit,)
        signs = signs.reshape(2, 2, 2, 2)[source][..., None].astype(complex)
        plan.append((axis + (1 - bit,), source, signs))
    return tuple(plan)


_EPS_PLAN = _axis_plan(WEDGE_E)
_IOTA_PLAN = _axis_plan(INTERIOR_E)


def _apply_symbol(coeffs: np.ndarray, weights: np.ndarray, plan, scale: complex) -> np.ndarray:
    """scale * sum_a weights[:, a] * E_a applied per mode, E_a the signed flip in plan[a].

    Every pass runs over a blade-major slab of all n modes: sign the source
    half, weight it, add it into the destination half.  The sum is taken in
    axis order 0..3 and every sign is +-1, so every value equals that of
    sum_a (coeffs @ E_a.T) * weights[:, a] times scale; only the sign of an
    entry that is exactly zero can differ.  With blade-major coeffs every slab
    is contiguous; the (n, 16) result is the .T of the blade-major sum, scaled
    in place.
    """
    n = len(coeffs)
    view = coeffs.T.reshape(2, 2, 2, 2, n)
    acc = np.zeros(view.shape, dtype=complex)
    tmp = np.empty(view.shape[1:], dtype=complex)
    for (dst, source, signs), w in zip(plan, weights.T):
        np.multiply(view[source], signs, out=tmp)
        tmp *= w
        acc[dst] += tmp
    acc *= scale
    return acc.reshape(N_BLADES, n).T


def _first_order(f: FormField, L: np.ndarray, star: bool) -> FormField:
    """i eps(L kappa), or its adjoint -i iota(L kappa) when star is set."""
    weights = grid(f.kmax)[0] @ L.T
    plan, scale = (_IOTA_PLAN, -2j * np.pi) if star else (_EPS_PLAN, 2j * np.pi)
    return FormField(f.kmax, _apply_symbol(f.coeffs, weights, plan, scale))


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
    ksq = grid(f.kmax)[1]
    return FormField(f.kmax, f.coeffs * (4 * np.pi**2 * ksq)[:, None])


def laplacian_hodge(f: FormField) -> FormField:
    """d d* + d* d, assembled from the factors (property-check companion)."""
    out = d_star(exterior_d(f))
    out.coeffs += exterior_d(d_star(f)).coeffs
    return out


def green(f: FormField) -> FormField:
    ksq = grid(f.kmax)[1]
    inv = np.zeros_like(ksq)
    nz = ksq > 0
    inv[nz] = 1.0 / (4 * np.pi**2 * ksq[nz])
    return FormField(f.kmax, f.coeffs * inv[:, None])


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
    rhs = quaternionic_d(f, left_matrix(u) @ x)
    return rel_defect(lhs, rhs)
