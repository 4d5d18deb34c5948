"""Exact exterior algebra on the 16-dimensional complexified fiber of R^4.

Basis blades are indexed by 4-bit masks: bit a set means the covector
dxi^{a+1} is a factor, with factors ordered by increasing index.  All
products reduce to table lookups, so the fiber algebra is exact up to
float rounding.  The orientation is fixed once and for all by

    vol = dxi^1 ^ dxi^2 ^ dxi^3 ^ dxi^4   (mask 0b1111),

and every adjoint/sign convention downstream derives from it.

A fiber element is a plain (16,) array of blade coefficients: linear maps
act as `mat @ a`, the Hodge star as `STAR @ a`, and the blades are
orthonormal, so the Hermitian pairing <a, b> is `np.vdot(b, a)`.
"""

from __future__ import annotations

import numpy as np

DIM = 4
N_BLADES = 16
VOL_MASK = 0b1111

DEGREE = np.array([bin(m).count("1") for m in range(N_BLADES)], dtype=np.int64)


def _merge_sign(a: int, b: int) -> int:
    """Sign of e_a ^ e_b relative to the canonical ordering of e_{a|b}.

    Zero when the masks overlap.  Counts the transpositions needed to sort
    the concatenated index sequence.
    """
    if a & b:
        return 0
    s = 0
    t = a >> 1
    while t:
        s += bin(t & b).count("1")
        t >>= 1
    return 1 - 2 * (s & 1)


def _build_wedge_tensor() -> np.ndarray:
    w = np.zeros((N_BLADES, N_BLADES, N_BLADES))
    for i in range(N_BLADES):
        for j in range(N_BLADES):
            s = _merge_sign(i, j)
            if s:
                w[i, i | j, j] = s
    return w


# WEDGE[i, k, j] = sign  <=>  e_i ^ e_j = sign * e_k
WEDGE = _build_wedge_tensor()
WEDGE.setflags(write=False)


def _build_star() -> np.ndarray:
    s = np.zeros((N_BLADES, N_BLADES))
    for m in range(N_BLADES):
        mc = (~m) & VOL_MASK
        s[mc, m] = _merge_sign(m, mc)
    return s


# star(e_m) = sign * e_{complement(m)}, fixed by e_m ^ star(e_m) = vol
STAR = _build_star()
STAR.setflags(write=False)


VOL = np.zeros(N_BLADES)
VOL[VOL_MASK] = 1.0
VOL.setflags(write=False)


def one_form(v) -> np.ndarray:
    """Blade coefficients of the covector v_1 dxi^1 + ... + v_4 dxi^4."""
    v = np.asarray(v)
    out = np.zeros(N_BLADES, dtype=np.result_type(v, float))
    out[1 << np.arange(DIM)] = v
    return out


def wedge(a, b) -> np.ndarray:
    """Exterior product a ^ b of two (16,) blade-coefficient arrays."""
    return np.einsum("i,ikj,j->k", a, WEDGE, b)


def wedge_matrix(x) -> np.ndarray:
    """16x16 matrix of left exterior multiplication by x.

    x may be a 16-vector of blade coefficients or a 4-vector of covector
    components.
    """
    x = np.asarray(x)
    if x.shape == (DIM,):
        x = one_form(x)
    return np.einsum("i,ikj->kj", x, WEDGE)


# wedge/interior matrices for the four coordinate directions; interior is the
# metric adjoint of wedge, which in the orthonormal blade basis is the transpose
WEDGE_E = np.stack([wedge_matrix(np.eye(DIM)[a]) for a in range(DIM)])
WEDGE_E.setflags(write=False)
INTERIOR_E = np.stack([WEDGE_E[a].T.copy() for a in range(DIM)])
INTERIOR_E.setflags(write=False)


def interior_matrix(v) -> np.ndarray:
    """16x16 matrix of contraction with the real vector v in R^4."""
    v = np.asarray(v, dtype=float)
    return np.einsum("a,aij->ij", v, INTERIOR_E)


def interior(v, a) -> np.ndarray:
    """Contraction of the (16,) array a with the vector v (degree -1 derivation)."""
    return interior_matrix(v) @ a


GRADING = np.diag(DEGREE.astype(float))
GRADING.setflags(write=False)
