"""The hyperkahler package on the flat fiber: I, J, K and their form actions.

Coordinates (xi^1..xi^4) are identified with the quaternion
x^0 + x^1 i + x^2 j + x^3 k, and the three complex structures act on the
cotangent fiber by left quaternion multiplication.  Left multiplication is a
homomorphism, so I^2 = J^2 = K^2 = IJK = -1 holds exactly, and since the
matrices are orthogonal the induced cotangent action coincides with the
tangent one.

A quaternion is a plain (4,) float array (x^0, x^1, x^2, x^3).  It acts only
through `left_matrix(x)`, so the product xy is `left_matrix(x) @ y`,
Re(conj(x) y) is `x @ y` and |x| is `np.linalg.norm(x)`.

Kahler two-forms use the convention

    omega_C(u, v) = g(u, C v),

the unique sign for which the generalized Kodaira commutator identities
between twisted differentials, their adjoints and the Lefschetz operators
hold literally (see operators.kodaira_suite).

Every fiber operator here is a 16x16 matrix acting on (16,) blade-coefficient
arrays.  A 4x4 matrix M acts on the fiber in two ways: as the derivation
extension `ad_matrix(M)` and as the multiplicative extension `group_matrix(M)`,
the induced action on blades (on degree-p blades, the p x p minors of M).
They are related by group_matrix(exp A) = exp(ad_matrix(A)), so a unit
quaternion u = exp(phi n.(i, j, k)) acts as `group_matrix(left_matrix(u))`
and no matrix exponential is computed.

INVARIANT_PROJECTOR, onto the invariant fiber forms (scalars, vol and the
anti-self-dual 2-forms), is a closed form in DEGREE and STAR; the tests check
it against the null space of (ad_I, ad_J, ad_K).
"""

from __future__ import annotations

import numpy as np

from .exterior import DEGREE, DIM, GRADING, INTERIOR_E, N_BLADES, STAR, wedge_matrix

# left multiplication by i, j, k on quaternion coordinates (x0, x1, x2, x3)
I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
for _m in (I, J, K):
    _m.setflags(write=False)

STRUCTURES = {"I": I, "J": J, "K": K}
STRUCTURE_NAMES = ("I", "J", "K")


def left_matrix(x) -> np.ndarray:
    """4x4 matrix of left multiplication by the quaternion x, a (4,) array."""
    return x[0] * np.eye(DIM) + x[1] * I + x[2] * J + x[3] * K


def structure_matrix(c) -> np.ndarray:
    """Resolve c to a 4x4 structure matrix.

    Accepts "I"/"J"/"K", a 3-vector sigma for sigma1*I + sigma2*J + sigma3*K,
    or an explicit 4x4 matrix.
    """
    if isinstance(c, str):
        return STRUCTURES[c]
    c = np.asarray(c, dtype=float)
    if c.shape == (3,):
        return c[0] * I + c[1] * J + c[2] * K
    if c.shape == (DIM, DIM):
        return c
    raise ValueError(f"cannot interpret {c!r} as a complex structure")


def kahler_form(c) -> np.ndarray:
    """Blade coefficients of the real 2-form omega_C(u, v) = g(u, C v)."""
    m = structure_matrix(c)
    out = np.zeros(N_BLADES)
    for a in range(DIM):
        for b in range(a + 1, DIM):
            out[(1 << a) | (1 << b)] = m[a, b]
    return out


def ad_matrix(c) -> np.ndarray:
    """Degree-preserving derivation extension of c to the 16-dim fiber."""
    m = structure_matrix(c)
    out = np.zeros((N_BLADES, N_BLADES))
    for a in range(DIM):
        out += wedge_matrix(m[:, a]) @ INTERIOR_E[a]
    return out


def group_matrix(c) -> np.ndarray:
    """Multiplicative (algebra automorphism) extension of c to the fiber."""
    m = structure_matrix(c)
    out = np.zeros((N_BLADES, N_BLADES))
    out[0, 0] = 1.0
    for mask in range(1, N_BLADES):
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        out[:, mask] = wedge_matrix(m[:, low]) @ out[:, rest]
    return out


AD = {name: ad_matrix(name) for name in STRUCTURE_NAMES}
GROUP = {name: group_matrix(name) for name in STRUCTURE_NAMES}
for _m in list(AD.values()) + list(GROUP.values()):
    _m.setflags(write=False)


def rotor_matrix(u) -> np.ndarray:
    """Fiber action of a unit quaternion u = exp(phi * n.(i,j,k)).

    The multiplicative extension of left multiplication by u, which equals
    the 16x16 exponential of phi * n.(ad_I, ad_J, ad_K).
    """
    n = np.linalg.norm(u)
    if not abs(n - 1.0) <= 1e-9:
        raise ValueError(f"rotor requires a unit quaternion, got |u| = {n}")
    return group_matrix(left_matrix(u))


def lefschetz_matrix(c) -> np.ndarray:
    return wedge_matrix(kahler_form(c))


def lefschetz_dual_matrix(c) -> np.ndarray:
    # adjoint w.r.t. the blade Hermitian pairing; the matrix is real
    return lefschetz_matrix(c).T.copy()


def _type_eigenvalues(k: int):
    """(p, q) splittings of degree k on a fiber of complex dimension 2."""
    return [(p, k - p) for p in range(max(0, k - 2), min(k, 2) + 1)]


def type_projector_matrix(c, p: int, q: int) -> np.ndarray:
    """Projector onto the (p, q) eigenspace of ad_c inside degree p + q.

    Built by Lagrange interpolation on the (exact) ad_c eigenvalues
    i(p' - q') within the degree, composed with the degree projector.
    """
    if p < 0 or q < 0 or p > 2 or q > 2:
        return np.zeros((N_BLADES, N_BLADES), dtype=complex)
    k = p + q
    ad = ad_matrix(c).astype(complex)
    target = 1j * (p - q)
    proj = np.eye(N_BLADES, dtype=complex)
    for (pp, qq) in _type_eigenvalues(k):
        lam = 1j * (pp - qq)
        if (pp, qq) == (p, q):
            continue
        proj = proj @ (ad - lam * np.eye(N_BLADES)) / (target - lam)
    deg = np.diag((DEGREE == k).astype(float))
    return deg @ proj


# ranks of the (q,0)-forms of I, q = 0, 1, 2: the traces of their type projectors
FORM_RANKS = tuple(int(round(np.trace(type_projector_matrix("I", q, 0)).real)) for q in range(3))


def invariance_defect(a: np.ndarray) -> float:
    """max over C in {I, J, K} of ||ad_C a|| for a of shape (..., 16); zero iff invariant."""
    return float(np.max([np.linalg.norm(a @ AD[n].T) for n in STRUCTURE_NAMES]))


# orthogonal projector onto the joint kernel of ad_I, ad_J, ad_K: scalars, vol
# and the anti-self-dual 2-forms (the Kahler forms are self-dual), 5-dimensional
_P2 = np.diag((DEGREE == 2).astype(float))
INVARIANT_PROJECTOR = np.diag((DEGREE % 4 == 0).astype(float)) + (_P2 - _P2 @ STAR @ _P2) / 2
INVARIANT_PROJECTOR.setflags(write=False)


def xhat_matrix(x) -> np.ndarray:
    """x0 * N + x1 ad_I + x2 ad_J + x3 ad_K on the fiber, x a (4,) array."""
    return x[0] * GRADING + x[1] * AD["I"] + x[2] * AD["J"] + x[3] * AD["K"]
