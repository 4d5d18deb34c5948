"""Clifford algebra Cl(R^4) (x) C acting on the 4-dimensional spin module.

The module is S = Lambda^*(W) for W the +i eigenspace of I on complexified
covectors, spanned by w^1 = e^1 - i e^2 and w^2 = e^3 - i e^4.  S carries
the ordered orthonormal basis (`s_basis_forms` divides each blade by its norm)

    ( |1>,  w^1/sqrt2,  w^2/sqrt2,  (w^1 ^ w^2)/2 ),

of grades S_DEGREES (the number of w factors), in which Hermitian
adjoints are plain conjugate transposes.  The Clifford action is
c(w) = sqrt2 eps(w) for w in W and c(wbar) = -sqrt2 iota(wbar) for wbar in
Wbar, iota contracting against the Hermitian pairing <wbar^i, w^j> =
2 delta_ij of the unnormalized coframe.  On the orthonormal basis eps(w^i)
and iota(wbar^i) have entries +-sqrt2, so c(w^i) and c(wbar^i) are literal
matrices with entries +-2.  A covector splits into its W and Wbar parts by
the closed-form inverse of the coframe, whose halves cancel those 2s: every
entry of c(v) is exactly +-v_a or +-i v_a, and each generator squares to -1
exactly.  tests/test_spin.py checks the literal matrices against the
unnormalized eps and iota conjugated by the basis norms, and the split
against a linear solve on the coframe.

Unlike the form-side operator algebra (see quaternionic.kahler_form), the
quantization map here uses omega^C = g(C., .): that is the sign for which
c(omega^C) realizes 2C under the commutator map on generators and grades S
with c(omega^I) = i(2q - 2) on Lambda^q(W).
"""

from __future__ import annotations

import numpy as np

from .exterior import N_BLADES, VOL, one_form, wedge, wedge_matrix
from .fields import grid
from .quaternionic import AD, STRUCTURE_NAMES, kahler_form, left_matrix
from .zeta import reduce_theta

# holomorphic coframe: +i eigenvectors of I acting on covectors
W_COFRAME = np.array(
    [
        [1.0, -1j, 0.0, 0.0],  # w^1 = e^1 - i e^2
        [0.0, 0.0, 1.0, -1j],  # w^2 = e^3 - i e^4
    ]
)
W_COFRAME.setflags(write=False)

# form degree of each S basis element: basis element i wedges the w^j of the set bits
# of i; read off the basis, not off the type ranks of I, so a broken I fails the
# grading checks instead of resizing the basis
S_DEGREES = np.array([bin(i).count("1") for i in range(2 ** len(W_COFRAME))])
S_DEGREES.setflags(write=False)


# c(w^i) = sqrt2 eps(w^i): |w^i| = sqrt2 and |w^1 ^ w^2| = 2 make each entry of
# eps(w^i) sqrt2, so each entry of c(w^i) is 2 (w^2 ^ w^1 = -w^1 ^ w^2)
_C_W = 2 * np.array([[[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
                     [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]]], dtype=complex)
# c(wbar^i) = -sqrt2 iota(wbar^i): the pairing <wbar^i, w^j> = 2 delta_ij makes each
# entry of iota(wbar^i) 2/sqrt2 = sqrt2, so each entry of c(wbar^i) is -2
_C_WBAR = -2 * np.array([[[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                         [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]]], dtype=complex)


def _split_holomorphic(v: np.ndarray):
    """Components along (w^1, w^2, wbar^1, wbar^2): a_i, b_i = (v_{2i-1} +- i v_{2i})/2."""
    v = np.asarray(v, dtype=complex).reshape(2, 2)
    return np.concatenate([v[:, 0] + 1j * v[:, 1], v[:, 0] - 1j * v[:, 1]]) / 2


def clifford_action(v) -> np.ndarray:
    """c(v) for a complexified covector v (4 components in the e-basis)."""
    a1, a2, b1, b2 = _split_holomorphic(v)
    return a1 * _C_W[0] + a2 * _C_W[1] + b1 * _C_WBAR[0] + b2 * _C_WBAR[1]


GENERATORS = np.array([clifford_action(e) for e in np.eye(4)])
GENERATORS.setflags(write=False)


def quantize(form: np.ndarray) -> np.ndarray:
    """Linear extension of e^{i_1} ^ ... ^ e^{i_k} -> c^{i_1} ... c^{i_k}."""
    out = np.zeros((4, 4), complex)
    for mask in range(N_BLADES):
        z = form[mask]
        if z == 0:
            continue
        m = np.eye(4, dtype=complex)
        for a in range(4):
            if mask >> a & 1:
                m = m @ GENERATORS[a]
        out += z * m
    return out


def spin_kahler_form(c) -> np.ndarray:
    """omega^C = g(C., .), the spin-side sign (see module doc); C is antisymmetric."""
    return -kahler_form(c)


def chirality() -> np.ndarray:
    """Gamma = i^2 c^1 c^2 c^3 c^4 for n = 4; squares to one, grades S."""
    return -quantize(VOL)


def supertrace(op: np.ndarray) -> complex:
    return complex(np.trace(chirality() @ op))


def sl2_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h = c(omega^I)/2i, e = (c(omega^J) - i c(omega^K))/4, f = -(..+..)/4."""
    cI, cJ, cK = (quantize(spin_kahler_form(n)) for n in STRUCTURE_NAMES)
    return cI / 2j, (cJ - 1j * cK) / 4, -(cJ + 1j * cK) / 4


def sl2_table() -> dict:
    """Measured commutator table of (h, e, f), expanded in that basis.

    Least squares over the 16-dimensional operator space; `residual` is the
    part of each commutator outside span(h, e, f).
    """
    h, e, f = sl2_triple()
    basis = np.stack([op.reshape(-1) for op in (h, e, f)], axis=1)
    out = {}
    for name, (a, b) in {"[h,e]": (h, e), "[h,f]": (h, f), "[e,f]": (e, f)}.items():
        comm = (a @ b - b @ a).reshape(-1)
        coeffs, *_ = np.linalg.lstsq(basis, comm, rcond=None)
        out[name] = dict(zip("hef", map(complex, coeffs)),
                         residual=float(np.linalg.norm(basis @ coeffs - comm)))
    return out


# ---------------------------------------------------------------------------
# identification with (q,0)-forms and the Dirac operator
# ---------------------------------------------------------------------------

def s_basis_forms() -> np.ndarray:
    """(4, 16) array: the orthonormal S basis as fiber elements, each blade over its norm."""
    w1, w2 = (one_form(w) for w in W_COFRAME)
    blades = np.stack([np.eye(N_BLADES)[0], w1, w2, wedge(w1, w2)])
    return blades / np.linalg.norm(blades, axis=1, keepdims=True)


def _fit(op: np.ndarray, target: np.ndarray):
    """Least-squares lam in op = lam * target, and the max entry of the misfit.

    A zero target fits nothing: lam and the misfit are NaN, without a warning.
    """
    gram = np.vdot(target, target)
    lam = np.vdot(target, op) / gram if gram else complex("nan")
    return complex(lam), float(np.abs(op - lam * target).max())


def omega_operator_check() -> dict:
    """Prop-forms verification: e is (a multiple of) wedging with Omega.

    Omega = (omega^J - i omega^K)/4 is (2,0) for I; the measured
    normalization of the identification is reported rather than assumed.
    """
    h, e, f = sl2_triple()
    phi = s_basis_forms()
    omega = (spin_kahler_form("J") - 1j * spin_kahler_form("K")) * 0.25
    wedge_omega = wedge_matrix(omega)

    # restrict wedge(Omega) and its adjoint to the embedded S subspace
    restrict = phi.T @ phi.conj()
    lam, e_defect = _fit(phi.T @ e @ phi.conj(), wedge_omega @ restrict)
    lamf, f_defect = _fit(phi.T @ f @ phi.conj(), wedge_omega.conj().T @ restrict)

    # pairing value: f applied to the embedded image of Omega, against <Omega, Omega>
    omega_in_s = phi.conj() @ omega  # S coordinates of Omega
    f_omega = f @ omega_in_s
    vac = np.eye(4, dtype=complex)[0]
    pairing = complex(np.vdot(vac, f_omega))
    gram = complex(np.vdot(omega, omega))

    type_defect = np.linalg.norm(AD["I"] @ omega - 2j * omega)

    return {
        "omega_is_20_type": float(type_defect),
        "e_normalization": lam,
        "e_defect": e_defect,
        "f_normalization": lamf,
        "f_defect": f_defect,
        "f_on_omega_vs_gram": pairing / gram,
        "f_kills_vacuum": float(np.abs(f @ vac).max()),
    }


def _dirac_basis() -> np.ndarray:
    """(4, 4, 4): D_k = sum_a kappa_a basis[a], D_k = sqrt2 (del' + del'^dagger) at kappa.

    del' is the holomorphic part of the twisted flat connection symbol; D is
    real-linear in kappa, so its value on the four unit covectors fixes it.
    """
    a = np.array([_split_holomorphic(e)[:2] for e in np.eye(4)])  # W parts of each e^a
    dpr = 1j * np.einsum("ai,ijk->ajk", a, _C_W)  # i sqrt2 eps(a) = i c(a)
    return dpr + np.conj(np.swapaxes(dpr, 1, 2))


def dirac_block_check(theta=(0, 0, 0, 0), kmax: int = 3) -> dict:
    """Mode-level Dirac verification on (.,0)-forms.

    For each mode k of the kmax box the symbol D_k at kappa = 2 pi (k + theta),
    theta reduced by zeta.reduce_theta so the box is centered on the ball, must
    (a) coincide with i c(kappa), (b) square to |kappa|^2 Id, (c) be odd,
    with its even->odd block B_k satisfying B_k^H B_k = |kappa|^2 Id, so
    that it swaps the even and odd halves isomorphically off the kernel,
    and (d) have vanishing graded heat trace sum_k tr(Gamma exp(-t D_k^2)).
    The pairing defect is relative: parity entries over |kappa|, the
    B_k^H B_k residual over |kappa|^2.  The graded trace is taken at
    t = 1/(4 pi^2), where each mode weighs exp(-|k + theta|^2), and divided
    by the ungraded trace, so a defect in any low mode shows at O(1).
    """
    kappa = 2 * np.pi * (grid(kmax) + reduce_theta(theta))
    lam = np.einsum("na,na->n", kappa, kappa)
    basis = _dirac_basis()
    D = np.einsum("na,aij->nij", kappa, basis)
    # i c(kappa) is linear in kappa too: compare the symbols term by term
    c_defect = np.abs(np.einsum("na,aij->nij", kappa, basis - 1j * GENERATORS)).max()
    sq_defect = np.abs(D @ D - lam[:, None, None] * np.eye(4)).max()

    odd = S_DEGREES % 2 == 1
    norm = np.sqrt(np.where(lam > 0, lam, 1.0))  # |kappa|, 1 on the kernel mode
    parity = np.abs(D[:, odd == odd[:, None]]).max(axis=1) / norm
    B = D[:, odd][:, :, ~odd]  # even -> odd block
    BhB = np.conj(np.swapaxes(B, 1, 2)) @ B
    iso = np.abs(BhB - lam[:, None, None] * np.eye(2)).max(axis=(1, 2)) / norm**2
    pairing = float(np.max([parity.max(), iso.max()]))

    mu, V = np.linalg.eigh(D)  # D_k is Hermitian
    gamma_v = np.conj(np.swapaxes(V, 1, 2)) @ chirality() @ V
    heat = np.exp(-mu**2 / (4 * np.pi**2))
    graded = np.einsum("nj,njj->", heat, gamma_v)

    return {
        "clifford_symbol_defect": float(c_defect),
        "square_defect_rel": float(sq_defect) / (4 * np.pi**2 * max(1.0, 3 * kmax**2)),
        "even_odd_pairing_defect": pairing,
        "graded_heat_trace_rel": float(abs(graded) / heat.sum()),
    }


# ---------------------------------------------------------------------------
# algebraic residuals
# ---------------------------------------------------------------------------

def clifford_relation_defect() -> float:
    """max over ordered generator pairs of || {c^a, c^b} + 2 g_ab ||."""
    prods = GENERATORS[:, None] @ GENERATORS[None, :]  # c^a c^b
    anti = prods + np.swapaxes(prods, 0, 1)
    target = -2.0 * np.multiply.outer(np.eye(4), np.eye(4))  # -2 g_ab Id
    return float(np.abs(anti - target).max())


def conjugation_defect_sample(rng: np.random.Generator) -> float:
    """c(x) c(v) c(x)^{-1} = c(x(v)) for x = exp of a random isotropy generator.

    The spin side exponentiates the anti-Hermitian generator through the
    eigenvectors of the Hermitian i * gen; the vector side is the unit
    quaternion cos|phi| + sin|phi| phi/|phi| acting by left multiplication.
    """
    phi = rng.standard_normal(3)
    gen_s = sum(p * quantize(spin_kahler_form(n)) / 2 for p, n in zip(phi, STRUCTURE_NAMES))
    mu, V = np.linalg.eigh(1j * gen_s)
    rot_s = (V * np.exp(-1j * mu)) @ V.conj().T
    r = np.linalg.norm(phi)
    rot_v = left_matrix(np.concatenate([[np.cos(r)], np.sin(r) * phi / r]))
    v = rng.standard_normal(4)
    lhs = rot_s @ clifford_action(v) @ np.linalg.inv(rot_s)
    rhs = clifford_action(rot_v @ v)
    return float(np.abs(lhs - rhs).max())


def vacuum_annihilation_defect() -> float:
    vac = np.eye(4, dtype=complex)[0]
    return float(np.max([np.abs(clifford_action(row) @ vac) for row in W_COFRAME.conj()]))


def grading_eigenvalues() -> list[complex]:
    cI = quantize(spin_kahler_form("I"))
    return [complex(z) for z in np.diag(cI)]

