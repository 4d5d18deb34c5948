"""Independent oracles shared by the acceptance tests.

Everything here is computed from first principles (exact fraction
arithmetic, brute-force lattice sums, mpmath special values) without
touching the code paths under test.
"""

import json
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 30

# left multiplication by i, j, k written out again on purpose: the oracle
# must not import the package's matrices
L_I = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
L_J = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
L_K = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def _matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(4)) for i in range(4)]


def det4_fraction(cols):
    mat = [[Fraction(cols[j][i]) for j in range(4)] for i in range(4)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(mat)


def quartic_constant_oracle(k) -> Fraction:
    """Exact ratio det[k, Ik, Jk, Kk] / |k|^4 for an integer mode k.

    This is the symbolic single-mode evaluation of the fourth-order
    differential on e^{2 pi i k.xi}: the volume coefficient is the
    determinant of the quaternionic frame, the bi-Laplacian contributes
    |k|^4; the 2 pi factors cancel.
    """
    k = [int(v) for v in k]
    cols = [k, _matvec(L_I, k), _matvec(L_J, k), _matvec(L_K, k)]
    return det4_fraction(cols) / Fraction(sum(v * v for v in k)) ** 2


def brute_heat_sum(theta, t, radius=12):
    th = np.asarray(theta, float)
    r = np.arange(-radius, radius + 1)
    ks = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    n2 = ((ks + th) ** 2).sum(axis=1)
    return float(np.sum(np.exp(-4 * np.pi**2 * t * n2[n2 > 1e-12])))


def jacobi_logdet_oracle() -> float:
    """-zeta'_Delta(0) for the untwisted scalar Laplacian on T^4.

    Uses sum_{n>=1} r_4(n) n^{-s} = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1) and
    mpmath's zeta derivatives, fully independent of the package constants.
    """
    z0 = mpmath.zeta(0)
    zm1 = mpmath.zeta(-1)
    zp0 = mpmath.zeta(0, derivative=1)
    zpm1 = mpmath.zeta(-1, derivative=1)
    Z0 = 8 * (1 - 4) * z0 * zm1
    Zp0 = 8 * (4 * mpmath.log(4) * z0 * zm1 + (1 - 4) * (zp0 * zm1 + z0 * zpm1))
    zeta_prime = -mpmath.log(4 * mpmath.pi**2) * Z0 + Zp0
    return float(-zeta_prime)


def form_document_oracle(f) -> dict:
    """A form field's document by the plain loop over rows, then blades."""
    entries = []
    for n in np.nonzero(np.abs(f.coeffs).sum(axis=1))[0]:
        k = [int(v) for v in f.modes[n]]
        for m in np.nonzero(f.coeffs[n])[0]:
            z = f.coeffs[n, m]
            entries.append({"k": k, "blade_mask": int(m), "re": float(z.real), "im": float(z.imag)})
    return {"truncation": f.kmax, "entries": entries}


def stock_json(doc) -> str:
    """The text every qhodge JSON file must equal: the json module's own encoding, a newline."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"
