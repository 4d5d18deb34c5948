"""Form-field arithmetic written independently of the qhodge package.

The benchmark builds its transgression targets and re-checks the potentials
qhodge writes with this module, so a defect in the package's operators can
neither shape the inputs nor hide in the check.  A field is a dense complex
array of shape ((2*kmax+1)**4, 16): one row per mode k with ||k||_inf <= kmax
in lexicographic order, one column per blade bitmask.  With kappa = 2 pi k
the mode symbol of d is i eps(kappa) and that of d_C is i eps(C kappa).
"""

from __future__ import annotations

import json
import math

import numpy as np

N_BLADES = 16


def _wedge_basis() -> np.ndarray:
    """E[a] is the 16x16 matrix of exterior multiplication by dx^{a+1}."""
    e = np.zeros((4, N_BLADES, N_BLADES))
    for a in range(4):
        for blade in range(N_BLADES):
            if not blade >> a & 1:
                below = bin(blade & ((1 << a) - 1)).count("1")
                e[a, blade | 1 << a, blade] = (-1) ** below
    return e


WEDGE_E = _wedge_basis()


def modes(kmax: int) -> np.ndarray:
    r = np.arange(-kmax, kmax + 1)
    return np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)


def mode_index(k: np.ndarray, kmax: int) -> np.ndarray:
    w = 2 * kmax + 1
    d = np.asarray(k) + kmax
    return ((d[..., 0] * w + d[..., 1]) * w + d[..., 2]) * w + d[..., 3]


def differential(coeffs: np.ndarray, kmax: int, structure=None) -> np.ndarray:
    """d (structure None) or d_C with C the given 4x4 matrix, on a dense field."""
    u = modes(kmax).astype(float)
    if structure is not None:
        u = u @ np.asarray(structure, dtype=float).T
    out = np.zeros_like(coeffs)
    for a in range(4):
        out += (coeffs @ WEDGE_E[a].T) * u[:, a, None]
    return out * (2j * math.pi)


def chain(coeffs: np.ndarray, kmax: int, structures) -> np.ndarray:
    """d d_{C1} ... d_{Cn} applied to the field, rightmost factor first."""
    for m in reversed(structures):
        coeffs = differential(coeffs, kmax, m)
    return differential(coeffs, kmax)


def random_real(kmax: int, rng: np.random.Generator, degree: int | None = None) -> np.ndarray:
    """Seeded real field: omega_{-k} = conj(omega_k), iid Gaussian otherwise."""
    n = (2 * kmax + 1) ** 4
    c = rng.standard_normal((n, N_BLADES)) + 1j * rng.standard_normal((n, N_BLADES))
    if degree is not None:
        keep = np.array([bin(m).count("1") == degree for m in range(N_BLADES)])
        c[:, ~keep] = 0.0
    neg = mode_index(-modes(kmax), kmax)
    return (c + np.conj(c[neg])) / 2


def to_doc(coeffs: np.ndarray, kmax: int) -> dict:
    rows, blades = np.nonzero(coeffs)
    values = coeffs[rows, blades]
    entries = [
        {"k": k, "blade_mask": m, "re": re, "im": im}
        for k, m, re, im in zip(modes(kmax)[rows].tolist(), blades.tolist(),
                                values.real.tolist(), values.imag.tolist())
    ]
    return {"truncation": kmax, "entries": entries}


def from_doc(doc: dict) -> tuple[np.ndarray, int]:
    """Dense coefficients of a form document; raises ValueError when malformed."""
    kmax = doc["truncation"]
    if not isinstance(kmax, int) or kmax < 0:
        raise ValueError(f"bad truncation {kmax!r}")
    entries = doc["entries"]
    k = np.array([e["k"] for e in entries], dtype=np.int64).reshape(-1, 4)
    mask = np.array([e["blade_mask"] for e in entries], dtype=np.int64)
    values = np.array([complex(e["re"], e["im"]) for e in entries], dtype=complex)
    if len(k) and (np.abs(k).max() > kmax or mask.min() < 0 or mask.max() >= N_BLADES):
        raise ValueError(f"entry outside truncation {kmax} or blade range")
    coeffs = np.zeros(((2 * kmax + 1) ** 4, N_BLADES), dtype=complex)
    np.add.at(coeffs, (mode_index(k, kmax), mask), values)
    return coeffs, kmax


def write(path, coeffs: np.ndarray, kmax: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_doc(coeffs, kmax), allow_nan=False) + "\n")


def relative_residual(rec: np.ndarray, target: np.ndarray) -> float:
    scale = float(np.linalg.norm(target))
    gap = float(np.linalg.norm(rec - target))
    return gap / scale if scale > 0 else gap
