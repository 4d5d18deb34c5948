"""Differential forms on T^4 = R^4/Z^4 as truncated Fourier data.

A FormField stores one (16,) fiber array of blade coefficients per lattice
mode k with ||k||_inf <= kmax, under the convention

    omega(xi) = sum_k omega_k * exp(2 pi i k . xi).

The full (2*kmax+1)^4 mode grid is materialized densely in a fixed
lexicographic order, so every operator in the algebra is a plain (n, 16)
array transform and mode sets never need realignment.  The field is real
iff omega_{-k} = conj(omega_k) for all k.

A field takes ownership of the (n, 16) array it is built from (no copy).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

from .exterior import DEGREE, N_BLADES


# bytes one dense field may take: truncation 12 ((2*12+1)^4 modes x 16 blades
# x 16 B = 95 MiB) fits, truncation 13 (130 MiB) does not
FIELD_BYTE_BUDGET = 128 * 2**20
_MODE_BYTES = N_BLADES * np.dtype(complex).itemsize


def check_truncation(kmax: int) -> None:
    """ValueError when a dense field of truncation kmax would exceed FIELD_BYTE_BUDGET."""
    nbytes = (2 * kmax + 1) ** 4 * _MODE_BYTES
    if nbytes > FIELD_BYTE_BUDGET:
        raise ValueError(f"truncation {kmax} needs {nbytes / 2**20:.0f} MiB per field, "
                         f"above the {FIELD_BYTE_BUDGET // 2**20} MiB budget")


def _mode_rows(k, kmax: int):
    """Row of each mode k (last axis of length 4) in the grid of truncation kmax."""
    place = (2 * kmax + 1) ** np.arange(3, -1, -1)
    return np.asarray(k) @ place + kmax * place.sum()


@lru_cache(maxsize=None)
def grid(kmax: int):
    """Cached mode bookkeeping for a given truncation.

    Returns (modes, ksq): the (n, 4) integer mode array in lexicographic
    order and |k|^2 per mode.  The grid is symmetric about k = 0, so the row
    of -k is n - 1 - row(k) and k = 0 is the middle row, n // 2.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    r = np.arange(-kmax, kmax + 1)
    modes = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    ksq = np.einsum("na,na->n", modes, modes).astype(float)
    assert np.array_equal(_mode_rows(modes, kmax), np.arange(len(modes)))
    for arr in (modes, ksq):
        arr.setflags(write=False)
    return modes, ksq


def dump_json(doc) -> str:
    """Strict JSON text of a document, indent 1 and sorted keys; ValueError on NaN or inf."""
    return json.dumps(doc, indent=1, sort_keys=True, default=float, allow_nan=False)


def _entry_column(entries, key: str, kinds: str, what: str) -> np.ndarray:
    """One field of every form-document entry as an array of a numeric kind."""
    try:
        values = [e[key] for e in entries]
        column = np.array(values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed entries: {key}: {exc!r}") from exc
    # numpy reads a true next to numbers as 1; a boolean is no number here
    scalars = itertools.chain.from_iterable(values) if column.ndim > 1 else values
    if column.dtype.kind not in kinds or bool in set(map(type, scalars)):
        raise ValueError(f"every {key} must be {what}")
    return column


class FormField:
    """Truncated Fourier series of a complex-valued differential form on T^4; owns `coeffs`."""

    __slots__ = ("kmax", "coeffs")

    def __init__(self, kmax: int, coeffs: np.ndarray | None = None):
        self.kmax = int(kmax)
        check_truncation(self.kmax)
        n = (2 * self.kmax + 1) ** 4
        if coeffs is None:
            self.coeffs = np.zeros((n, N_BLADES), dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != (n, N_BLADES):
                raise ValueError(f"expected coeffs of shape {(n, N_BLADES)}, got {coeffs.shape}")
            self.coeffs = coeffs

    # -- bookkeeping ----------------------------------------------------
    @property
    def modes(self) -> np.ndarray:
        return grid(self.kmax)[0]

    def mode_index(self, k) -> int:
        k = np.asarray(k, dtype=int).reshape(4)
        if np.abs(k).max() > self.kmax:
            raise KeyError(f"mode {tuple(k)} outside truncation kmax={self.kmax}")
        return int(_mode_rows(k, self.kmax))

    def coeff(self, k) -> np.ndarray:
        """A copy of the (16,) fiber coefficient of mode k."""
        return self.coeffs[self.mode_index(k)].copy()

    def set_coeff(self, k, a) -> None:
        self.coeffs[self.mode_index(k)] = a

    # -- algebra ---------------------------------------------------------
    def _check(self, other: "FormField") -> None:
        if self.kmax != other.kmax:
            raise ValueError("truncation mismatch")

    def __add__(self, other):
        self._check(other)
        return FormField(self.kmax, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return FormField(self.kmax, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FormField(self.kmax, self.coeffs * scalar)

    __rmul__ = __mul__

    # -- geometry ---------------------------------------------------------
    def inner(self, other: "FormField") -> complex:
        """L^2 pairing; Fourier modes and blades are orthonormal."""
        self._check(other)
        return complex(np.sum(self.coeffs * np.conj(other.coeffs)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def degrees(self, tol: float = 0.0):
        present = np.abs(self.coeffs).max(axis=0)
        return sorted({int(DEGREE[m]) for m in range(N_BLADES) if present[m] > tol})

    def conjugate(self) -> "FormField":
        """Complex conjugate of the form (modes swap k -> -k, reversing the rows)."""
        return FormField(self.kmax, np.conj(self.coeffs)[::-1])

    def realness_defect(self) -> float:
        return float(np.abs(self.coeffs - np.conj(self.coeffs)[::-1]).max())

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        entries = []
        for n in np.nonzero(np.abs(self.coeffs).sum(axis=1))[0]:
            k = [int(v) for v in self.modes[n]]
            for m in np.nonzero(self.coeffs[n])[0]:
                z = self.coeffs[n, m]
                entries.append(
                    {"k": k, "blade_mask": int(m), "re": float(z.real), "im": float(z.imag)}
                )
        return {"truncation": self.kmax, "entries": entries}

    @classmethod
    def from_dict(cls, doc: dict) -> "FormField":
        """Parse a form document; ValueError when it is malformed.

        Duplicate (k, blade_mask) entries add up.
        """
        if not isinstance(doc, dict) or not {"truncation", "entries"} <= doc.keys():
            raise ValueError("a form document needs 'truncation' and 'entries'")
        kmax = doc["truncation"]
        if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 0:
            raise ValueError(f"truncation must be a non-negative integer, got {kmax!r}")
        f = cls(kmax)
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ValueError("entries must be a list")
        if not entries:
            return f
        k = _entry_column(entries, "k", "iu", "a list of four integers")
        mask = _entry_column(entries, "blade_mask", "iu", "an integer")
        values = np.empty(len(entries), dtype=complex)
        values.real = _entry_column(entries, "re", "iuf", "a number")
        values.imag = _entry_column(entries, "im", "iuf", "a number")
        if k.shape != (len(entries), 4):
            raise ValueError("every k must be a list of four integers")
        if k.min() < -kmax or k.max() > kmax:
            raise ValueError(f"an entry's k lies outside truncation {kmax}")
        if mask.min() < 0 or mask.max() >= N_BLADES:
            raise ValueError(f"every blade_mask must lie in [0, {N_BLADES})")
        if not np.isfinite(values).all():
            raise ValueError("every re and im must be finite")
        np.add.at(f.coeffs, (_mode_rows(k, kmax), mask), values)
        return f

    def save(self, path) -> None:
        """Write the form document; ValueError, with no file written, if it is not finite."""
        text = dump_json(self.to_dict())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "FormField":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self):
        nz = int(np.count_nonzero(np.abs(self.coeffs).sum(axis=1)))
        return f"FormField(kmax={self.kmax}, nonzero_modes={nz}, degrees={self.degrees()})"


def single_mode(kmax: int, k, a) -> FormField:
    """Field with one Fourier mode: a * exp(2 pi i k . xi) for a (16,) fiber array a."""
    f = FormField(kmax)
    f.set_coeff(k, a)
    return f


def random_field(
    kmax: int,
    rng: np.random.Generator,
    degree: int | None = None,
    real: bool = False,
    invariant: bool = False,
) -> FormField:
    """Seeded random field: iid complex Gaussian per (mode, blade).

    degree restricts to homogeneous blades; invariant projects each fiber
    coefficient onto the joint kernel of ad_I, ad_J, ad_K; real symmetrizes
    modes so that omega_{-k} = conj(omega_k).
    """
    check_truncation(kmax)
    n = (2 * kmax + 1) ** 4
    c = (rng.standard_normal((n, N_BLADES)) + 1j * rng.standard_normal((n, N_BLADES))) / np.sqrt(2)
    if degree is not None:
        c[:, DEGREE != degree] = 0.0
    if invariant:
        from .quaternionic import INVARIANT_PROJECTOR

        c = c @ INVARIANT_PROJECTOR.T
    f = FormField(kmax, c)
    if real:
        f.coeffs = (f.coeffs + np.conj(f.coeffs)[::-1]) / 2
    return f
