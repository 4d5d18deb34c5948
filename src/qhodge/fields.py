"""Differential forms on T^4 = R^4/Z^4 as truncated Fourier data.

A FormField stores one (16,) fiber array of blade coefficients per lattice
mode k with ||k||_inf <= kmax, under the convention

    omega(xi) = sum_k omega_k * exp(2 pi i k . xi).

The full (2*kmax+1)^4 mode grid is materialized densely in a fixed
lexicographic order, so every operator in the algebra is a plain (n, 16)
array transform and mode sets never need realignment.  The field is real
iff omega_{-k} = conj(omega_k) for all k.

The (n, 16) array is stored blade-major (column-major): `coeffs.T` is a
C-contiguous (16, n) array, so each blade's n coefficients are one
contiguous run, which is what the symbol kernel in `operators` reads and
writes.  A field keeps a blade-major array it is built from and copies a
row-major one once.
"""

from __future__ import annotations

import itertools
import json
import numbers
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


# a form field's entries are formatted this many at a time, so a dense field's
# document (~13 MB at truncation 4) is never one string
_ENTRY_CHUNK = 4096
# stands in for a form field while the envelope is encoded; no report string holds a NUL
_FIELD_MARK = "\0qhodge.FormField %d"


def dump_json(doc):
    """A document's file text (strict JSON, indent 1, sorted keys) as an iterator of chunks.

    The one encoder of a form document: the text is json.dumps(doc, indent=1,
    sort_keys=True, allow_nan=False) and a newline, with each FormField in doc
    (doc itself included) written as {"entries": [{"blade_mask", "im", "k", "re"},
    ...], "truncation"}, entries in row-major (mode, blade) order, exact zeros
    skipped; json.loads of the text gives that dict.  Checked before the first
    chunk: ValueError on a NaN or inf, and the json module's TypeError on any
    other value it cannot encode (a numpy scalar other than float64 too).
    """
    fields = []

    def default(obj):
        if not isinstance(obj, FormField):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        fields.append(obj)
        return _FIELD_MARK % (len(fields) - 1)

    text = json.dumps(doc, indent=1, sort_keys=True, default=default, allow_nan=False)
    for f in fields:
        if not np.isfinite(f.coeffs).all():
            raise ValueError("a form field holds a NaN or infinite coefficient")
    return _splice(text, fields)


def _splice(text: str, fields):
    """The envelope text with each field's marker replaced by the field's JSON."""
    pos = 0
    for i, f in enumerate(fields):
        mark = json.dumps(_FIELD_MARK % i)
        at = text.index(mark, pos)
        line = text[text.rfind("\n", 0, at) + 1:at]
        yield text[pos:at]
        yield from f._json_chunks(len(line) - len(line.lstrip(" ")))
        pos = at + len(mark)
    yield text[pos:] + "\n"


def _entry_column(entries, key: str, width: int, types, what: str) -> np.ndarray:
    """One field of every form-document entry as an array of ints, or of floats when
    types admits a float; k (width 4) as (n, 4)."""
    try:
        values = [e[key] for e in entries]
        if width and set(map(len, values)) != {width}:
            raise ValueError(f"expected {width} components")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed entries: {key}: {exc!r}") from exc

    def scalars():
        return itertools.chain.from_iterable(values) if width else values

    # exact types: a boolean is no number here, and a float k is no integer
    if not set(map(type, scalars())) <= types:
        raise ValueError(f"every {key} must be {what}")
    try:
        column = np.fromiter(scalars(), float if float in types else np.int64,
                             len(values) * (width or 1))
    except OverflowError as exc:
        raise ValueError(f"malformed entries: {key}: {exc!r}") from exc
    return column.reshape(-1, width) if width else column


def _row_major_norm(coeffs: np.ndarray) -> float:
    """L^2 norm of an (n, 16) complex array, summed in row-major (mode, blade) order.

    The sum of squares runs over the real and imaginary parts in numpy's own
    loop rather than a BLAS dot, so its value does not depend on the BLAS
    thread count.  reshape(-1) is a view of a row-major array and a row-major
    copy of a blade-major one.  When the sum overflows or underflows, the
    parts are rescaled by a power of two (exact) that brings the largest near 1.
    """
    parts = coeffs.reshape(-1).view(float)
    with np.errstate(over="ignore"):  # handled below
        value = float(np.sqrt(np.einsum("i,i->", parts, parts)))
    if value == np.inf or (value == 0.0 and parts.any()):
        _, e = np.frexp(np.abs(parts).max())
        scaled = np.ldexp(parts, -e)
        value = float(np.ldexp(np.sqrt(np.einsum("i,i->", scaled, scaled)), e))
    return value


class FormField:
    """Truncated Fourier series of a complex-valued differential form on T^4.

    `coeffs` is the (n, 16) array of coefficients, stored blade-major.
    """

    __slots__ = ("kmax", "coeffs")

    def __init__(self, kmax: int, coeffs: np.ndarray | None = None):
        self.kmax = int(kmax)
        check_truncation(self.kmax)
        n = (2 * self.kmax + 1) ** 4
        if coeffs is None:
            self.coeffs = np.zeros((N_BLADES, n), dtype=complex).T
        else:
            coeffs = np.asarray(coeffs, dtype=complex, order="F")
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

    def set_coeff(self, k, a) -> None:
        self.coeffs[self.mode_index(k)] = a

    # -- algebra ---------------------------------------------------------
    def _check(self, other: "FormField") -> None:
        if self.kmax != other.kmax:
            raise ValueError("truncation mismatch")

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        self._check(other)
        return FormField(self.kmax, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        self._check(other)
        return FormField(self.kmax, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FormField(self.kmax, self.coeffs * scalar)

    __rmul__ = __mul__

    # -- geometry ---------------------------------------------------------
    def inner(self, other: "FormField") -> complex:
        """L^2 pairing; Fourier modes and blades are orthonormal.

        The products are summed in row-major (mode, blade) order.
        """
        if not isinstance(other, FormField):
            raise TypeError(f"inner product of a FormField with {type(other).__name__}")
        self._check(other)
        return complex(np.sum(np.ascontiguousarray(self.coeffs * np.conj(other.coeffs))))

    def norm(self) -> float:
        """L^2 norm; finite whenever it is representable, even when its square is not.

        The sum of squares runs in row-major order: reshape(-1) makes a
        row-major copy of the blade-major array (see `_row_major_norm`).
        """
        return _row_major_norm(self.coeffs)

    def distance(self, other: "FormField") -> float:
        """||self - other||, equal to (self - other).norm() bit for bit.

        The difference is written straight into one row-major array, so no
        blade-major difference and no second copy of it are made.
        """
        if not isinstance(other, FormField):
            raise TypeError(f"distance of a FormField to {type(other).__name__}")
        self._check(other)
        diff = np.empty(self.coeffs.shape, dtype=complex)
        return _row_major_norm(np.subtract(self.coeffs, other.coeffs, out=diff))

    def degrees(self, tol: float = 0.0):
        present = np.abs(self.coeffs).max(axis=0)
        return sorted({int(DEGREE[m]) for m in range(N_BLADES) if present[m] > tol})

    def realness_defect(self) -> float:
        return float(np.abs(self.coeffs - np.conj(self.coeffs)[::-1]).max())

    # -- serialization -----------------------------------------------------
    def _json_chunks(self, indent: int):
        """This field's form document, as dump_json writes it on a line indented by
        `indent`, in chunks of _ENTRY_CHUNK entries; the coefficients must be finite."""
        nl = ["\n" + " " * (indent + i) for i in range(5)]
        entry = (f'{nl[2]}{{{nl[3]}"blade_mask": %d,{nl[3]}"im": %r,{nl[3]}"k": ['
                 f'{nl[4]}%d,{nl[4]}%d,{nl[4]}%d,{nl[4]}%d{nl[3]}],{nl[3]}"re": %r{nl[2]}}}')
        yield f'{{{nl[1]}"entries": ['
        rows, masks = np.nonzero(self.coeffs)
        for start in range(0, len(rows), _ENTRY_CHUNK):
            r, m = rows[start:start + _ENTRY_CHUNK], masks[start:start + _ENTRY_CHUNK]
            z = self.coeffs[r, m]
            columns = self.modes[r].tolist(), m.tolist(), z.real.tolist(), z.imag.tolist()
            yield ("," if start else "") + ",".join(
                [entry % (mask, im, *k, re) for k, mask, re, im in zip(*columns)])
        # an empty list is "[]"; a filled one closes on its own line
        yield f'{nl[1] if len(rows) else ""}],{nl[1]}"truncation": {self.kmax}{nl[0]}}}'

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
        k = _entry_column(entries, "k", 4, {int}, "a list of four integers")
        mask = _entry_column(entries, "blade_mask", 0, {int}, "an integer")
        values = np.empty(len(entries), dtype=complex)
        values.real = _entry_column(entries, "re", 0, {int, float}, "a number")
        values.imag = _entry_column(entries, "im", 0, {int, float}, "a number")
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
        chunks = dump_json(self)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)

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
    # drawn straight into blade-major storage; numpy divides a complex array by
    # a real scalar as a product with its reciprocal, so this has the bits of
    # (N1 + 1j N2) / np.sqrt(2)
    c = np.empty((N_BLADES, n), dtype=complex).T
    c.real = rng.standard_normal((n, N_BLADES))
    c.imag = rng.standard_normal((n, N_BLADES))
    c *= 1 / np.sqrt(2)
    if degree is not None:
        c[:, DEGREE != degree] = 0.0
    if invariant:
        from .quaternionic import INVARIANT_PROJECTOR

        c = c @ INVARIANT_PROJECTOR.T
    if real:
        c += np.conj(c)[::-1]
        c /= 2
    return FormField(kmax, c)
