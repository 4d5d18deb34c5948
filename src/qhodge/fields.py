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
contiguous run, which is what the row kernel in `operators` reads and
writes.  A field keeps a blade-major array it is built from and copies a
row-major one once.

A field may also cover one contiguous range of grid rows, [start, stop):
a whole field is the range [0, n), and `FormField.rows` views any range of
a field without a copy.  Every operator is mode-diagonal, so it maps the
rows of a field to the same rows.  The grid is cut into the row blocks of
`row_blocks`, and every sum over a field (`norm`, `distance`, `inner`)
runs block by block in block order, whole or blocked alike: so a sum
accumulated over a field's blocks one at a time (a `Partial`) has the bits
of the same sum over the whole field.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import add, itemgetter

import numpy as np

from .exterior import DEGREE, N_BLADES

# rows of one block at most (row_blocks): at truncation 4 the 6561 rows make 3 blocks of
# 2187, 560 KB each blade-major; 5 blocks of 1312 rows held less but ran slower, as each
# operator call costs a fixed ~60 us of numpy calls per block
BLOCK_ROWS = 2187


# bytes one dense field may take: truncation 12 ((2*12+1)^4 modes x 16 blades
# x 16 B = 95 MiB) fits, truncation 13 (130 MiB) does not
FIELD_BYTE_BUDGET = 128 * 2**20
_MODE_BYTES = N_BLADES * np.dtype(complex).itemsize


def check_truncation(kmax: int) -> None:
    """ValueError for a negative kmax or a dense field of truncation kmax above FIELD_BYTE_BUDGET."""
    if kmax < 0:
        raise ValueError(f"truncation must be >= 0, got {kmax}")
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


# the scalar symbols per mode: Delta's 4 pi^2 |k|^2, G's, its inverse off k = 0 and 0 on
# it, and the modes as complex (4, n) columns, from which every first-order symbol reads
# its axis weights (operators._first_order)
@lru_cache(maxsize=None)
def mode_symbols(kmax: int):
    """Cached read-only (Delta's symbol, G's symbol, complex mode columns) of a truncation."""
    modes, ksq = grid(kmax)
    lapl = 4 * np.pi**2 * ksq
    symbols = (lapl, np.divide(1.0, lapl, out=np.zeros_like(lapl), where=lapl > 0),
               np.ascontiguousarray(modes.T, dtype=complex))
    for arr in symbols:
        arr.setflags(write=False)
    return symbols


@lru_cache(maxsize=None)
def row_blocks(kmax: int) -> tuple:
    """The (start, stop) row blocks of the grid of truncation kmax, in row order.

    Their count is the least odd number of blocks of at most BLOCK_ROWS rows, and
    their bounds round j * n / count to the nearest row, which makes them symmetric
    about the middle row n // 2: block i holds the rows of -k for the k of block
    count - 1 - i, and the middle block holds k = 0.
    """
    n = (2 * kmax + 1) ** 4
    count = -(-n // BLOCK_ROWS)
    count += 1 - count % 2
    bounds = [(j * n + count // 2) // count for j in range(count + 1)]
    return tuple(zip(bounds[:-1], bounds[1:]))


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


def load_json(path, parse):
    """parse(the JSON document in path), decoded and parsed with the cyclic GC paused.

    The one decoder of a form or config file.  A decoded document holds no
    reference cycles, so the collector's passes over its many new containers
    find nothing; the caller's GC state is restored on every exit.  Raises what
    open, json.load (ValueError for bad UTF-8 or JSON, RecursionError for a
    too-deeply-nested document) and parse raise.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    finally:
        if enabled:
            gc.enable()


def _entry_column(entries, key: str, width: int, types, what: str) -> np.ndarray:
    """One field of every form-document entry as an array of ints, or of floats when
    types admits a float; k (width 4) as (n, 4)."""
    try:
        values = list(map(itemgetter(key), entries))
        if width and set(map(len, values)) != {width}:
            raise ValueError(f"expected {width} components")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed entries: {key}: {exc!r}") from exc
    if width:
        values = list(chain.from_iterable(values))
    # exact types: a boolean is no number here, and a float k is no integer
    if not set(map(type, values)) <= types:
        raise ValueError(f"every {key} must be {what}")
    try:
        column = np.fromiter(values, float if float in types else np.int64, len(values))
    except OverflowError as exc:
        raise ValueError(f"malformed entries: {key}: {exc!r}") from exc
    return column.reshape(-1, width) if width else column


def _blade_total(sums: np.ndarray) -> float:
    """The sum of a block's per-blade sums, in blade order: an overflow is inf, not a warning."""
    total = 0.0
    for value in sums.tolist():
        total += value
    return total


class SquareSum:
    """A sum of squares of floats, value * 4**scale, added up block by block.

    A block's sum is numpy's row sum of each blade's squares (`einsum`, never a BLAS
    dot), summed over the blades in blade order.  Its scale is 0 unless that sum overflows, or
    underflows to 0 with a nonzero part: then its parts are rescaled by a power of two
    (exact) that brings the largest near 1.  Adding two sums brings both to the larger
    scale, and by a further 4**512 should the sum of two finite values overflow, so a
    root that is representable is finite.
    """

    __slots__ = ("value", "scale")

    def __init__(self, value: float, scale: int = 0):
        self.value, self.scale = value, scale

    @classmethod
    def of_parts(cls, parts: np.ndarray) -> "SquareSum":
        """The sum of squares of a 2-D float array, each row a blade's parts."""
        value = _blade_total(np.einsum("ij,ij->i", parts, parts))
        if value == math.inf or (value == 0.0 and parts.any()):
            peak = float(np.abs(parts).max())
            if peak < math.inf:
                scale = math.frexp(peak)[1]
                scaled = np.ldexp(parts, -scale)
                return cls(_blade_total(np.einsum("ij,ij->i", scaled, scaled)), scale)
        return cls(value)

    def __add__(self, other: "SquareSum") -> "SquareSum":
        scale = max(self.scale, other.scale)
        a = math.ldexp(self.value, 2 * (self.scale - scale))
        b = math.ldexp(other.value, 2 * (other.scale - scale))
        total = a + b
        if total == math.inf and a < math.inf and b < math.inf:
            scale += 512
            total = math.ldexp(a, -1024) + math.ldexp(b, -1024)
        return SquareSum(total, scale)

    def root(self) -> float:
        """sqrt of the sum: inf when it lies beyond the float range, NaN for a NaN part."""
        root = math.sqrt(self.value)
        if self.scale == 0:
            return root
        with np.errstate(over="ignore"):
            return float(np.ldexp(root, self.scale))


class Peak:
    """A maximum added up block by block: a NaN stays NaN."""

    __slots__ = ("value",)

    def __init__(self, value: float = -math.inf):
        self.value = value

    def __add__(self, other: "Peak") -> "Peak":
        return Peak(float(np.max([self.value, other.value])))


class Partial:
    """A residual's partial sums over some blocks of rows, and how to finish it.

    The partials of consecutive row blocks add up, term by term and in block order
    (SquareSum, Peak, or a complex sum); value() is finish(*terms) on the sums of
    every block.
    """

    __slots__ = ("finish", "terms")

    def __init__(self, finish, *terms):
        self.finish, self.terms = finish, terms

    def __add__(self, other: "Partial") -> "Partial":
        return Partial(self.finish, *(a + b for a, b in zip(self.terms, other.terms)))

    def value(self) -> float:
        return self.finish(*self.terms)


def finish_blocks(block_parts) -> dict:
    """{name: residual} from an iterable of {name: Partial} dicts, one per row block,
    added up in block order."""
    total = None
    for parts in block_parts:
        total = parts if total is None else {k: total[k] + p for k, p in parts.items()}
    return {k: p.value() for k, p in total.items()}


def _inner_of_blocks(a: np.ndarray, b: np.ndarray) -> complex:
    """sum of conj(b) * a over two (16, r) blade-major blocks, in real arithmetic.

    Each product and difference is its own ufunc call, so no fused multiply-add
    enters (numpy's complex product takes one where the CPU has it): the real
    part is the product of the two float views (real and imaginary parts
    interleaved), the imaginary part b.real * a.imag - b.imag * a.real.  numpy
    sums each blade's row pairwise, then the blades are summed in blade order.
    """
    rows = a.shape[1]
    prod = np.multiply(b.view(float), a.view(float))
    re = _blade_total(prod.sum(axis=1))
    cross, scratch = prod[:, :rows], prod[:, rows:]
    np.multiply(b.real, a.imag, out=cross)
    np.multiply(b.imag, a.real, out=scratch)
    np.subtract(cross, scratch, out=cross)
    return complex(re, _blade_total(cross.sum(axis=1)))


class FormField:
    """Truncated Fourier series of a complex-valued differential form on T^4.

    `coeffs` is the (rows, 16) array of coefficients of the grid rows
    [start, stop), stored blade-major: each blade's coefficients are one
    contiguous run.  A whole field has start 0 and all n rows.
    """

    __slots__ = ("kmax", "coeffs", "start", "stop")

    def __init__(self, kmax: int, coeffs: np.ndarray | None = None, start: int = 0):
        self.kmax = int(kmax)
        check_truncation(self.kmax)
        n = (2 * self.kmax + 1) ** 4
        self.start = int(start)
        if coeffs is None:
            coeffs = np.zeros((N_BLADES, n - self.start), dtype=complex).T
        c = np.asarray(coeffs)
        if c.dtype != complex or c.ndim != 2 or c.strides[0] != c.itemsize:
            c = np.asarray(c, dtype=complex, order="F")
        if c.ndim != 2 or c.shape[1] != N_BLADES or not 0 <= self.start < self.start + len(c) <= n:
            want = (n, N_BLADES) if self.start == 0 else f"(rows in 1..{n - self.start}, {N_BLADES})"
            raise ValueError(f"expected coeffs of shape {want}, got {c.shape}")
        self.coeffs = c
        self.stop = self.start + len(c)

    # -- bookkeeping ----------------------------------------------------
    @property
    def modes(self) -> np.ndarray:
        return grid(self.kmax)[0][self.start:self.stop]

    def mode_index(self, k) -> int:
        """The row of coeffs that holds mode k."""
        k = np.asarray(k, dtype=int).reshape(4)
        if np.abs(k).max() > self.kmax:
            raise KeyError(f"mode {tuple(k)} outside truncation kmax={self.kmax}")
        row = int(_mode_rows(k, self.kmax))
        if not self.start <= row < self.stop:
            raise KeyError(f"mode {tuple(k)} outside rows [{self.start}, {self.stop})")
        return row - self.start

    def set_coeff(self, k, a) -> None:
        self.coeffs[self.mode_index(k)] = a

    def rows(self, start: int, stop: int) -> "FormField":
        """This field over the grid rows [start, stop), which it must cover: a view, no copy."""
        if not self.start <= start < stop <= self.stop:
            raise ValueError(f"rows [{start}, {stop}) outside [{self.start}, {self.stop})")
        return FormField(self.kmax, self.coeffs[start - self.start:stop - self.start], start)

    def blocks(self):
        """Views of this field over each row block (row_blocks) its rows meet, cut to its rows,
        in row order: this field itself when it lies in one block."""
        for start, stop in row_blocks(self.kmax):
            start, stop = max(start, self.start), min(stop, self.stop)
            if (start, stop) == (self.start, self.stop):
                yield self
            elif start < stop:
                yield self.rows(start, stop)

    # -- algebra ---------------------------------------------------------
    def _check(self, other: "FormField") -> None:
        if self.kmax != other.kmax:
            raise ValueError("truncation mismatch")
        if (self.start, self.stop) != (other.start, other.stop):
            raise ValueError("row range mismatch")

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        self._check(other)
        return FormField(self.kmax, self.coeffs + other.coeffs, self.start)

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        self._check(other)
        return FormField(self.kmax, self.coeffs - other.coeffs, self.start)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FormField(self.kmax, self.coeffs * scalar, self.start)

    __rmul__ = __mul__

    # -- geometry ---------------------------------------------------------
    def inner(self, other: "FormField") -> complex:
        """L^2 pairing; Fourier modes and blades are orthonormal.

        The sum of conj(other) * self in real arithmetic, block by block
        (`_inner_of_blocks`); the blocks' sums are added in block order.
        """
        if not isinstance(other, FormField):
            raise TypeError(f"inner product of a FormField with {type(other).__name__}")
        self._check(other)
        return reduce(add, [_inner_of_blocks(a.coeffs.T, b.coeffs.T)
                            for a, b in zip(self.blocks(), other.blocks())])

    def square_sum(self) -> SquareSum:
        """The sum of squares of the real and imaginary parts, block by block, through
        views of the stored array: no copy."""
        return reduce(add, [SquareSum.of_parts(b.coeffs.T.view(float)) for b in self.blocks()])

    def norm(self) -> float:
        """L^2 norm; finite whenever it is representable, even when its square is not."""
        return self.square_sum().root()

    def distance_sum(self, other: "FormField") -> SquareSum:
        """The square sum of self - other, each block's difference written into one
        blade-major block."""
        if not isinstance(other, FormField):
            raise TypeError(f"distance of a FormField to {type(other).__name__}")
        self._check(other)
        sums = []
        for a, b in zip(self.blocks(), other.blocks()):
            diff = np.subtract(a.coeffs.T, b.coeffs.T)
            sums.append(SquareSum.of_parts(diff.view(float)))
        return reduce(add, sums)

    def distance(self, other: "FormField") -> float:
        """||self - other||, equal to (self - other).norm() bit for bit."""
        return self.distance_sum(other).root()

    def degrees(self, tol: float = 0.0):
        present = np.abs(self.coeffs).max(axis=0)
        return sorted({int(DEGREE[m]) for m in range(N_BLADES) if present[m] > tol})

    def realness_defect(self, mirror: "FormField | None" = None) -> float:
        """max over this field's rows of |omega_k - conj(omega_{-k})|, formed blade-major
        in one conj array, with omega_{-k} read from mirror: the field over the mirrored
        rows [n - stop, n - start), by default this field, which must then be whole or
        a middle block."""
        mirror = self if mirror is None else mirror
        n = (2 * self.kmax + 1) ** 4
        if mirror.kmax != self.kmax or (mirror.start, mirror.stop) != (n - self.stop, n - self.start):
            raise ValueError(f"the mirror of rows [{self.start}, {self.stop}) covers "
                             f"[{n - self.stop}, {n - self.start})")
        c = self.coeffs.T
        diff = np.conj(mirror.coeffs.T[:, ::-1])
        np.subtract(c, diff, out=diff)
        return float(np.abs(diff).max())

    # -- serialization -----------------------------------------------------
    def _json_chunks(self, indent: int):
        """This field's form document, as dump_json writes it on a line indented by
        `indent`, in chunks of _ENTRY_CHUNK entries; the coefficients must be finite.

        An entry's text is looked up in small tables of fixed pieces, one per
        blade mask and one per value of each k component, with the float text
        repr(float) in between, as the json module writes it.  Each chunk is one
        join over C iterators; every entry ends in "}," and the last one's comma
        is cut.
        """
        nl = ["\n" + " " * (indent + i) for i in range(5)]
        head = np.array([f'{nl[2]}{{{nl[3]}"blade_mask": {m},{nl[3]}"im": '
                         for m in range(N_BLADES)], dtype=object)

        def k_table(lead, tail=""):
            """The text of one k component of each value v, after its lead: row v + kmax."""
            return np.array([f"{lead}{v}{tail}" for v in range(-self.kmax, self.kmax + 1)],
                            dtype=object)

        k0 = k_table(f',{nl[3]}"k": [{nl[4]}')
        k12 = k_table(f",{nl[4]}")  # components 1 and 2 share their lead
        k3 = k_table(f",{nl[4]}", f'{nl[3]}],{nl[3]}"re": ')
        close = repeat(f"{nl[2]}}},")
        yield f'{{{nl[1]}"entries": ['
        rows, masks = np.nonzero(self.coeffs)
        for start in range(0, len(rows), _ENTRY_CHUNK):
            r, m = rows[start:start + _ENTRY_CHUNK], masks[start:start + _ENTRY_CHUNK]
            z = self.coeffs[r, m]
            im, re = z.imag.tolist(), z.real.tolist()
            k = (self.modes[r] + self.kmax).T
            text = "".join(chain.from_iterable(zip(
                head[m], map(repr, im), k0[k[0]], k12[k[1]], k12[k[2]], k3[k[3]], map(repr, re), close)))
            yield text if start + _ENTRY_CHUNK < len(rows) else text[:-1]
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
        return load_json(path, cls.from_dict)

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
) -> FormField:
    """Seeded random field: iid complex Gaussian per (mode, blade).

    degree restricts to homogeneous blades; real symmetrizes modes so that
    omega_{-k} = conj(omega_k).
    """
    check_truncation(kmax)
    n = (2 * kmax + 1) ** 4
    # drawn through one row-major buffer into blade-major storage; numpy divides a
    # complex array by a real scalar as a product with its reciprocal, so this has
    # the bits of (N1 + 1j N2) / np.sqrt(2)
    c = np.empty((N_BLADES, n), dtype=complex).T
    draw = rng.standard_normal((n, N_BLADES))
    c.real = draw
    c.imag = rng.standard_normal(out=draw)
    c *= 1 / np.sqrt(2)
    if degree is not None:
        c[:, DEGREE != degree] = 0.0
    if real:
        c += np.conj(c)[::-1]
        c /= 2
    return FormField(kmax, c)
