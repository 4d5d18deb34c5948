"""FormField storage, realness, random generation, JSON round trips."""

import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qhodge import cli
from qhodge.exterior import DEGREE, GRADING, N_BLADES, VOL
from qhodge.fields import (
    _ENTRY_CHUNK,
    FIELD_BYTE_BUDGET,
    FormField,
    check_truncation,
    dump_json,
    grid,
    load_json,
    mode_symbols,
    random_field,
    row_blocks,
    single_mode,
)

from qhodge import operators
from qhodge.quaternionic import INVARIANT_PROJECTOR
from qhodge.transgression import quartic_differential, transgress1, transgress2, transgress4

from oracles import form_document_oracle, stock_json

ONE = np.eye(N_BLADES)[0]


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestGrid:
    def test_mode_count(self):
        # k = 0 is the middle row, which FormField code reads as the harmonic mode, and the
        # only zero of Delta's symbol; grid is the one read-only (n, 4) integer mode array
        for kmax in range(9):
            modes = grid(kmax)
            n = (2 * kmax + 1) ** 4
            assert isinstance(modes, np.ndarray) and modes.shape == (n, 4)
            assert modes.dtype.kind == "i" and not modes.flags.writeable
            assert np.flatnonzero(mode_symbols(kmax)[0] == 0).tolist() == [n // 2]
            assert not modes[n // 2].any()

    def test_negation_permutation(self):
        # the row of -k is n - 1 - row(k): reversing the rows negates every mode
        for kmax in range(9):
            modes = grid(kmax)
            assert np.array_equal(modes[::-1], -modes)

    def test_mode_index_roundtrip(self):
        f = FormField(2)
        for k in [(0, 0, 0, 0), (2, -2, 1, 0), (-1, -1, -1, -1)]:
            idx = f.mode_index(k)
            assert tuple(f.modes[idx]) == k

    def test_out_of_truncation(self):
        f = FormField(1)
        with pytest.raises(KeyError):
            f.mode_index((2, 0, 0, 0))

    @pytest.mark.parametrize("kmax", [-1, -2])
    def test_negative_truncation_is_refused_where_a_field_is_made(self, kmax):
        for make in (check_truncation, FormField, lambda k: random_field(k, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="truncation must be >= 0"):
                make(kmax)


class TestModeSymbols:
    @pytest.mark.parametrize("kmax", [0, 1, 2, 4, 6])
    def test_bits_of_the_expressions_they_replace(self, kmax):
        # Delta's and G's symbols, and nothing else, read off the unit rows' axis weights
        # (fields._axis_weight) with the bits of 4 pi^2 |k|^2 over the integer modes
        modes = grid(kmax)
        ksq = np.einsum("na,na->n", modes, modes).astype(float)
        inv = np.zeros_like(ksq)
        inv[ksq > 0] = 1.0 / (4 * np.pi**2 * ksq[ksq > 0])
        want = (4 * np.pi**2 * ksq, inv)
        assert len(mode_symbols(kmax)) == len(want)
        assert all(same_bits(a, b) for a, b in zip(mode_symbols(kmax), want))
        assert not any(a.flags.writeable for a in mode_symbols(kmax))

    def test_cached_and_read_only(self):
        symbols = mode_symbols(2)
        assert mode_symbols(2) is symbols
        for arr in symbols:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


class TestAlgebra:
    def test_add_and_scale(self):
        rng = np.random.default_rng(0)
        a = random_field(1, rng)
        b = random_field(1, rng)
        s = a + 2.0 * b - b
        assert np.allclose(s.coeffs, a.coeffs + b.coeffs)

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError):
            FormField(1) + FormField(2)

    @pytest.mark.parametrize("op", [
        lambda f: f + 1,
        lambda f: 1 + f,
        lambda f: f - 1.0,
        lambda f: 1.0 - f,
        lambda f: f + f.coeffs.tolist(),
        lambda f: f * f,
        lambda f: f * "2",
        lambda f: f.inner(1),
        lambda f: f.inner(f.coeffs),
    ], ids=["add", "radd", "sub", "rsub", "add-list", "mul-field", "mul-str", "inner-int",
            "inner-array"])
    def test_arithmetic_with_a_non_field_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(random_field(0, np.random.default_rng(3)))

    def test_scalars_of_every_number_type_scale(self):
        f = random_field(1, np.random.default_rng(3))
        for s in (2, 2.0, 2 + 0j, np.int64(2), np.float64(2.0), np.complex128(2.0)):
            assert np.array_equal((f * s).coeffs, 2 * f.coeffs)
            assert np.array_equal((s * f).coeffs, 2 * f.coeffs)

    def test_inner_is_mode_orthonormal(self):
        f = single_mode(2, (1, 0, 0, 0), ONE)
        g = single_mode(2, (0, 1, 0, 0), ONE)
        assert f.inner(f) == pytest.approx(1.0)
        assert f.inner(g) == 0.0

    def test_norm_keeps_the_bits_of_a_normal_range_field(self):
        # no rescale in the normal range: the plain root of the sum of squares, each block's
        # blade dots summed in blade order, the blocks' sums added in block order
        for kmax in range(5):
            f = random_field(kmax, np.random.default_rng(1))
            total = None
            for start, stop in row_blocks(kmax):
                block = 0.0
                for blade in np.ascontiguousarray(f.coeffs.T[:, start:stop]).view(float):
                    block += float(np.einsum("i,i->", blade, blade))
                total = block if total is None else total + block
            assert f.norm() == math.sqrt(total)

    def test_inner_sums_in_blade_major_order(self):
        # in real arithmetic, block by block: each blade's real part the sum of the products of
        # the two float views, its imaginary part that of re(b) im(a) - im(b) re(a); the blades
        # summed in order, then the blocks
        rng = np.random.default_rng(12)
        for kmax in range(1, 5):
            f, g = random_field(kmax, rng), random_field(kmax, rng)
            want = None
            for start, stop in row_blocks(kmax):
                re = im = 0.0
                for a, b in zip(f.coeffs.T[:, start:stop], g.coeffs.T[:, start:stop]):
                    re += float(np.sum(b.view(float) * a.view(float)))
                    im += float(np.sum(b.real * a.imag - b.imag * a.real))
                want = complex(re, im) if want is None else want + complex(re, im)
            assert f.inner(g) == want

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_distance_is_the_norm_of_the_difference(self, kmax, scale):
        # near 1e200 the squares overflow and near 1e-200 they underflow, so both
        # sides take the rescaled sum
        rng = np.random.default_rng(30 + kmax)
        a, b = random_field(kmax, rng) * scale, random_field(kmax, rng) * scale
        assert a.distance(b) == (a - b).norm()
        assert a.distance(a) == 0.0
        assert FormField(kmax).distance(b) == b.norm()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_distance_keeps_inf_and_nan(self):
        a, b = random_field(1, np.random.default_rng(33)), FormField(1)
        b.coeffs[4, 2] = np.inf
        assert a.distance(b) == np.inf
        b.coeffs[7, 9] = np.nan
        assert np.isnan(a.distance(b)) and np.isnan(b.distance(a))

    def test_distance_checks_its_operand(self):
        f = random_field(1, np.random.default_rng(34))
        with pytest.raises(TypeError):
            f.distance(f.coeffs)
        with pytest.raises(ValueError):
            f.distance(FormField(2))

    def test_in_place_arithmetic_makes_a_new_field(self):
        # -=, += and *= bind a new field: never a write into an array the caller
        # handed to FormField
        other = random_field(1, np.random.default_rng(35))
        array = np.zeros((N_BLADES, 81), dtype=complex).T
        f = first = FormField(1, array)
        f += other
        f -= other
        f *= 2.0
        assert f is not first and first.coeffs is array and not array.any()
        with pytest.raises(TypeError):
            first += 1
        with pytest.raises(TypeError):
            first -= other.coeffs
        with pytest.raises(ValueError):
            first -= FormField(2)
        assert first.coeffs is array and not array.any()

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
    def test_norm_beyond_the_range_of_its_square(self, scale):
        # the plain sum of squares overflows to inf or underflows to 0
        f = random_field(1, np.random.default_rng(2))
        assert f.norm() * scale == pytest.approx((f * scale).norm(), rel=1e-15)

    def test_norm_of_one_subnormal(self):
        f = single_mode(0, (0, 0, 0, 0), 5e-324j * ONE)
        assert f.norm() == 5e-324

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_norm_keeps_inf_and_nan(self):
        f = single_mode(1, (1, 0, 0, 0), ONE)
        f.coeffs[0, 3] = np.inf
        assert f.norm() == np.inf
        f.coeffs[5, 5] = np.nan
        assert np.isnan(f.norm())
        # a norm whose true value lies beyond the float range is inf
        assert (single_mode(0, (0, 0, 0, 0), 1.5e308 * (1 + 1j) * ONE)).norm() == np.inf


class TestRealness:
    def test_real_random_field(self):
        rng = np.random.default_rng(2)
        f = random_field(2, rng, real=True)
        assert f.realness_defect() <= 1e-12

    def test_real_single_mode(self):
        # a e^{2 pi i k.xi} + conj(a) e^{-2 pi i k.xi} is real
        a = (0.5 + 0.25j) * ONE
        f = single_mode(2, (1, 0, 0, 0), a) + single_mode(2, (-1, 0, 0, 0), a.conj())
        assert f.realness_defect() == 0.0
        assert f.coeffs[f.mode_index((1, 0, 0, 0)), 0] == 0.5 + 0.25j
        assert f.coeffs[f.mode_index((-1, 0, 0, 0)), 0] == 0.5 - 0.25j
        assert single_mode(2, (1, 0, 0, 0), a).realness_defect() == abs(0.5 + 0.25j)

    def test_generic_field_not_real(self):
        rng = np.random.default_rng(4)
        assert random_field(1, rng).realness_defect() > 1e-12

    def test_defect_is_the_max_of_the_literal_difference(self):
        # a max does not depend on the order it reads the entries in
        rng = np.random.default_rng(5)
        for kmax in range(4):
            for f in (random_field(kmax, rng), random_field(kmax, rng, real=True)):
                assert f.realness_defect() == float(np.abs(f.coeffs - np.conj(f.coeffs)[::-1]).max())


class TestReductionAllocations:
    """The whole-field reductions read the stored blade-major array in place.

    tracemalloc sees numpy's data allocations: the traced peak of one call,
    in dense kmax-4 field-sizes, counts the field-sized temporaries it makes.
    """

    KMAX = 4
    FIELD_BYTES = (2 * KMAX + 1) ** 4 * N_BLADES * 16

    def peak_fields(self, reduce) -> float:
        reduce()  # caches and numpy's own first-call state, outside the measure
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            reduce()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        return (peak - before) / self.FIELD_BYTES

    @pytest.mark.parametrize("name, limit", [
        ("norm", 0.05), ("distance", 1.05), ("inner", 1.05), ("realness_defect", 1.55)])
    def test_temporaries(self, name, limit):
        rng = np.random.default_rng(6)
        f, g = random_field(self.KMAX, rng), random_field(self.KMAX, rng)
        reduce = {"norm": f.norm, "distance": lambda: f.distance(g), "inner": lambda: f.inner(g),
                  "realness_defect": f.realness_defect}[name]
        assert self.peak_fields(reduce) <= limit


class TestRandom:
    def test_seeded_reproducibility(self):
        a = random_field(1, np.random.default_rng(42))
        b = random_field(1, np.random.default_rng(42))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_degree_restriction(self):
        rng = np.random.default_rng(5)
        f = random_field(1, rng, degree=2)
        assert f.degrees() == [2]

    @pytest.mark.parametrize("options", [{}, {"degree": 2}, {"real": True}, {"degree": 2, "real": True}],
                             ids=["default", "degree", "real", "all"])
    @pytest.mark.parametrize("kmax", [1, 2, 4])
    def test_equals_the_literal_draw(self, kmax, options):
        # the literal formula: a row-major complex draw, divided by sqrt 2
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = (2 * kmax + 1) ** 4
            c = (rng.standard_normal((n, N_BLADES)) + 1j * rng.standard_normal((n, N_BLADES))) / np.sqrt(2)
            if "degree" in options:
                c[:, DEGREE != options["degree"]] = 0.0
            if options.get("real"):
                c = (c + np.conj(c)[::-1]) / 2
            assert same_bits(random_field(kmax, np.random.default_rng(seed), **options).coeffs, c)

    def test_invariant_restriction(self):
        from qhodge.quaternionic import invariance_defect

        rng = np.random.default_rng(6)
        f = operators.apply_fiber(random_field(1, rng), INVARIANT_PROJECTOR)
        assert f.norm() > 1.0
        assert invariance_defect(f.coeffs) <= 1e-12 * f.norm()


def transgression_potentials(kmax: int, rng):
    """The potentials of transgress1, transgress2 (structure J) and transgress4."""
    closed1 = operators.exterior_d(random_field(kmax, rng, real=True))
    closed2 = operators.exterior_d(operators.twisted_d(random_field(kmax, rng, real=True), "J"))
    closed4 = quartic_differential(random_field(kmax, rng, degree=0, real=True))
    return [transgress1(closed1).potential, transgress2(closed2, "J").potential,
            transgress4(closed4).potential]


class TestBladeMajorLayout:
    """Every field the package makes stores its coefficients blade-major.

    The row kernel reads each blade of coeffs.T as one contiguous run; a
    row-major field would still give the same values, but through strided reads.
    """

    @staticmethod
    def assert_blade_major(f: FormField):
        assert f.coeffs.shape == ((2 * f.kmax + 1) ** 4, N_BLADES)
        assert f.coeffs.T.flags.c_contiguous

    def test_constructors(self):
        rng = np.random.default_rng(13)
        fields = [FormField(0), FormField(2), single_mode(1, (1, 0, 0, 0), ONE),
                  FormField(1, np.zeros((81, N_BLADES))), FormField(1, np.zeros((N_BLADES, 81)).T),
                  random_field(2, rng), random_field(2, rng, degree=2),
                  random_field(2, rng, real=True), random_field(2, rng, degree=2, real=True)]
        f = random_field(2, rng)
        fields += [FormField.from_dict(written(f)), FormField.from_dict(written(FormField(1)))]
        for g in fields:
            self.assert_blade_major(g)

    def test_a_blade_major_array_is_kept(self):
        array = np.zeros((N_BLADES, 81), dtype=complex).T
        assert FormField(1, array).coeffs is array

    def test_arithmetic(self):
        rng = np.random.default_rng(14)
        f, g = random_field(2, rng), random_field(2, rng)
        for h in (f + g, f - g, 2.0 * f, f * 1j, np.float64(-1.0) * f):
            self.assert_blade_major(h)

    def test_every_public_operator(self):
        rng = np.random.default_rng(15)
        f = random_field(2, rng)
        x = rng.standard_normal(4)
        results = [
            operators.apply_fiber(f, GRADING),
            operators.exterior_d(f), operators.d_star(f),
            operators.twisted_d(f, "I"), operators.twisted_d_star(f, "K"),
            operators.quaternionic_d(f, x), operators.quaternionic_d_star(f, x),
            operators.grading(f), operators.xhat(f, x),
            operators.laplacian(f), operators.laplacian_hodge(f),
            operators.green(f), operators.harmonic_project(f),
            quartic_differential(f),
        ]
        for h in results:
            self.assert_blade_major(h)

    def test_transgression_potentials(self):
        for potential in transgression_potentials(1, np.random.default_rng(16)):
            self.assert_blade_major(potential)


def written(f: FormField) -> dict:
    """The form document as the CLI writes it."""
    return json.loads("".join(dump_json(f)))


class TestSerialization:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(7)
        f = random_field(1, rng)
        back = FormField.from_dict(written(f))
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.kmax == f.kmax

    def test_schema_fields(self):
        f = single_mode(1, (1, 0, -1, 0), (2.5 - 1.5j) * np.eye(N_BLADES)[0b0101])
        assert written(f) == form_document_oracle(f) == {
            "truncation": 1,
            "entries": [{"k": [1, 0, -1, 0], "blade_mask": 5, "re": 2.5, "im": -1.5}],
        }

    def test_missing_modes_are_zero(self):
        doc = {"truncation": 1, "entries": []}
        f = FormField.from_dict(doc)
        assert f.norm() == 0.0

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        f = random_field(1, rng, degree=3)
        path = tmp_path / "field.json"
        f.save(path)
        assert np.array_equal(FormField.load(path).coeffs, f.coeffs)

    def test_vol_entry(self):
        f = single_mode(1, (0, 0, 0, 0), VOL)
        (entry,) = written(f)["entries"]
        assert entry["blade_mask"] == 15

    def test_save_rejects_non_finite_before_opening(self, tmp_path):
        # a NaN token is not JSON, and load would reject the file
        f = single_mode(1, (1, 0, 0, 0), ONE)
        f.coeffs[3, 2] = np.nan
        path = tmp_path / "field.json"
        with pytest.raises(ValueError):
            f.save(path)
        assert not path.exists()

    def test_save_writes_the_cli_bytes(self, tmp_path):
        f = random_field(1, np.random.default_rng(9), degree=2)
        saved, emitted = tmp_path / "saved.json", tmp_path / "emitted.json"
        f.save(saved)
        cli._emit(form_document_oracle(f), str(emitted))
        assert saved.read_bytes() == emitted.read_bytes()

    def test_saved_and_printed_bytes_are_the_stock_encoding(self, tmp_path, capsys):
        f = random_field(1, np.random.default_rng(9), degree=2)
        text = stock_json(form_document_oracle(f))
        f.save(tmp_path / "saved.json")
        cli._emit(f, str(tmp_path / "emitted.json"))
        cli._emit({"field": f}, None)
        assert (tmp_path / "saved.json").read_bytes() == text.encode()
        assert (tmp_path / "emitted.json").read_bytes() == text.encode()
        assert capsys.readouterr().out == stock_json({"field": form_document_oracle(f)})

    @staticmethod
    def special_field():
        """-0.0 beside a nonzero part, subnormals, ±1e300 and integer-valued floats."""
        f = FormField(1)
        f.coeffs[3, 2] = complex(-0.0, 1.0)
        f.coeffs[3, 7] = complex(5e-324, -0.0)
        f.coeffs[40, 15] = complex(1e300, -1e300)
        f.coeffs[80, 0] = complex(2.0, -3.0)
        return f

    @pytest.mark.parametrize("make", [
        lambda: FormField(0),
        lambda: FormField(2),
        lambda: single_mode(0, (0, 0, 0, 0), VOL),
        lambda: TestSerialization.special_field(),
        lambda: random_field(2, np.random.default_rng(10)),
    ], ids=["empty-kmax-0", "empty-kmax-2", "kmax-0", "special-values", "dense-kmax-2"])
    def test_dump_json_is_the_stock_encoding_of_the_loop_document(self, make):
        f = make()
        text = "".join(dump_json(f))
        assert text == stock_json(form_document_oracle(f))
        assert np.array_equal(FormField.from_dict(json.loads(text)).coeffs, f.coeffs)

    @staticmethod
    def first_entries(count: int, kmax: int = 2) -> FormField:
        """A field whose first `count` (mode, blade) slots in row-major order are nonzero."""
        f = FormField(kmax)
        z = np.random.default_rng(count).standard_normal((2, count))
        f.coeffs[np.divmod(np.arange(count), N_BLADES)] = z[0] + 1j * z[1]
        return f

    @pytest.mark.parametrize("count", [_ENTRY_CHUNK, _ENTRY_CHUNK + 1], ids=["full", "full+1"])
    def test_a_chunk_edge_is_the_stock_encoding(self, count):
        f = self.first_entries(count)
        chunks = list(dump_json(f))
        assert "".join(chunks) == stock_json(form_document_oracle(f))
        assert sum('"blade_mask"' in c for c in chunks) == -(-count // _ENTRY_CHUNK)

    def test_float_text_across_a_chunk_edge(self):
        # each value as a real and as an imaginary part, on both sides of the edge
        special = [-0.0, 5e-324, 1e16, 1e-5, 9.999999999999999e15]
        f = self.first_entries(_ENTRY_CHUNK + 8)
        rows, masks = np.divmod(np.arange(_ENTRY_CHUNK - 5, _ENTRY_CHUNK + 5), N_BLADES)
        f.coeffs[rows, masks] = ([complex(v, 1.5) for v in special]
                                 + [complex(-2.5, v) for v in special])
        text = "".join(dump_json(f))
        assert text == stock_json(form_document_oracle(f))
        for v in special:
            assert f": {v!r}," in text or f": {v!r}\n" in text

    def test_extreme_k_components_on_every_axis(self):
        # every k with components in {-4, 0, 4}: the first, middle and last row of each k table
        f = FormField(4)
        rng = np.random.default_rng(12)
        for k in itertools.product((-4, 0, 4), repeat=4):
            f.set_coeff(k, rng.standard_normal(N_BLADES) + 1j * rng.standard_normal(N_BLADES))
        assert "".join(dump_json({"f": f, "g": [f]})) == stock_json(
            {"f": form_document_oracle(f), "g": [form_document_oracle(f)]})

    def test_empty_field_writes_an_empty_entry_list(self):
        assert "".join(dump_json(FormField(0))) == '{\n "entries": [],\n "truncation": 0\n}\n'

    def test_dense_field_is_written_in_chunks(self):
        # a few thousand entries a chunk: a dense field is never one string
        f = random_field(2, np.random.default_rng(11))
        chunks = list(dump_json({"potential": f}))
        assert len(chunks) > 5
        assert max(map(len, chunks)) < len("".join(chunks)) / 2

    def test_non_finite_field_anywhere_raises_before_the_first_chunk(self):
        f = self.special_field()
        f.coeffs[0, 0] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="NaN or infinite"):
            dump_json({"a": [1.0, {"b": f}]})

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), np.float32(0.5)],
                             ids=["int64", "bool_", "float32"])
    def test_dump_json_coerces_nothing(self, value):
        # the json module's own TypeError: a numpy scalar is never coerced to a float
        with pytest.raises(TypeError) as stock:
            json.dumps(value)
        with pytest.raises(TypeError) as ours:
            dump_json({"a": [1.0, value], "field": FormField(0)})
        assert str(ours.value) == str(stock.value)


class TestDecoder:
    """load_json pauses the cyclic GC and restores the caller's state on every exit."""

    def test_decode_and_parse_run_with_the_gc_paused(self, tmp_path, gc_state):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5]}')
        assert load_json(path, lambda doc: (doc, gc.isenabled())) == ({"a": [1, 2.5]}, False)
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("text, error", [
        (None, FileNotFoundError),
        (b"\xff", UnicodeDecodeError),
        (b"{", json.JSONDecodeError),
        (b"[" * 100000 + b"]" * 100000, RecursionError),
        (b'{"truncation": -1, "entries": []}', ValueError),
    ], ids=["missing", "not-utf-8", "bad-json", "deeply-nested", "from-dict"])
    def test_form_file_errors_restore_the_gc_state(self, tmp_path, gc_state, text, error):
        path = tmp_path / "t.json"
        if text is not None:
            path.write_bytes(text)
        with pytest.raises(error):
            FormField.load(path)
        assert gc.isenabled() is gc_state

    def test_load_restores_the_gc_state(self, tmp_path, gc_state):
        f = random_field(1, np.random.default_rng(13))
        f.save(tmp_path / "f.json")
        assert same_bits(FormField.load(tmp_path / "f.json").coeffs, f.coeffs)
        assert gc.isenabled() is gc_state


class TestMemoryBudget:
    def test_budget_admits_truncation_12_only(self):
        assert (2 * 12 + 1) ** 4 * 256 <= FIELD_BYTE_BUDGET < (2 * 13 + 1) ** 4 * 256
        check_truncation(12)
        with pytest.raises(ValueError, match="budget"):
            check_truncation(13)

    def test_from_dict_checks_before_allocating(self):
        # np.zeros leaves an untouched field unmapped, so truncation 12 is cheap here
        assert FormField.from_dict({"truncation": 12, "entries": []}).kmax == 12
        for kmax in (13, 30, 10**6):
            with pytest.raises(ValueError, match="budget"):
                FormField.from_dict({"truncation": kmax, "entries": []})

    def test_random_field_checks_before_allocating(self):
        with pytest.raises(ValueError, match="budget"):
            random_field(13, np.random.default_rng(0))
