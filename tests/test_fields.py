"""FormField storage, realness, random generation, JSON round trips."""

import json

import numpy as np
import pytest

from qhodge import cli
from qhodge.exterior import N_BLADES, VOL
from qhodge.fields import (
    FIELD_BYTE_BUDGET,
    FormField,
    check_truncation,
    grid,
    random_field,
    single_mode,
)

ONE = np.eye(N_BLADES)[0]


class TestGrid:
    def test_mode_count(self):
        # k = 0 is the middle row, which FormField code reads as the harmonic mode
        for kmax in range(9):
            modes, ksq = grid(kmax)
            n = (2 * kmax + 1) ** 4
            assert modes.shape == (n, 4)
            assert np.flatnonzero(ksq == 0).tolist() == [n // 2]
            assert not modes[n // 2].any()

    def test_negation_permutation(self):
        # the row of -k is n - 1 - row(k): reversing the rows negates every mode
        for kmax in range(9):
            modes, _ = grid(kmax)
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

    def test_coeff_is_a_copy(self):
        f = single_mode(1, (1, 0, 0, 0), ONE)
        row = f.coeff((1, 0, 0, 0))
        row[0] = 7.0
        assert f.coeff((1, 0, 0, 0))[0] == 1.0


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

    def test_inner_is_mode_orthonormal(self):
        f = single_mode(2, (1, 0, 0, 0), ONE)
        g = single_mode(2, (0, 1, 0, 0), ONE)
        assert f.inner(f) == pytest.approx(1.0)
        assert f.inner(g) == 0.0


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
        assert f.coeff((1, 0, 0, 0))[0] == 0.5 + 0.25j
        assert f.coeff((-1, 0, 0, 0))[0] == 0.5 - 0.25j
        assert single_mode(2, (1, 0, 0, 0), a).realness_defect() == abs(0.5 + 0.25j)

    def test_conjugate_involution(self):
        rng = np.random.default_rng(3)
        f = random_field(1, rng)
        assert np.array_equal(f.conjugate().conjugate().coeffs, f.coeffs)

    def test_generic_field_not_real(self):
        rng = np.random.default_rng(4)
        assert random_field(1, rng).realness_defect() > 1e-12


class TestRandom:
    def test_seeded_reproducibility(self):
        a = random_field(1, np.random.default_rng(42))
        b = random_field(1, np.random.default_rng(42))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_degree_restriction(self):
        rng = np.random.default_rng(5)
        f = random_field(1, rng, degree=2)
        assert f.degrees() == [2]

    def test_invariant_restriction(self):
        from qhodge.quaternionic import invariance_defect

        rng = np.random.default_rng(6)
        f = random_field(1, rng, invariant=True)
        assert f.norm() > 1.0
        assert invariance_defect(f.coeffs) <= 1e-12 * f.norm()


class TestSerialization:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(7)
        f = random_field(1, rng)
        doc = json.loads(json.dumps(f.to_dict()))
        back = FormField.from_dict(doc)
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.kmax == f.kmax

    def test_schema_fields(self):
        f = single_mode(1, (1, 0, -1, 0), (2.5 - 1.5j) * np.eye(N_BLADES)[0b0101])
        doc = f.to_dict()
        assert doc["truncation"] == 1
        assert doc["entries"] == [
            {"k": [1, 0, -1, 0], "blade_mask": 5, "re": 2.5, "im": -1.5}
        ]

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
        (entry,) = f.to_dict()["entries"]
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
        cli._emit(f.to_dict(), str(emitted))
        assert saved.read_bytes() == emitted.read_bytes()


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
