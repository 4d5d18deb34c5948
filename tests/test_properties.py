"""Property-based checks of the input boundary, the fiber algebra, the
first-order field operators and the lattice symmetries of the twist theta.

Examples are derandomized and bounded, so every run draws the same cases.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qhodge import spin, suites, zeta
from qhodge.exterior import DEGREE, N_BLADES, interior, one_form, wedge
from qhodge.fields import FormField, dump_json, random_field
from qhodge.operators import (
    d_star,
    exterior_d,
    quaternionic_d,
    quaternionic_d_star,
    twisted_d,
    twisted_d_star,
)

from oracles import form_document_oracle, stock_json

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

# a JSON-like scalar of any type a form document could hold by mistake
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)

# small truncations, and ones far above the per-field memory budget
truncation = st.one_of(st.integers(-2, 3), st.integers(10**3, 10**12), junk)

entry = st.one_of(
    st.fixed_dictionaries({}, optional={
        "k": st.one_of(st.lists(st.integers(-5, 5), max_size=5), junk),
        "blade_mask": st.one_of(st.integers(-20, 20), junk),
        "re": junk,
        "im": junk,
    }),
    junk,
)

document = st.one_of(
    st.fixed_dictionaries({}, optional={
        "truncation": truncation,
        "entries": st.one_of(st.lists(entry, max_size=4), junk),
    }),
    junk,
)


@PROPERTY
@given(document)
def test_from_dict_returns_a_field_or_raises_value_error(doc):
    try:
        f = FormField.from_dict(doc)
    except ValueError:
        return
    assert isinstance(f, FormField)
    assert np.isfinite(f.coeffs).all()


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


# values whose JSON text is easy to get wrong: signed zeros, the smallest
# subnormal and normal, the range ends of `finite`, integer-valued floats
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e300, -1e300, 1.0, -2.0, 1e16, 123456789.0])


@st.composite
def sparse_field(draw, values=finite):
    kmax = draw(st.integers(0, 4))
    f = FormField(kmax)
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(0, f.coeffs.shape[0] - 1))
        mask = draw(st.integers(0, N_BLADES - 1))
        f.coeffs[row, mask] = complex(draw(values), draw(values))
    return f


@PROPERTY
@given(sparse_field())
def test_written_text_round_trip_is_exact(f):
    back = FormField.from_dict(json.loads("".join(dump_json(f))))
    assert back.kmax == f.kmax
    assert np.array_equal(back.coeffs, f.coeffs)


@PROPERTY
@given(sparse_field(st.one_of(special, finite)), st.integers(0, 3))
def test_dump_json_is_the_stock_encoding(f, depth):
    assert "".join(dump_json(f)) == stock_json(form_document_oracle(f))
    # the field embedded `depth` levels down an envelope, between other keys
    doc, old = f, form_document_oracle(f)
    for level in range(depth):
        doc = {"a": level, "field": [doc, -0.0], "z": {"t": 1e-300}}
        old = {"a": level, "field": [old, -0.0], "z": {"t": 1e-300}}
    assert "".join(dump_json(doc)) == stock_json(old)


@st.composite
def blades(draw):
    """A sum of blades with small integer coefficients: every product is exact."""
    c = np.zeros(N_BLADES, dtype=complex)
    for mask in draw(st.lists(st.integers(0, N_BLADES - 1), min_size=1, max_size=4)):
        c[mask] += draw(st.integers(-3, 3))
    return c


def homogeneous(a: np.ndarray, p: int) -> np.ndarray:
    return a * (DEGREE == p)


vectors = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(np.array)
degrees = st.integers(0, 4)


@PROPERTY
@given(blades(), blades(), blades(), degrees, degrees)
def test_wedge_is_associative_and_graded_commutative(a, b, c, p, q):
    assert np.array_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))
    ap, bq = homogeneous(a, p), homogeneous(b, q)
    assert np.array_equal(wedge(ap, bq), (-1) ** (p * q) * wedge(bq, ap))


@PROPERTY
@given(vectors, blades(), blades(), degrees)
def test_interior_is_a_nilpotent_graded_derivation(v, a, b, p):
    ap = homogeneous(a, p)
    lhs = interior(v, wedge(ap, b))
    rhs = wedge(interior(v, ap), b) + wedge(ap, interior(v, b)) * (-1) ** p
    assert np.array_equal(lhs, rhs)
    assert not interior(v, interior(v, a)).any()


@PROPERTY
@given(vectors, blades(), blades())
def test_interior_is_adjoint_to_wedging_with_the_dual_covector(v, a, b):
    # v has integer entries, so the one-form with the same components is its dual
    lhs = np.vdot(b, wedge(one_form(v), a))
    assert lhs == np.vdot(interior(v, b), a)


@st.composite
def kmax1_field(draw):
    """A dense seeded kmax-1 field, or a sparse one with Gaussian-integer entries."""
    if draw(st.booleans()):
        return random_field(1, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    f = FormField(1)
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.integers(0, f.coeffs.shape[0] - 1))
        mask = draw(st.integers(0, N_BLADES - 1))
        f.coeffs[row, mask] += complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return f


unit_vectors = (
    st.lists(st.floats(-1, 1), min_size=3, max_size=3)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: np.array(v) / np.linalg.norm(v))
)
structures = st.one_of(st.sampled_from(["I", "J", "K"]), unit_vectors)
quaternions = st.lists(st.floats(-2, 2), min_size=4, max_size=4).map(np.array)


@PROPERTY
@given(kmax1_field(), kmax1_field(), structures, quaternions)
def test_first_order_operators_are_l2_adjoint(f, g, c, x):
    # <P f, g> = <f, P* g> for d, d_C (|C v| = |v|) and d_x (|x v| = |x||v|)
    scale = 1e-12 * 2 * np.pi * f.norm() * g.norm()
    for op, adj, size in (
        (exterior_d, d_star, 1.0),
        (lambda h: twisted_d(h, c), lambda h: twisted_d_star(h, c), 1.0),
        (lambda h: quaternionic_d(h, x), lambda h: quaternionic_d_star(h, x), np.linalg.norm(x)),
    ):
        assert abs(op(f).inner(g) - f.inner(adj(g))) <= scale * size


# each example runs several torsion reports (~5 ms each), so fewer of them
LATTICE = settings(derandomize=True, max_examples=40, deadline=None)


def _theta(component):
    return st.lists(component, min_size=4, max_size=4).map(np.array)


# dyadic components, so theta + n, -theta and any permutation are exact; integers
# and half-integers are drawn on their own, being where reduce_theta breaks ties
generic_theta = _theta(st.one_of(st.integers(-3 * 2**20, 3 * 2**20).map(lambda j: j / 2**20),
                                 st.integers(-6, 6).map(lambda j: j / 2)))


@st.composite
def near_lattice_theta(draw):
    """n + j 2^-e with |j| <= 1000: within 1e-6 of Z^4 at e = 30, within 1e-8 at e = 37."""
    e = draw(st.sampled_from([30, 34, 37]))
    return draw(_theta(st.builds(lambda n, j: n + j * 2.0**-e,
                                 st.integers(-2, 2), st.integers(-1000, 1000))))


thetas = st.one_of(generic_theta, near_lattice_theta())
shifts = _theta(st.integers(-3, 3).map(float))


def _invariants(theta) -> np.ndarray:
    """Per-degree log det' and beta0 from the torsion report."""
    rep = zeta.torsion_report(theta)
    return np.array([rep["per_q"][q]["log_det_prime"] for q in "012"] + [rep["beta0"]])


@LATTICE
@given(thetas, st.permutations(range(4)), st.integers(0, 3), shifts)
def test_torsion_invariants_respect_the_lattice_symmetries(theta, perm, axis, shift):
    # the spectrum |k + theta|^2 over Z^4 is unchanged by each of these maps
    flip = theta.copy()
    flip[axis] = -flip[axis]
    base = _invariants(theta)
    for image in (-theta, theta[list(perm)], flip, theta + shift):
        assert np.abs(_invariants(image) - base).max() <= 1e-12, image


@LATTICE
@given(thetas, shifts)
def test_dirac_check_sees_theta_only_mod_the_lattice(theta, shift):
    assert spin.dirac_block_check(theta, kmax=2) == spin.dirac_block_check(theta + shift, kmax=2)


# components anywhere, or near an integer on their own; the vector stays off Z^4
far_theta = _theta(st.one_of(
    st.floats(-4, 4),
    st.builds(lambda n, e: n + e, st.integers(-3, 3), st.floats(-1e-6, 1e-6)),
))


@LATTICE
@given(far_theta)
def test_reports_echo_theta_mod_one(theta):
    assume(np.abs(theta - np.round(theta)).max() > 1e-8)
    expected = json.dumps([float(v) for v in theta % 1.0])
    assert json.dumps(zeta.torsion_report(theta)["theta"]) == expected
    with mock.patch.dict(suites.SUITES, {"exterior": lambda cfg: {"noop": 0.0}}):
        report = suites.run_suites(suites.RunConfig(theta=tuple(theta), suites=("exterior",)))
    assert json.dumps(report["config"]["theta"]) == expected
