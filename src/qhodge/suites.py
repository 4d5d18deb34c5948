"""Named verification suites aggregated by the command-line `verify`.

Each suite returns a flat dict of named residuals (floats, smaller is
better); the runner compares them against the configured tolerance.  All
randomness is drawn from generators seeded per (config seed, suite), so a
fixed config reproduces a byte-identical report.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from . import spin, zeta
from .exterior import DEGREE, N_BLADES, STAR, VOL, VOL_MASK, interior, wedge
from .fields import FormField, check_truncation, dump_json, random_field, single_mode
from .operators import (
    apply_fiber,
    cancellation_defect,
    conjugation_defect,
    d_star,
    exterior_d,
    grading,
    green,
    harmonic_project,
    kodaira_samples,
    laplacian,
    laplacian_hodge,
    quaternionic_d,
    quaternionic_d_star,
    rel_defect,
    twisted_d,
    twisted_d_star,
    xhat,
)
from .quaternionic import (
    AD,
    GROUP,
    I,
    J,
    K,
    STRUCTURE_NAMES,
    _type_eigenvalues,
    invariance_defect,
    kahler_form,
    lefschetz_dual_matrix,
    left_matrix,
    rotor_matrix,
    type_projector_matrix,
)
from .transgression import (
    NotDCClosed,
    NotExact,
    measure_lapl_constant,
    quartic_differential,
    transgress1,
    transgress2,
    transgress4,
)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class RunConfig:
    kmax: int = 4
    tolerance: float = 1e-10
    seed: int = 0
    theta: tuple = (0.0, 0.0, 0.0, 0.0)
    suites: tuple = ()
    out: str | None = None
    field_count: int = 20

    def __post_init__(self):
        for name in ("kmax", "seed", "field_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.tolerance):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")
        check_truncation(self.kmax)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.field_count < 1:
            raise ValueError("field_count must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if len(self.theta) != 4 or not all(_is_number(v) and math.isfinite(v) for v in self.theta):
            raise ValueError(f"theta needs four finite numbers, got {self.theta!r}")
        if isinstance(self.suites, str) or not all(isinstance(v, str) for v in self.suites):
            raise ValueError(f"suites must be a list of names, got {self.suites!r}")
        self.suites = tuple(self.suites)
        unknown = [v for v in self.suites if v not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(SUITES)}")
        if len(set(self.suites)) < len(self.suites):
            raise ValueError(f"suites must not repeat, got {list(self.suites)!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path, got {self.out!r}")
        self.theta = tuple(float(v) for v in zeta.reduce_theta(self.theta))


def _rng(cfg: RunConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, tag])


def _random_fiber(rng) -> np.ndarray:
    return rng.standard_normal(N_BLADES) + 1j * rng.standard_normal(N_BLADES)


# ---------------------------------------------------------------------------

def suite_exterior(cfg: RunConfig) -> dict[str, float]:
    rng = _rng(cfg, 1)
    out: dict[str, float] = {}

    def commutativity() -> float:
        pa, pb = rng.integers(0, 5, size=2)
        a = _random_fiber(rng) * (DEGREE == pa)
        b = _random_fiber(rng) * (DEGREE == pb)
        lhs = wedge(a, b)
        rhs = (-1.0) ** (pa * pb) * wedge(b, a)
        return norm(lhs - rhs) / max(norm(a) * norm(b), 1e-300)

    out["wedge_graded_commutativity"] = float(np.max([commutativity() for _ in range(1000)]))

    def derivation() -> float:
        v = rng.standard_normal(4)
        pa = int(rng.integers(0, 5))
        a = _random_fiber(rng) * (DEGREE == pa)
        b = _random_fiber(rng)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + (-1.0) ** pa * wedge(a, interior(v, b))
        return norm(lhs - rhs) / max(norm(v) * norm(a) * norm(b), 1e-300)

    out["interior_derivation"] = float(np.max([derivation() for _ in range(300)]))

    signs = np.diag((-1.0) ** (DEGREE * (4 - DEGREE)))
    out["star_involution_sign"] = float(np.abs(STAR @ STAR - signs).max())

    blades = np.eye(N_BLADES, dtype=complex)
    gram = np.array([[wedge(ea, STAR @ eb.conj())[VOL_MASK] for eb in blades] for ea in blades])
    out["blade_gram_identity"] = float(np.abs(gram - np.eye(N_BLADES)).max())
    return out


def suite_quaternionic(cfg: RunConfig) -> dict[str, float]:
    rng = _rng(cfg, 2)
    out: dict[str, float] = {}
    eye = np.eye(4)
    out["matrix_relations"] = float(np.max([
        np.abs(I @ I + eye).max(),
        np.abs(J @ J + eye).max(),
        np.abs(K @ K + eye).max(),
        np.abs(I @ J @ K + eye).max(),
    ]))
    out["matrix_orthogonality"] = float(np.max([np.abs(m @ m.T - eye).max() for m in (I, J, K)]))
    out["ad_commutators"] = float(np.max([
        np.abs(AD["I"] @ AD["J"] - AD["J"] @ AD["I"] - 2 * AD["K"]).max(),
        np.abs(AD["J"] @ AD["K"] - AD["K"] @ AD["J"] - 2 * AD["I"]).max(),
        np.abs(AD["K"] @ AD["I"] - AD["I"] @ AD["K"] - 2 * AD["J"]).max(),
    ]))
    out["group_fourth_power"] = float(np.max([
        np.abs(np.linalg.matrix_power(GROUP[n], 4) - np.eye(16)).max() for n in STRUCTURE_NAMES
    ]))

    def multiplicativity(n) -> float:
        a, b = _random_fiber(rng), _random_fiber(rng)
        lhs = GROUP[n] @ wedge(a, b)
        rhs = wedge(GROUP[n] @ a, GROUP[n] @ b)
        return norm(lhs - rhs) / max(norm(a) * norm(b), 1e-300)

    out["group_multiplicativity"] = float(np.max(
        [multiplicativity(n) for n in STRUCTURE_NAMES for _ in range(50)]
    ))

    defects = []
    for k in range(5):
        projs = [type_projector_matrix("I", p, q) for p, q in _type_eigenvalues(k)]
        defects.append(np.abs(sum(projs) - np.diag((DEGREE == k).astype(float))).max())
        defects += [np.abs(proj @ proj - proj).max() for proj in projs]
    out["type_projector_completeness"] = float(np.max(defects))

    omegas = {n: kahler_form(n) for n in STRUCTURE_NAMES}
    basis = np.stack([omegas[n] for n in STRUCTURE_NAMES], axis=1)

    def outside_span(image) -> float:
        coeff, *_ = np.linalg.lstsq(basis, image, rcond=None)
        return norm(basis @ coeff - image)

    out["kahler_triple_ad_invariant_span"] = float(np.max([
        outside_span(AD[n] @ omegas[m]) for n in STRUCTURE_NAMES for m in STRUCTURE_NAMES
    ]))
    out["kahler_selfdual_norm"] = float(np.max([
        norm(wedge(omegas[n], omegas[n]) - 2.0 * VOL) for n in STRUCTURE_NAMES
    ]))
    out["lefschetz_dual_omega"] = float(norm(
        lefschetz_dual_matrix("I") @ omegas["I"] - 2.0 * np.eye(N_BLADES)[0]
    ))
    out["vol_invariance"] = invariance_defect(VOL)

    def rotor_defect() -> float:
        u = rng.standard_normal(4)
        rot = rotor_matrix(u / norm(u))
        return np.max([np.abs(rot @ VOL - VOL).max(), np.abs(rot @ rot.T - np.eye(16)).max()])

    out["rotor_preserves_vol"] = float(np.max([rotor_defect() for _ in range(10)]))
    return out


def _worst(samples) -> dict[str, float]:
    """Per-check maximum over residual dicts with the same keys; a NaN stays NaN."""
    rows = list(samples)
    return {name: float(np.max([r[name] for r in rows])) for name in rows[0]}


def _operator_samples(cfg: RunConfig, rng: np.random.Generator):
    """One dict of residuals per random sample (f, g, x, y, u, real fr).

    A loop, not a function per sample: each sample's fields stay bound until
    the next sample rebinds them, so the allocator reuses their memory
    instead of returning it to the OS and faulting it back in.
    """
    for _ in range(cfg.field_count):
        f = random_field(cfg.kmax, rng)
        g = random_field(cfg.kmax, rng)
        x = rng.standard_normal(4)  # quaternions are (4,) arrays
        y = rng.standard_normal(4)
        u = rng.standard_normal(4)
        u = u / norm(u)
        fr = random_field(cfg.kmax, rng, real=True)

        df = exterior_d(f)
        dIf = twisted_d(f, "I")
        dxf = quaternionic_d(f, x)
        dyf = quaternionic_d(f, y)
        lapf = laplacian(f)
        # d_C is also the commutator [ad_C, d]
        ad_form = apply_fiber(df, AD["I"]) - exterior_d(apply_fiber(f, AD["I"]))
        d_dI, dI_d = exterior_d(dIf), twisted_d(df, "I")
        dxdy, dydx = quaternionic_d(dyf, x), quaternionic_d(dxf, y)
        dx_dystar = quaternionic_d(quaternionic_d_star(f, y), x)
        dystar_dx = quaternionic_d_star(dxf, y)
        re_xbar_y_lap = (x @ y) * lapf
        scale = max(f.norm() * g.norm(), 1e-300) * 2 * np.pi * cfg.kmax
        yield {
            "d_squared": exterior_d(df).norm() / max(df.norm(), 1e-300),
            "twisted_realizations_agree": rel_defect(dIf, ad_form),
            "d_dI_anticommute": cancellation_defect(d_dI + dI_d, d_dI, dI_d),
            "relation_i_xhat_dy": rel_defect(
                xhat(dyf, x) - quaternionic_d(xhat(f, x), y),
                quaternionic_d(f, left_matrix(x) @ y),
            ),
            "relation_ii_dx_dy": cancellation_defect(dxdy + dydx, dxdy, dydx),
            "relation_iii_dx_dy_star": (dx_dystar + dystar_dx - re_xbar_y_lap).norm()
            / max(dx_dystar.norm() + dystar_dx.norm(), re_xbar_y_lap.norm(), 1e-300),
            "adjointness_d": abs(df.inner(g) - f.inner(d_star(g))) / scale,
            "adjointness_dI": abs(dIf.inner(g) - f.inner(twisted_d_star(g, "I"))) / scale,
            "adjointness_dx": abs(dxf.inner(g) - f.inner(quaternionic_d_star(g, x)))
            / (scale * norm(x)),
            "laplacian_vs_hodge": rel_defect(lapf, laplacian_hodge(f)),
            "hodge_decomposition": rel_defect(harmonic_project(f) + laplacian(green(f)), f),
            "grading_commutator": rel_defect(grading(df) - exterior_d(grading(f)), df),
            "conjugation_law": conjugation_defect(f, u, x),
            "realness_preserved": float(np.max([
                op(fr).realness_defect()
                for op in (exterior_d, d_star, laplacian, green, harmonic_project)
            ])) / max(fr.norm(), 1e-300),
            "laplacian_commutes_dC": rel_defect(laplacian(twisted_d(f, "J")), twisted_d(lapf, "J")),
        }


def suite_operators(cfg: RunConfig) -> dict[str, float]:
    rng = _rng(cfg, 3)
    out = _worst(_operator_samples(cfg, rng))
    # the text the CLI writes: a dense kmax-2 field's 10 000 entries span three chunks
    f = random_field(min(cfg.kmax, 2), rng)
    back = FormField.from_dict(json.loads("".join(dump_json(f))))
    out["serialization_roundtrip"] = float(np.abs(f.coeffs - back.coeffs).max())
    return out


def suite_kodaira(cfg: RunConfig) -> dict[str, float]:
    rng = _rng(cfg, 4)
    return _worst(kodaira_samples(random_field(cfg.kmax, rng) for _ in range(cfg.field_count)))


def suite_transgression(cfg: RunConfig) -> dict[str, float]:
    rng = _rng(cfg, 5)
    kmax = min(cfg.kmax, 4)

    def roundtrips():
        for _ in range(5):
            f = random_field(kmax, rng)
            sigma = random_field(kmax, rng, degree=0)
            inv = random_field(kmax, rng, invariant=True)
            # each target stays bound until the next one replaces it, so a solve's
            # temporaries reuse freed memory rather than the heap being trimmed and regrown
            target = exterior_d(f)
            r1 = transgress1(target).residual
            target = exterior_d(twisted_d(f, "I"))
            r2 = transgress2(target, "I").residual
            target = quartic_differential(sigma)
            r4 = transgress4(target).residual
            target = quartic_differential(inv)
            yield {
                "transgress1_roundtrip": r1,
                "transgress2_roundtrip": r2,
                "transgress4_roundtrip": r4,
                "transgress4_invariant_roundtrip": transgress4(target).residual,
            }

    out = _worst(roundtrips())

    rejected = 0
    trials = 5
    for _ in range(trials):
        bad = exterior_d(random_field(kmax, rng, degree=1))
        try:
            transgress4(bad)
        except NotDCClosed:
            rejected += 1
    out["precondition_rejection"] = float(trials - rejected)

    harmonic = single_mode(kmax, (0, 0, 0, 0), VOL)
    try:
        transgress4(harmonic)
        out["exactness_detection"] = 1.0
    except NotExact:
        out["exactness_detection"] = 0.0

    probe_modes = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (2, -1, 0, 1)]
    c, report = measure_lapl_constant(probe_modes)
    out["lapl_constant_spread"] = report["spread"]
    return out


def suite_zeta(cfg: RunConfig) -> dict[str, float]:
    out: dict[str, float] = {}
    for h in (0.5, 2.0, 10.0):
        val, _ = zeta.regularized_integral(lambda t: math.exp(-h * t), {0: 1.0})
        out[f"regint_exp_h{h}"] = abs(val + math.log(h))
    val, _ = zeta.regularized_integral(lambda t: -t * math.exp(-t), {})
    out["regint_total_derivative"] = abs(val + 1.0)
    val, _ = zeta.regularized_integral(
        lambda t: 9 * t * t * math.exp(-3 * t) - 6 * t * math.exp(-3 * t), {}
    )
    out["regint_second_order"] = abs(val + 1.0)
    val, _ = zeta.regularized_integral(lambda t: math.exp(-t) - math.exp(-2 * t), {})
    out["regint_matches_convergent"] = abs(val - math.log(2.0))

    out["poisson_consistency_t0.1"] = abs(
        zeta.heat_trace_direct((0, 0, 0, 0), 0.1) - zeta.heat_trace_dual((0, 0, 0, 0), 0.1)
    )

    res = zeta.log_det_prime(theta=(0, 0, 0, 0))
    out["zeta_method_agreement"] = res.method_gap
    r1 = zeta.log_det_prime(theta=(0, 0, 0, 0), split=0.5)
    r2 = zeta.log_det_prime(theta=(0, 0, 0, 0), split=2.0)
    out["zeta_split_independence"] = abs(r1.log_det_prime - r2.log_det_prime)
    rc = zeta.log_det_prime(theta=(0, 0, 0, 0), scale=2.0)
    out["zeta_scaling_identity"] = abs(
        rc.log_det_prime - (res.log_det_prime - math.log(2.0))
    )

    for label, th in (("untwisted", (0.0, 0.0, 0.0, 0.0)), ("twisted", cfg.theta)):
        rep = zeta.torsion_report(th)
        out[f"torsion_T_{label}"] = rep["identity_residuals"]["abs(T - 1)"]
        out[f"hyper_torsion_{label}"] = rep["identity_residuals"]["rel(T_h - det0^2)"]
        out[f"beta0_identity_{label}"] = rep["identity_residuals"]["abs(beta0 - 3 log T_h)"]
    for t in (0.1, 1.0, 10.0):
        out[f"susy_cancellation_t{t}"] = abs(zeta.alternating_heat_sum((0, 0, 0, 0), t))
    return out


def suite_clifford(cfg: RunConfig) -> dict[str, float]:
    rng = np.random.default_rng(cfg.seed)
    gamma = spin.chirality()
    h = spin.sl2_triple()[0]
    table = spin.sl2_table()
    omega = spin.omega_operator_check()
    dirac = spin.dirac_block_check(cfg.theta, min(cfg.kmax, 3))
    return {
        "clifford_relation": spin.clifford_relation_defect(),
        "chirality_squares_to_one": float(np.abs(gamma @ gamma - np.eye(4)).max()),
        "chirality_supertrace": abs(spin.supertrace(gamma) - 4.0),
        "vacuum_annihilation": spin.vacuum_annihilation_defect(),
        "spin_conjugation_law": float(np.max(
            [spin.conjugation_defect_sample(rng) for _ in range(10)]
        )),
        "sl2_closure": float(np.max([v["residual"] for v in table.values()])),
        "sl2_ef_h": abs(table["[e,f]"]["h"] - 1.0),
        "grading_eigenvalues": float(np.abs(
            np.array(spin.grading_eigenvalues()) - 1j * (2 * spin.S_DEGREES - 2)).max()),
        "h_spectrum": float(np.abs(np.sort(np.diag(h).real) - (spin.S_DEGREES - 1)).max()),
        "omega_is_20_type": omega["omega_is_20_type"],
        "prop_forms_e": omega["e_defect"],
        "prop_forms_f": omega["f_defect"],
        "vacuum_contraction": omega["f_kills_vacuum"],
        "dirac_symbol": dirac["clifford_symbol_defect"],
        "dirac_square": dirac["square_defect_rel"],
        "dirac_even_odd_pairing": dirac["even_odd_pairing_defect"],
        "dirac_graded_trace": dirac["graded_heat_trace_rel"],
    }


SUITES = {
    "exterior": suite_exterior,
    "quaternionic": suite_quaternionic,
    "operators": suite_operators,
    "kodaira": suite_kodaira,
    "transgression": suite_transgression,
    "zeta": suite_zeta,
    "clifford": suite_clifford,
}


@functools.cache
def _openblas_thread_setters() -> tuple:
    """`openblas_set_num_threads_local` of each OpenBLAS this process has loaded.

    The setter takes a thread count and returns the previous one; despite its
    name, scipy-openblas 0.3.31 applies the count to the whole process.  Empty
    when none is found: MKL, an OpenBLAS without the symbol, or no /proc.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return ()
    setters = []
    for lib in libs:
        try:
            setter = ctypes.CDLL(lib).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count after it.

    The suites' BLAS calls are too small for a second thread to shorten them,
    and its worker spins after each one, so two threads double the CPU time.
    """
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def run_suites(cfg: RunConfig) -> dict:
    """Run the selected suites and assemble the verification report.

    The suites run on one BLAS thread (`_one_blas_thread`); the report does
    not depend on the thread count.  Every verdict is read off the checks: a
    suite passes when all its checks do, each max keeps a NaN, and
    first_failure names the first failing suite in run order with its
    alphabetically first failing check.
    """
    selected = cfg.suites or tuple(SUITES)
    report = {
        "schema_version": 1,
        "config": {
            "kmax": cfg.kmax,
            "tolerance": cfg.tolerance,
            "seed": cfg.seed,
            "theta": [v % 1.0 for v in cfg.theta],
            "suites": list(selected),
            "field_count": cfg.field_count,
        },
        "structure_matrices": {"I": I.tolist(), "J": J.tolist(), "K": K.tolist()},
        "suites": {},
    }
    suites = report["suites"]
    with _one_blas_thread():
        for name in selected:
            checks = {k: {"residual": v, "pass": bool(v <= cfg.tolerance)}
                      for k, v in SUITES[name](cfg).items()}
            suites[name] = {
                "checks": checks,
                "max_residual": float(np.max([c["residual"] for c in checks.values()])),
                "pass": all(c["pass"] for c in checks.values()),
            }
    report["max_residual"] = float(np.max([s["max_residual"] for s in suites.values()]))
    report["all_pass"] = all(s["pass"] for s in suites.values())
    failures = [f"{n}:{k}" for n, s in suites.items()
                for k, c in sorted(s["checks"].items()) if not c["pass"]]
    if failures:
        report["first_failure"] = failures[0]
    return report
