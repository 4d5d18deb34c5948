"""Named verification suites aggregated by the command-line `verify`.

Each suite returns a flat dict of named residuals (floats, smaller is
better); the runner compares them against the configured tolerance.  Each
generator is seeded per (config seed, suite) by `_rng`, except suite_clifford's,
seeded by the config seed alone: a fixed config reproduces a byte-identical report.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from . import spin, zeta
from .exterior import DEGREE, INTERIOR_E, N_BLADES, STAR, VOL, VOL_MASK, WEDGE, wedge
from .fields import (
    FormField,
    Partial,
    check_truncation,
    dump_json,
    finish_blocks,
    random_field,
    single_mode,
)
from .operators import (
    apply_fiber,
    cancellation_parts,
    conjugation_sides,
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
    rel_parts,
    twisted_d,
    twisted_d_star,
    xhat,
)
from .quaternionic import (
    AD,
    GROUP,
    I,
    INVARIANT_PROJECTOR,
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
    InconsistentConstant,
    NotDCClosed,
    NotExact,
    TransgressionError,
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


# ---------------------------------------------------------------------------
# The fiber identities below are multilinear, so their values on the basis blades decide
# them.  Each takes its tables as arguments; on the package's integer tables every sum is
# exact, so the residual is an exact 0 and one flipped sign reads at least 1.

def graded_commutativity_defect(w: np.ndarray) -> float:
    """max over blade pairs (i, j) of |e_i ^ e_j - (-1)^(|i| |j|) e_j ^ e_i|.

    w is a wedge table laid out as WEDGE: w[i, k, j] is the e_k coefficient of e_i ^ e_j.
    """
    sign = (-1.0) ** np.multiply.outer(DEGREE, DEGREE)
    return float(np.abs(w - sign[:, None, :] * w.transpose(2, 1, 0)).max())


def derivation_defect(w: np.ndarray, iota: np.ndarray) -> float:
    """max over (a, i, j) of |i_a(e_i ^ e_j) - i_a e_i ^ e_j - (-1)^|i| e_i ^ i_a e_j|.

    iota is a contraction table laid out as INTERIOR_E: iota[a] is the matrix of i_a.
    """
    lhs = np.einsum("amk,ikj->aijm", iota, w)
    rhs = (np.einsum("api,pmj->aijm", iota, w)
           + (-1.0) ** DEGREE[:, None, None] * np.einsum("imq,aqj->aijm", w, iota))
    return float(np.abs(lhs - rhs).max())


def multiplicativity_defect(w: np.ndarray, groups: np.ndarray) -> float:
    """max over g in groups and blade pairs (i, j) of |g(e_i ^ e_j) - g e_i ^ g e_j|."""
    lhs = np.einsum("gmk,ikj->gijm", groups, w)
    rhs = np.einsum("gpi,pmq,gqj->gijm", groups, w, groups)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------

def suite_exterior(cfg: RunConfig) -> dict[str, float]:
    signs = np.diag((-1.0) ** (DEGREE * (4 - DEGREE)))
    # e_a ^ star(e_b) = <e_a, e_b> vol: the vol row of WEDGE times STAR is the identity
    return {
        "wedge_graded_commutativity": graded_commutativity_defect(WEDGE),
        "interior_derivation": derivation_defect(WEDGE, INTERIOR_E),
        "star_involution_sign": float(np.abs(STAR @ STAR - signs).max()),
        "blade_gram_identity": float(np.abs(WEDGE[:, VOL_MASK, :] @ STAR - np.eye(N_BLADES)).max()),
    }


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
    out["group_multiplicativity"] = multiplicativity_defect(
        WEDGE, np.stack([GROUP[n] for n in STRUCTURE_NAMES]))

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


def _adjointness(kmax: int, size: float = 1.0):
    """Finish of an adjointness check: |<A f, g> - <f, A* g>| over 2 pi kmax ||f|| ||g|| size."""
    def finish(lhs, rhs, f_sum, g_sum):
        scale = max(f_sum.root() * g_sum.root(), 1e-300) * 2 * np.pi * kmax
        return abs(lhs - rhs) / (scale * size)
    return finish


def _operator_samples(cfg: RunConfig, rng: np.random.Generator):
    """One dict of residuals per random sample (f, g, x, y, u, real fr).

    Each sample is drawn whole, so the draws do not depend on the blocks, then
    taken one row block at a time (`FormField.blocks`): every operand is
    computed on the block, each check's partial sums are added up over the
    blocks, and its residual is finished after the last one.  A loop, not a
    function per block: each block's fields stay bound until the next block
    rebinds them, so the allocator reuses their memory instead of returning it
    to the OS and faulting it back in.  realness_preserved is taken after the other
    checks, on whole fields: `fields` alone reads the mirror rows and the k = 0 row.
    """

    def block_parts(f, g, x, y, u):
        adjointness, adjointness_x = _adjointness(cfg.kmax), _adjointness(cfg.kmax, norm(x))
        for fb, gb in zip(f.blocks(), g.blocks()):
            # each check right after its operands: a, b and c are the operands of one check only
            out: dict[str, Partial] = {}
            df = exterior_d(fb)
            out["d_squared"] = Partial(lambda a, b: a.root() / max(b.root(), 1e-300),
                                       exterior_d(df).square_sum(), df.square_sum())
            dIf = twisted_d(fb, "I")
            # d_C is also the commutator [ad_C, d]
            out["twisted_realizations_agree"] = rel_parts(
                dIf, apply_fiber(df, AD["I"]) - exterior_d(apply_fiber(fb, AD["I"])))
            a, b = exterior_d(dIf), twisted_d(df, "I")
            out["d_dI_anticommute"] = cancellation_parts(a + b, a, b)
            dxf, dyf = quaternionic_d(fb, x), quaternionic_d(fb, y)
            out["relation_i_xhat_dy"] = rel_parts(xhat(dyf, x) - quaternionic_d(xhat(fb, x), y),
                                                  quaternionic_d(fb, left_matrix(x) @ y))
            a, b = quaternionic_d(dyf, x), quaternionic_d(dxf, y)
            out["relation_ii_dx_dy"] = cancellation_parts(a + b, a, b)
            lapf = laplacian(fb)
            a, b, c = quaternionic_d(quaternionic_d_star(fb, y), x), quaternionic_d_star(dxf, y), (x @ y) * lapf
            out["relation_iii_dx_dy_star"] = Partial(
                lambda a, b, c, d: a.root() / max(b.root() + c.root(), d.root(), 1e-300),
                (a + b - c).square_sum(), a.square_sum(), b.square_sum(), c.square_sum())
            f_sum, g_sum = fb.square_sum(), gb.square_sum()
            out["adjointness_d"] = Partial(adjointness, df.inner(gb), fb.inner(d_star(gb)), f_sum, g_sum)
            out["adjointness_dI"] = Partial(adjointness, dIf.inner(gb), fb.inner(twisted_d_star(gb, "I")),
                                            f_sum, g_sum)
            out["adjointness_dx"] = Partial(adjointness_x, dxf.inner(gb), fb.inner(quaternionic_d_star(gb, x)),
                                            f_sum, g_sum)
            out["laplacian_vs_hodge"] = rel_parts(lapf, laplacian_hodge(fb))
            out["hodge_decomposition"] = rel_parts(harmonic_project(fb) + laplacian(green(fb)), fb)
            out["grading_commutator"] = rel_parts(grading(df) - exterior_d(grading(fb)), df)
            out["conjugation_law"] = rel_parts(*conjugation_sides(fb, u, x))
            out["laplacian_commutes_dC"] = rel_parts(laplacian(twisted_d(fb, "J")), twisted_d(lapf, "J"))
            yield out

    for _ in range(cfg.field_count):
        f = random_field(cfg.kmax, rng)
        g = random_field(cfg.kmax, rng)
        x = rng.standard_normal(4)  # quaternions are (4,) arrays
        y = rng.standard_normal(4)
        u = rng.standard_normal(4)
        u = u / norm(u)
        fr = random_field(cfg.kmax, rng, real=True)
        out = finish_blocks(block_parts(f, g, x, y, u))
        out["realness_preserved"] = float(np.max([op(fr).realness_defect() for op in (
            exterior_d, d_star, laplacian, green, harmonic_project)])) / max(fr.norm(), 1e-300)
        yield out


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


def _roundtrip(solve, target, *args) -> float:
    """The solve's round-trip residual; inf, a failed check, when it refuses the target."""
    try:
        return solve(target, *args).residual
    except TransgressionError:
        return math.inf


def suite_transgression(cfg: RunConfig) -> dict[str, float]:
    """Round trips of the three solvers, and their refusals of bad targets.

    A refused precondition, or a quartic constant that varies across modes,
    is this suite's failed check (residual inf), not the run's exit 3 or 4:
    a broken operator then fails its checks in every suite.
    """
    rng = _rng(cfg, 5)
    kmax = min(cfg.kmax, 4)

    def roundtrips():
        for _ in range(5):
            # each source is drawn just before its solves and dropped after them, in the
            # draw order f, sigma, the invariant's source; each target stays bound until the
            # next one replaces it, so a solve's temporaries reuse freed memory rather than
            # the heap being trimmed and regrown
            f = random_field(kmax, rng)
            target = exterior_d(f)
            r1 = _roundtrip(transgress1, target)
            target = exterior_d(twisted_d(f, "I"))
            del f
            r2 = _roundtrip(transgress2, target, "I")
            target = quartic_differential(random_field(kmax, rng, degree=0))
            r4 = _roundtrip(transgress4, target)
            target = quartic_differential(apply_fiber(random_field(kmax, rng), INVARIANT_PROJECTOR))
            yield {
                "transgress1_roundtrip": r1,
                "transgress2_roundtrip": r2,
                "transgress4_roundtrip": r4,
                "transgress4_invariant_roundtrip": _roundtrip(transgress4, target),
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
        except TransgressionError:  # refused, but not for the d_C-closedness it lacks
            pass
    out["precondition_rejection"] = float(trials - rejected)

    harmonic = single_mode(kmax, (0, 0, 0, 0), VOL)
    try:
        transgress4(harmonic)
        out["exactness_detection"] = 1.0
    except NotExact:
        out["exactness_detection"] = 0.0

    probe_modes = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (2, -1, 0, 1)]
    try:
        out["lapl_constant_spread"] = measure_lapl_constant(probe_modes)[1]["spread"]
    except InconsistentConstant:
        out["lapl_constant_spread"] = math.inf
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


# the longest suite: with another suite selected and a second usable core, it runs in a
# forked worker while this process runs the rest
WORKER_SUITE = "operators"


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in the worker, chained as its cause."""


def _send_residuals(conn, name: str, cfg: RunConfig) -> None:
    """Worker body: send (True, suite residuals) or (False, (exception, its traceback))."""
    try:
        reply = (True, SUITES[name](cfg))
    except Exception as exc:  # re-raised by the parent, so main maps it to its exit code
        import traceback

        reply = (False, (exc, traceback.format_exc()))
    conn.send(reply)


def _receive(receiver, worker) -> dict:
    """The worker's residuals, or raise what it raised (or a RuntimeError if it died)."""
    try:
        ok, value = receiver.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"the {WORKER_SUITE} suite's worker process died "
                           f"(exit code {worker.exitcode})") from None
    if not ok:
        exc, text = value
        raise exc from _WorkerTraceback(text)
    return value


def _start_worker(cfg: RunConfig) -> tuple:
    """(worker, read end of its pipe) of a forked process running WORKER_SUITE.  An OSError
    from making the pipe or starting the process propagates, with the pipe's ends closed."""
    import multiprocessing  # here, not at module level: the import would add to every command

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    try:
        worker = ctx.Process(target=_send_residuals, args=(sender, WORKER_SUITE, cfg))
        worker.start()
    except OSError:
        receiver.close()
        raise
    finally:
        sender.close()  # the worker holds the only write end, so its death reads as EOF
    return worker, receiver


def _residuals(cfg: RunConfig, selected: tuple) -> dict:
    """Each selected suite's residuals by name, WORKER_SUITE in a forked worker process when
    another suite is selected and a second core is usable, so that this process runs the
    others meanwhile.

    The worker shares this process's built tables and any patched suite; a suite's
    residuals depend only on cfg, so they are the same in either process.  An exception
    wins as in a serial run: a suite before WORKER_SUITE in `selected` raises at once, and
    one after it raises only if the worker's suite did not.  The worker is reaped before
    this returns or raises, and killed first if this side raises.  With one usable core
    every suite runs here: two processes taking turns on one core made `verify` about 10%
    slower (CPU quotas of a cgroup are not seen, only the affinity mask).  So does every
    suite when the worker cannot be started (an OSError, such as EAGAIN from fork).
    """
    if (WORKER_SUITE not in selected or len(selected) == 1
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return {name: SUITES[name](cfg) for name in selected}
    try:
        worker, receiver = _start_worker(cfg)
    except OSError:  # no pipe or no process to be had, as at a process limit
        return {name: SUITES[name](cfg) for name in selected}
    results = {}
    try:
        for name in selected:
            if name == WORKER_SUITE:
                continue
            try:
                results[name] = SUITES[name](cfg)
            except Exception:
                if selected.index(name) > selected.index(WORKER_SUITE):
                    _receive(receiver, worker)  # raises the worker's exception, met first serially
                raise
        results[WORKER_SUITE] = _receive(receiver, worker)
    except BaseException:
        worker.kill()
        raise
    finally:
        worker.join()
        receiver.close()
    return results


def run_suites(cfg: RunConfig) -> dict:
    """Run the selected suites and assemble the verification report.

    Every verdict is read off the checks: a suite passes when all its checks do, each max keeps a NaN, and
    first_failure names the first failing suite in run order with its
    alphabetically first failing check.  The report is the same whether or not a suite ran
    in a worker process (see _residuals).
    """
    selected = cfg.suites or tuple(SUITES)
    residuals = _residuals(cfg, selected)
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
    for name in selected:
        checks = {k: {"residual": v, "pass": bool(v <= cfg.tolerance)}
                  for k, v in residuals[name].items()}
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
