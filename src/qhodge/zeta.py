"""Zeta-regularized determinants and torsion invariants on the flat 4-torus.

The scalar Laplacian twisted by a flat character theta in [0,1)^4 has
spectrum 4 pi^2 |k + theta|^2 over k in Z^4.  Laplacians on (q,0)-forms
(q = 0, 1, 2) are fiber_rank copies of the scalar one with ranks (1, 2, 1).

Its heat trace factors over the four axes into 1D Jacobi theta sums,

    sum_k e^{-4 pi^2 t |k+theta|^2} = prod_i sum_{k_i} e^{-4 pi^2 t (k_i+theta_i)^2},

and so does its Poisson dual (4 pi t)^{-2} sum_m e^{-|m|^2/4t} cos(2 pi m.theta).
`heat_trace_direct` and `heat_trace_dual` evaluate these products, each
axis truncated to |k_i| <= ceil(R + 1) for the regime's radius R: a box
that contains the ball |k + theta| <= R beyond which the terms are below
~1e-20.

Regularized integrals follow the Mellin-continuation convention

    int_{->0}^inf G(t) dt/t := zeta_G'(0),
    zeta_G(s) = Gamma(s)^{-1} int_0^inf G(t) t^{s-1} dt,

for G with rapid decay at infinity and declared singular expansion
G(t) = sum_{i=-n}^{0} G_i t^i + O(t) at zero.  Splitting the integral at A
and integrating the singular part in closed form gives

    zeta_G'(0) = int_0^A (G - sum G_i t^i) dt/t + int_A^inf G dt/t
                 + gamma*G_0 + G_0 log A + sum_{i<0} G_i A^i / i,

which is what `regularized_integral` evaluates.  Applied to a heat trace
with the kernel removed this yields  -log det' H.

Two independent routes to log det' Delta_0 exist for theta = 0: the Mellin
split above, and the lattice closed form via the four-square counting
identity  sum_{n>=1} r_4(n) n^{-s} = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1),
evaluated with standard special values.  Both must agree; the CLI and the
acceptance suite check this.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .fields import grid

# High-precision constants (OEIS A001620, A075700, A084448 conventions):
#   gamma: Euler-Mascheroni constant
#   zeta'(0) = -log(2 pi)/2
#   zeta'(-1) = 1/12 - log(A), A the Glaisher-Kinkelin constant
EULER_GAMMA = 0.5772156649015328606065120900824024
ZETA_PRIME_0 = -0.9189385332046727417803297364056176
ZETA_PRIME_MINUS_1 = -0.1654211437004509292139196602427293

FORM_RANKS = (1, 2, 1)  # ranks of (q,0)-form bundles on T^4, q = 0, 1, 2


class TruncationInsufficient(Exception):
    pass


class QuadratureFailure(Exception):
    pass


class MethodDisagreement(Exception):
    pass


# ---------------------------------------------------------------------------
# spectrum enumeration
# ---------------------------------------------------------------------------

def _reduce_theta(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float).reshape(4) % 1.0
    return th


@dataclass
class SpectrumModel:
    """Eigenvalue/multiplicity description of a twisted form Laplacian.

    eigenvalues holds the distinct nonzero eigenvalues with multiplicities
    counted per scalar copy; the (q,0)-form Laplacian is fiber_rank copies
    of that scalar spectrum.  kernel_dim counts the excluded zero modes
    (fiber_rank when theta = 0, else 0).
    """

    eigenvalues: list  # [(lambda, multiplicity)]
    fiber_rank: int
    kernel_dim: int
    theta: np.ndarray | None = None
    scale: float = 1.0
    radius: float = 0.0

    def arrays(self):
        lam = np.array([l for l, _ in self.eigenvalues])
        mult = np.array([m for _, m in self.eigenvalues], dtype=float)
        return lam, mult


def _lattice_shifted_norms(theta: np.ndarray, radius: float):
    """|k + theta|^2 for all k with |k + theta| <= radius."""
    shifted = grid(int(math.ceil(radius + 1)))[0] + theta
    n2 = np.einsum("na,na->n", shifted, shifted)
    return n2[n2 <= radius**2 + 1e-12]


def torus_spectrum(theta=(0, 0, 0, 0), fiber_rank: int = 1, radius: float = 6.0,
                   scale: float = 1.0) -> SpectrumModel:
    """Enumerated spectrum of the theta-twisted scalar Laplacian, |k+theta| <= radius."""
    th = _reduce_theta(theta)
    n2 = _lattice_shifted_norms(th, radius)
    nonzero = n2[n2 > 1e-12]
    kernel = int(np.count_nonzero(n2 <= 1e-12)) * fiber_rank
    lam = scale * 4 * np.pi**2 * np.sort(nonzero)
    # aggregate equal eigenvalues for a compact model
    uniq, counts = np.unique(np.round(lam, 12), return_counts=True)
    eigs = [(float(l), int(c)) for l, c in zip(uniq, counts)]
    return SpectrumModel(eigs, fiber_rank, kernel, th, scale, radius)


def _tail_bound(t: float, radius: float, scale: float = 1.0) -> float:
    """Upper bound on the dropped part of sum exp(-4 pi^2 scale t |k+theta|^2).

    Crude shell-count bound: at most 20*(r+2)^3 lattice points per unit
    shell [r, r+1).
    """
    a = 4 * np.pi**2 * scale * t
    total = 0.0
    r = max(radius, 0.0)
    for _ in range(10000):
        term = 20.0 * (r + 2) ** 3 * math.exp(-a * r * r)
        total += term
        if term < 1e-300 or term < 1e-18 * total:
            break
        r += 1.0
    return total


def heat_trace(model: SpectrumModel, t: float, accuracy: float = 1e-12) -> float:
    """Tr' exp(-t Delta) from the enumerated spectrum (kernel excluded).

    Raises TruncationInsufficient when the tail beyond the enumeration
    radius cannot be bounded below `accuracy`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if model.radius:
        tail = model.fiber_rank * _tail_bound(t, model.radius, model.scale)
        if tail > accuracy:
            raise TruncationInsufficient(
                f"tail bound {tail:.3e} exceeds accuracy {accuracy:.1e} at t={t}"
            )
    lam, mult = model.arrays()
    return float(model.fiber_rank * np.sum(mult * np.exp(-t * lam)))


# ---------------------------------------------------------------------------
# dual-regime scalar heat trace for the analytic continuation
# ---------------------------------------------------------------------------

def _axis(radius: float) -> np.ndarray:
    """Integers |k| <= ceil(radius + 1): one axis of the box that holds the radius ball."""
    bound = int(math.ceil(radius + 1))
    return np.arange(-bound, bound + 1, dtype=float)


def heat_trace_direct(theta, t: float, radius: float | None = None) -> float:
    """sum_k exp(-4 pi^2 t |k+theta|^2) as a product of 1D theta sums (kernel kept).

    The Gaussian factors over the axes, so with a = 4 pi^2 t

        sum_k e^{-a |k+theta|^2} = prod_i sum_{k_i} e^{-a (k_i + theta_i)^2},

    each axis summed over |k_i| <= ceil(radius + 1).  That box contains the
    ball |k + theta| <= radius, so the truncation error is at most the
    ball's.
    """
    th = _reduce_theta(theta)
    if radius is None:
        # e^{-4 pi^2 t R^2} ~ 1e-20 determines R
        radius = math.sqrt(46.1 / (4 * np.pi**2 * t)) + 2.0
    x = _axis(radius) + th[:, None]
    return float(np.prod(np.exp(-4 * np.pi**2 * t * x * x).sum(axis=1)))


def heat_trace_dual(theta, t: float, radius: float | None = None) -> float:
    """Same sum through its modular (Poisson-resummed) representation:

    sum_k e^{-4 pi^2 t|k+theta|^2} = (4 pi t)^{-2} sum_m e^{-|m|^2/(4t)} cos(2 pi m.theta)
                                   = (4 pi t)^{-2} prod_i sum_{m_i} e^{-m_i^2/(4t)} cos(2 pi m_i theta_i),

    the cosine of a sum factoring because the odd sine terms cancel in each
    symmetric axis sum.  Each axis runs over |m_i| <= ceil(radius + 1), a
    box containing the ball |m| <= radius.
    """
    th = _reduce_theta(theta)
    if radius is None:
        radius = math.sqrt(4 * t * 46.1) + 2.0
    m = _axis(radius)
    terms = np.exp(-m * m / (4 * t)) * np.cos(2 * np.pi * m * th[:, None])
    return float(np.prod(terms.sum(axis=1)) / (4 * np.pi * t) ** 2)


_T_SWITCH = 0.05


def _kept_kernel_trace(th: np.ndarray, ts: float) -> float:
    """Heat trace at scaled time ts for a reduced theta, kernel kept.

    Uses the Poisson-resummed form below ts = 0.05 and the direct sum above.
    """
    return heat_trace_dual(th, ts) if ts < _T_SWITCH else heat_trace_direct(th, ts)


def scalar_heat_trace(theta, t: float, scale: float = 1.0, keep_kernel: bool = False) -> float:
    """Theta-twisted scalar heat trace, exact to ~1e-15 at any t > 0.

    Uses the Poisson-resummed form below t = 0.05 / scale and the direct
    lattice sum above it; the scale multiplies every eigenvalue.
    """
    th = _reduce_theta(theta)
    value = _kept_kernel_trace(th, t * scale)
    return value if keep_kernel else value - kernel_dim_scalar(th)


def kernel_dim_scalar(theta) -> int:
    """1 when theta = 0 mod 1 (every |theta_i| <= 1e-8 after reduction), else 0."""
    th = _reduce_theta(theta)
    return 1 if np.allclose(th, 0.0) else 0


# ---------------------------------------------------------------------------
# regularized integrals (Mellin continuation)
# ---------------------------------------------------------------------------

def regularized_integral(G, singular: dict[int, float] | None = None, split: float = 1.0,
                         epsabs: float = 1e-13, epsrel: float = 1e-12):
    """zeta_G'(0) for a heat-trace-like G with declared singular coefficients.

    singular maps the power i (i <= 0) to the coefficient G_i of t^i in the
    small-t expansion; omitted powers are zero.  Returns (value, error_estimate).
    """
    singular = {int(i): float(v) for i, v in (singular or {}).items() if v != 0.0}
    if any(i > 0 for i in singular):
        raise ValueError("singular coefficients must have powers <= 0")
    g0 = singular.get(0, 0.0)

    def low(t):
        s = sum(coeff * t**i for i, coeff in singular.items())
        return (G(t) - s) / t

    def high(t):
        return G(t) / t

    try:
        # quadpack's roundoff warnings are advisory; the returned error
        # bounds are checked explicitly below
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            low_val, low_err = quad(low, 0.0, split, epsabs=epsabs, epsrel=epsrel, limit=400)
            high_val, high_err = quad(high, split, np.inf, epsabs=epsabs, epsrel=epsrel, limit=400)
    except Exception as exc:  # pragma: no cover - defensive
        raise QuadratureFailure(str(exc)) from exc
    err = low_err + high_err
    if not np.isfinite(low_val + high_val) or err > 1e-6:
        raise QuadratureFailure(
            f"quadrature did not converge (value {low_val + high_val}, error {err:.3e})"
        )
    value = low_val + high_val + EULER_GAMMA * g0 + g0 * math.log(split)
    value += sum(coeff * split**i / i for i, coeff in singular.items() if i < 0)
    return value, err


# ---------------------------------------------------------------------------
# log det'
# ---------------------------------------------------------------------------

@dataclass
class ZetaResult:
    zeta_prime_zero: float
    log_det_prime: float
    method: str
    error_estimate: float
    details: dict = field(default_factory=dict)


def _mellin_log_det(theta, fiber_rank: int, scale: float, split: float) -> ZetaResult:
    th = _reduce_theta(theta)
    kernel = kernel_dim_scalar(th)  # decided once, not per quadrature node

    def G(t):
        return fiber_rank * (_kept_kernel_trace(th, t * scale) - kernel)

    singular = {-2: fiber_rank / (16 * np.pi**2 * scale**2), 0: -float(kernel * fiber_rank)}
    zp, err = regularized_integral(G, singular, split=split)
    return ZetaResult(zp, -zp, "mellin_split", err, {"split": split})


def _closed_form_log_det(fiber_rank: int, scale: float) -> ZetaResult:
    """theta = 0 closed form from sum r_4(n) n^{-s} = 8(1-4^{1-s}) zeta(s) zeta(s-1).

    With Z(s) that Dirichlet series, zeta_Delta(s) = (4 pi^2 c)^{-s} Z(s),
    Z(0) = -1 and the s-derivative evaluates through zeta'(0), zeta'(-1).
    """
    z0 = -1.0
    zp0 = 8.0 * (
        4.0 * math.log(4.0) * (-0.5) * (-1.0 / 12.0)
        + (1.0 - 4.0) * (ZETA_PRIME_0 * (-1.0 / 12.0) + (-0.5) * ZETA_PRIME_MINUS_1)
    )
    zeta_prime = -math.log(4 * np.pi**2 * scale) * z0 + zp0
    zeta_prime *= fiber_rank
    return ZetaResult(zeta_prime, -zeta_prime, "closed_form", 1e-15, {})


def log_det_prime(model: SpectrumModel | None = None, *, theta=None, fiber_rank: int = 1,
                  scale: float = 1.0, method: str = "auto", split: float = 1.0,
                  tol: float = 1e-8) -> ZetaResult:
    """-zeta'_Delta(0) for the theta-twisted (q,0)-form Laplacian.

    Accepts either a SpectrumModel (torus provenance required for the
    continuation) or explicit theta/fiber_rank/scale.  method is one of
    "mellin_split", "closed_form" (theta = 0 only), "both" (cross-validate)
    or "auto" (cross-validate when the closed form applies).
    """
    if model is not None:
        if model.theta is None:
            raise ValueError("analytic continuation requires torus provenance (theta)")
        theta, fiber_rank, scale = model.theta, model.fiber_rank, model.scale
    th = _reduce_theta(theta)
    untwisted = kernel_dim_scalar(th) == 1
    if method == "auto":
        method = "both" if untwisted else "mellin_split"
    if method in ("closed_form", "both") and not untwisted:
        raise ValueError("closed form is only available for theta = 0")
    if method == "mellin_split":
        return _mellin_log_det(th, fiber_rank, scale, split)
    if method == "closed_form":
        return _closed_form_log_det(fiber_rank, scale)
    if method == "both":
        a = _mellin_log_det(th, fiber_rank, scale, split)
        b = _closed_form_log_det(fiber_rank, scale)
        gap = abs(a.log_det_prime - b.log_det_prime)
        if gap > max(tol, 10 * a.error_estimate):
            raise MethodDisagreement(
                f"mellin {a.log_det_prime!r} vs closed form {b.log_det_prime!r} (gap {gap:.3e})"
            )
        a.details.update({"closed_form": b.log_det_prime, "method_gap": gap})
        return a
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# torsion invariants
# ---------------------------------------------------------------------------

# per-degree split points are staggered so the torsion identities exercise
# three independent continuations instead of one rescaled quadrature
_DEGREE_SPLITS = (0.8, 1.0, 1.25)


def log_det_by_degree(theta, split: float = 1.0) -> list[float]:
    """log det' Delta_q for q = 0, 1, 2 on (q,0)-forms."""
    return [
        _mellin_log_det(theta, rank, 1.0, split * _DEGREE_SPLITS[q]).log_det_prime
        for q, rank in enumerate(FORM_RANKS)
    ]


def torsion_T(theta, split: float = 1.0, logs: list[float] | None = None) -> float:
    """prod_q det' Delta_q^{q (-1)^q}; trivial on the hyperkahler torus."""
    logs = log_det_by_degree(theta, split) if logs is None else logs
    log_t = sum(q * (-1) ** q * logs[q] for q in range(3))
    return math.exp(log_t)


def hyper_torsion(theta, split: float = 1.0, logs: list[float] | None = None) -> float:
    """prod_q det' Delta_q^{(-1)^q q^2}; equals (det' Delta_0)^2 in dimension 4."""
    logs = log_det_by_degree(theta, split) if logs is None else logs
    log_th = sum((-1) ** q * q * q * logs[q] for q in range(3))
    return math.exp(log_th)


def alternating_heat_sum(theta, t: float) -> float:
    """sum_q (-1)^q tr' exp(-t Delta_q); vanishes by the odd/even pairing."""
    base = scalar_heat_trace(theta, t)
    return sum((-1) ** q * rank * base for q, rank in enumerate(FORM_RANKS))


def beta0(theta, split: float = 1.0) -> float:
    """Regularized integral of the graded trace of sum_C (ad_C)^2 e^{-t D^2}.

    On (q,0)-forms each ad_C contributes -(q-1)^2 through the isotropy
    weight, the three structures contribute equally, and the graded trace
    collapses to -6 times the scalar heat trace.  Must equal 3 log T_h.
    """
    th = _reduce_theta(theta)
    weight = 3.0 * sum(
        (-1) ** q * (-((q - 1) ** 2)) * rank for q, rank in enumerate(FORM_RANKS)
    )  # = -6

    kernel = kernel_dim_scalar(th)  # decided once, not per quadrature node

    def G(t):
        return weight * (_kept_kernel_trace(th, t) - kernel)

    singular = {-2: weight / (16 * np.pi**2), 0: -weight * kernel}
    value, _ = regularized_integral(G, singular, split=split)
    return value


def torsion_report(theta, split: float = 1.0, tol: float = 1e-8) -> dict:
    """Full torsion computation with the cross-identities evaluated."""
    th = _reduce_theta(theta)
    per_q = {}
    logs = []
    for q, rank in enumerate(FORM_RANKS):
        res = log_det_prime(
            theta=th, fiber_rank=rank, method="auto",
            split=split * _DEGREE_SPLITS[q], tol=tol,
        )
        logs.append(res.log_det_prime)
        per_q[str(q)] = {
            "log_det_prime": res.log_det_prime,
            "method_agreement": res.details.get("method_gap"),
        }
    T = torsion_T(th, logs=logs)
    Th = hyper_torsion(th, logs=logs)
    b0 = beta0(th, split=split)
    det0_sq = math.exp(2 * logs[0])
    return {
        "schema_version": 1,
        "theta": [float(v) for v in th],
        "per_q": per_q,
        "T": T,
        "T_h": Th,
        "beta0": b0,
        "identity_residuals": {
            "abs(T - 1)": abs(T - 1.0),
            "rel(T_h - det0^2)": abs(Th - det0_sq) / Th,
            "abs(beta0 - 3 log T_h)": abs(b0 - 3.0 * math.log(Th)),
        },
    }
