"""Zeta-regularized determinants and torsion invariants on the flat 4-torus.

The scalar Laplacian twisted by a flat character theta in R^4 has spectrum
4 pi^2 |k + theta|^2 over k in Z^4, so theta enters only through the lattice
Z^4 + theta, by its centered representative `reduce_theta`.  On (q,0)-forms
the Laplacian is FORM_RANKS[q] copies of it (quaternionic derives the ranks).

Its heat trace factors over the four axes into 1D Jacobi theta sums,

    sum_k e^{-4 pi^2 t |k+theta|^2} = prod_i sum_{k_i} e^{-4 pi^2 t (k_i+theta_i)^2},

and so does its Poisson dual (4 pi t)^{-2} sum_m e^{-|m|^2/4t} cos(2 pi m.theta).
Private kernels evaluate these products on an array of times at once, each
axis truncated to |k_i| <= ceil(R + 1) for the regime's radius R at the
smallest (direct) or largest (dual) time of the batch: a box that contains
the ball |k + theta| <= R beyond which the terms are below ~1e-20.
`heat_trace_direct` and `heat_trace_dual` are the same kernels at one time.

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

Both integrals are taken by one fixed rule (numpy only), so the nodes
depend on the split alone and two identical calls agree bit for bit:

  - [0, A]: Gauss-Legendre, 20 nodes per panel, on the panels
    [0, T/2], [T/2, T], [T, 2T], ... doubling up to A, the last one ending
    at A (T = 0.05, where the heat trace switches regime).  The coarse
    level takes each panel whole, the fine level its two halves; Gauss
    nodes do not nest, so a panel costs 60 nodes.
  - [A, inf): exp-sinh (Takahasi & Mori 1974), t = A + exp(pi/2 sinh u),
    trapezoidal in u over [-4, 4]: 1025 nodes at step 1/128, of which
    every other one is the coarse level at step 1/64.

The value is the fine level and the error estimate |fine - coarse|,
summed over the two sides.  Both exp-sinh levels end on the nodes u = +-4,
which the coarse level weighs twice as much as the fine one, so a G that
has not decayed by the end of the range shows in the estimate.  At A = 1
the rule takes 7 panels and 7*60 + 1025 = 1445 nodes.  For a heat trace
the remainder G - sum G_i t^i is formed without cancellation, as
(4 pi t)^{-2} (P - 1) with P the product of the dual axis sums; a generic
G with negative powers loses digits to the subtraction near t = 0.

Two independent routes to log det' Delta_0 exist for theta = 0: the Mellin
split above, and the lattice closed form via the four-square counting
identity  sum_{n>=1} r_4(n) n^{-s} = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1),
evaluated with standard special values.  `log_det_prime` always takes the
Mellin split; for theta = 0 it also evaluates the closed form, reports the
gap as `method_gap` and raises MethodDisagreement when the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternionic import FORM_RANKS

# High-precision constants (OEIS A001620, A075700, A084448 conventions):
#   gamma: Euler-Mascheroni constant
#   zeta'(0) = -log(2 pi)/2
#   zeta'(-1) = 1/12 - log(A), A the Glaisher-Kinkelin constant
EULER_GAMMA = 0.5772156649015328606065120900824024
ZETA_PRIME_0 = -0.9189385332046727417803297364056176
ZETA_PRIME_MINUS_1 = -0.1654211437004509292139196602427293

# largest |mellin - closed form| accepted for log det' (unless the quadrature
# error estimate is larger)
METHOD_GAP_TOL = 1e-8


class QuadratureFailure(Exception):
    pass


class MethodDisagreement(Exception):
    pass


def reduce_theta(theta) -> np.ndarray:
    """theta - round(theta), each component in (-1/2, 1/2]; exact zeros within 1e-8 of Z^4.

    The difference is exact, and a half-integer reduces to +1/2, so theta + n
    reduces to the same array for every integer vector n.  Within 1e-8 (max
    norm) theta is untwisted: its near-zero mode is the kernel.
    """
    th = np.asarray(theta, dtype=float).reshape(4)
    th = th - np.round(th)
    th[th == -0.5] = 0.5
    return np.zeros(4) if np.abs(th).max() <= 1e-8 else th


# ---------------------------------------------------------------------------
# dual-regime scalar heat trace for the analytic continuation
# ---------------------------------------------------------------------------

def _axis(radius: float) -> np.ndarray:
    """Integers |k| <= ceil(radius + 1): one axis of the box that holds the radius ball."""
    bound = int(math.ceil(radius + 1))
    return np.arange(-bound, bound + 1, dtype=float)


def _direct_sum(th: np.ndarray, t: np.ndarray) -> np.ndarray:
    """prod_i sum_{k_i} e^{-4 pi^2 t (k_i + theta_i)^2} at each time in t.

    Each axis runs over |k_i| <= ceil(R + 1) for the radius R at which
    e^{-4 pi^2 t R^2} ~ 1e-20 at the smallest t of the batch.
    """
    x = _axis(math.sqrt(46.1 / (4 * np.pi**2 * t.min(initial=np.inf))) + 2.0) + th[:, None]
    return np.exp(-4 * np.pi**2 * t * (x * x)[:, :, None]).sum(axis=1).prod(axis=0)


def _dual_excess(th: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P - 1 at each time in t, P = prod_i (1 + s_i) the product of the dual axis sums.

    s_i = 2 sum_{m >= 1} e^{-m^2/(4t)} cos(2 pi m theta_i), each axis run
    over 1 <= m <= ceil(R + 1) for the radius R at which e^{-R^2/(4t)} ~ 1e-20
    at the largest t of the batch.  The product is accumulated as
    Q -> Q + s_i + Q s_i, so P - 1 keeps its relative accuracy as t -> 0.
    """
    m = _axis(math.sqrt(4 * t.max(initial=0.0) * 46.1) + 2.0)
    m = m[m > 0]
    decay = np.exp(-(m * m)[:, None] / (4 * t))
    s = 2 * (np.cos(2 * np.pi * th[:, None] * m)[:, :, None] * decay).sum(axis=1)
    excess = np.zeros(t.shape)
    for s_i in s:
        excess = excess + s_i + excess * s_i
    return excess


def _dual_sum(th: np.ndarray, t: np.ndarray) -> np.ndarray:
    return (1 + _dual_excess(th, t)) / (4 * np.pi * t) ** 2


def heat_trace_direct(theta, t: float) -> float:
    """sum_k exp(-4 pi^2 t |k+theta|^2), kernel kept, as the product of 1D theta sums."""
    return float(_direct_sum(reduce_theta(theta), np.array([t], dtype=float))[0])


def heat_trace_dual(theta, t: float) -> float:
    """Same sum through its Poisson dual (4 pi t)^{-2} sum_m e^{-|m|^2/(4t)} cos(2 pi m.theta).

    The cosine factors over the axes: the odd sine terms cancel in each
    symmetric axis sum.
    """
    return float(_dual_sum(reduce_theta(theta), np.array([t], dtype=float))[0])


_T_SWITCH = 0.05


def _by_regime(t: np.ndarray, dual, direct) -> np.ndarray:
    """dual(t) at the times below _T_SWITCH and direct(t) at the others, one call each."""
    low = t < _T_SWITCH
    out = np.empty(t.shape)
    out[low] = dual(t[low])
    out[~low] = direct(t[~low])
    return out


def _kept_kernel_trace(th: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Heat trace at each time in t for a reduced theta, kernel kept (dual sum below t = 0.05)."""
    return _by_regime(t, lambda s: _dual_sum(th, s), lambda s: _direct_sum(th, s))


def _heat_remainder(th: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Heat trace minus its leading term (4 pi t)^{-2} at each time in t, kernel kept.

    Below t = 0.05 this is (4 pi t)^{-2} (P - 1), formed without cancellation.
    """
    return _by_regime(t, lambda s: _dual_excess(th, s) / (4 * np.pi * s) ** 2,
                      lambda s: _direct_sum(th, s) - (4 * np.pi * s) ** -2.0)


def scalar_heat_trace(theta, t: float) -> float:
    """Theta-twisted scalar heat trace Tr' exp(-t Delta), kernel excluded; exact to ~1e-15."""
    th = reduce_theta(theta)
    return float(_kept_kernel_trace(th, np.array([t], dtype=float))[0]) - (not th.any())


# ---------------------------------------------------------------------------
# regularized integrals (Mellin continuation)
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes and weights on [-1, 1] for the panels of [0, split]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)

# exp-sinh offsets x(u) = exp(pi/2 sinh u) and weights h x'(u) on u = -4..4, step
# h = 1/128; the even-indexed nodes are the coarse level, step 1/64
_ES_STEP = 1.0 / 128
_ES_U = np.arange(-512, 513) * _ES_STEP
_ES_X = np.exp(np.pi / 2 * np.sinh(_ES_U))
_ES_W = _ES_STEP * np.pi / 2 * np.cosh(_ES_U) * _ES_X


def _panel_edges(split: float) -> np.ndarray:
    """0, then T/2, T, 2T, ... while below split, then split (T = _T_SWITCH)."""
    edges = [0.0]
    b = _T_SWITCH / 2
    while b < split:
        edges.append(b)
        b *= 2
    return np.array(edges + [split])


def _gauss_panels(edges: np.ndarray):
    """Nodes and weights of the 20-point Gauss-Legendre rule on each panel between edges."""
    a, b = edges[:-1, None], edges[1:, None]
    return ((a + b + (b - a) * _GL_X) / 2).ravel(), ((b - a) / 2 * _GL_W).ravel()


def _regularized(low, high, singular: dict[int, float], split: float):
    """The fixed rule behind regularized_integral, on array integrands.

    low(t) = G(t) - sum G_i t^i and high(t) = G(t), each called once on its
    whole node array.  Returns (value, error_estimate).
    """
    if not 0.0 < split < math.inf:
        raise ValueError(f"split must be positive and finite, got {split!r}")
    edges = _panel_edges(split)
    halves = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2]))
    t_coarse, w_coarse = _gauss_panels(edges)
    t_fine, w_fine = _gauss_panels(halves)
    t_low = np.concatenate([t_coarse, t_fine])
    f_low = low(t_low) / t_low
    # numpy's own sums, not a BLAS dot, whose summation order follows the BLAS kernel
    low_coarse = (w_coarse * f_low[:t_coarse.size]).sum()
    low_fine = (w_fine * f_low[t_coarse.size:]).sum()

    t_high = split + _ES_X
    f_high = _ES_W * high(t_high) / t_high
    high_fine = f_high.sum()
    high_coarse = 2 * f_high[::2].sum()

    total = float(low_fine + high_fine)
    err = float(abs(low_fine - low_coarse) + abs(high_fine - high_coarse))
    if not (math.isfinite(total) and err <= 1e-6):
        raise QuadratureFailure(f"quadrature did not converge (value {total}, error {err:.3e})")
    g0 = singular.get(0, 0.0)
    value = total + EULER_GAMMA * g0 + g0 * math.log(split)
    value += sum(coeff * split**i / i for i, coeff in singular.items() if i < 0)
    return value, err


def regularized_integral(G, singular: dict[int, float] | None = None, split: float = 1.0):
    """zeta_G'(0) for a heat-trace-like G with declared singular coefficients.

    G maps a float t > 0 to a float.  singular maps the power i (i <= 0) to
    the coefficient G_i of t^i in the small-t expansion; omitted powers are
    zero.  Returns (value, error_estimate) by the fixed rule of the module
    docstring: the fine-level value and the two-level difference as the
    estimate.  Raises QuadratureFailure when the value is not finite or the
    estimate exceeds 1e-6.
    """
    singular = {int(i): float(v) for i, v in (singular or {}).items() if v != 0.0}
    if any(i > 0 for i in singular):
        raise ValueError("singular coefficients must have powers <= 0")

    def values(t):
        return np.array([G(float(s)) for s in t], dtype=float)

    def low(t):
        return values(t) - sum(coeff * t**i for i, coeff in singular.items())

    return _regularized(low, values, singular, split)


# ---------------------------------------------------------------------------
# log det'
# ---------------------------------------------------------------------------

@dataclass
class ZetaResult:
    log_det_prime: float
    error_estimate: float
    method_gap: float | None  # |mellin - closed form|; None when theta is twisted


def _mellin_log_det(th: np.ndarray, fiber_rank: float, scale: float, split: float):
    """(-zeta'(0), quadrature error estimate) by the Mellin split, for a reduced theta."""
    kernel = float(not th.any())
    singular = {-2: fiber_rank / (16 * np.pi**2 * scale**2), 0: -kernel * fiber_rank}
    # G - G_{-2} t^-2 - G_0 is fiber_rank times the kept trace minus (4 pi t scale)^-2
    zp, err = _regularized(
        lambda t: fiber_rank * _heat_remainder(th, t * scale),
        lambda t: fiber_rank * (_kept_kernel_trace(th, t * scale) - kernel),
        singular, split)
    return -zp, err


def _closed_form_log_det(fiber_rank: int, scale: float) -> float:
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
    return -(zeta_prime * fiber_rank)


def log_det_prime(theta, *, fiber_rank: int = 1, scale: float = 1.0,
                  split: float = 1.0) -> ZetaResult:
    """-zeta'_Delta(0) for the theta-twisted (q,0)-form Laplacian, by the Mellin split.

    fiber_rank copies of the scalar Laplacian, every eigenvalue times scale.
    When theta reduces to zero (it lies within 1e-8 of Z^4) the result is
    also checked against the closed form; a gap above METHOD_GAP_TOL (or 10x
    the quadrature error) raises MethodDisagreement.
    """
    th = reduce_theta(theta)
    value, err = _mellin_log_det(th, fiber_rank, scale, split)
    if th.any():
        return ZetaResult(value, err, None)
    closed = _closed_form_log_det(fiber_rank, scale)
    gap = abs(value - closed)
    if not gap <= max(METHOD_GAP_TOL, 10 * err):
        raise MethodDisagreement(f"mellin {value!r} vs closed form {closed!r} (gap {gap:.3e})")
    return ZetaResult(value, err, gap)


# ---------------------------------------------------------------------------
# torsion invariants
# ---------------------------------------------------------------------------

# per-degree split points are staggered so the torsion identities exercise
# three independent continuations instead of one rescaled quadrature
_DEGREE_SPLITS = (0.8, 1.0, 1.25)


def torsion_T(logs) -> float:
    """prod_q det' Delta_q^{q (-1)^q}; trivial on the hyperkahler torus.

    logs[q] = log det' Delta_q for q = 0, 1, 2, as torsion_report computes them.
    """
    return math.exp(sum(q * (-1) ** q * logs[q] for q in range(3)))


def hyper_torsion(logs) -> float:
    """prod_q det' Delta_q^{(-1)^q q^2}; equals (det' Delta_0)^2 in dimension 4."""
    return math.exp(sum((-1) ** q * q * q * logs[q] for q in range(3)))


def alternating_heat_sum(theta, t: float) -> float:
    """sum_q (-1)^q tr' exp(-t Delta_q); vanishes by the odd/even pairing."""
    base = scalar_heat_trace(theta, t)
    return sum((-1) ** q * rank * base for q, rank in enumerate(FORM_RANKS))


def beta0(theta) -> float:
    """Regularized integral of the graded trace of sum_C (ad_C)^2 e^{-t D^2}.

    On (q,0)-forms each ad_C contributes -(q-1)^2 through the isotropy
    weight, the three structures contribute equally, and the graded trace
    collapses to -6 times the scalar heat trace.  Must equal 3 log T_h.
    """
    weight = 3.0 * sum((-1) ** q * -((q - 1) ** 2) * r for q, r in enumerate(FORM_RANKS))  # -6
    # the scalar Mellin integrand with the weight in place of a fiber rank
    return -_mellin_log_det(reduce_theta(theta), weight, 1.0, 1.0)[0]


def torsion_report(theta) -> dict:
    """Full torsion computation with the cross-identities evaluated.

    The one place that computes the per-degree logs log det' Delta_q.
    """
    th = reduce_theta(theta)
    per_q = {}
    logs = []
    for q, rank in enumerate(FORM_RANKS):
        res = log_det_prime(th, fiber_rank=rank, split=_DEGREE_SPLITS[q])
        logs.append(res.log_det_prime)
        per_q[str(q)] = {
            "log_det_prime": res.log_det_prime,
            "method_agreement": res.method_gap,
        }
    T = torsion_T(logs)
    Th = hyper_torsion(logs)
    b0 = beta0(th)
    det0_sq = math.exp(2 * logs[0])
    return {
        "schema_version": 1,
        "theta": [float(v) for v in th % 1.0],  # echoed in [0, 1)
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
