"""Constructive transgression solvers at orders one, two and four.

Given a target form satisfying the order-specific closedness and exactness
hypotheses, the potentials are built from Green-operator formulas:

    order 1:  phi =      d* G        target,   d phi                = target
    order 2:  chi = s2 * d* d_C* G^2 target,   d d_C chi            = target
    order 4:  tau = s4 * d* d_I* d_J* d_K* G^4 target,
              d d_I d_J d_K tau = target.

Reordering the product of the per-structure factors d_C d_C* G into the
iterated-differential normal form silently absorbs anticommutation signs;
the global signs s2 = -1 and s4 = +1 were calibrated once on construct-
then-solve round trips and are frozen here (regression-tested).

Since d d_I d_J d_K = vol ^ Delta^2 on 0-forms (c = 1, measured by
measure_lapl_constant), transgress4 uses the closed form tau = G^2 of the
target's vol coefficient; the tests keep the literal order-4 formula as its
oracle, and the residual still goes through the literal quartic_differential.

Preconditions are validated numerically with per-structure residual
reporting rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import VOL_MASK
from .fields import FormField
from .operators import (
    d_star,
    exterior_d,
    green,
    harmonic_project,
    laplacian,
    twisted_d,
    twisted_d_star,
)
from .quaternionic import STRUCTURE_NAMES

ORDER2_SIGN = -1.0
ORDER4_SIGN = +1.0


class TransgressionError(Exception):
    """Violated precondition or inconsistent measurement."""


class NotClosed(TransgressionError):
    pass


class NotExact(TransgressionError):
    pass


class NotDCClosed(TransgressionError):
    def __init__(self, structure: str, residual: float):
        self.structure = structure
        self.residual = residual
        super().__init__(f"target is not d_{structure}-closed (residual {residual:.3e})")


class DegreeTooLow(TransgressionError):
    pass


class InconsistentConstant(TransgressionError):
    pass


@dataclass
class TransgressionResult:
    potential: FormField
    residual: float
    order: int
    sign: float
    precondition_residuals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "order": self.order,
            "sign": self.sign,
            "residual": self.residual,
            "precondition_residuals": self.precondition_residuals,
            "potential": self.potential.to_dict(),
        }


def _rel(value: float, scale: float) -> float:
    return value / scale if scale > 0 else value


def _closedness(target: FormField) -> tuple[float, float, dict[str, float]]:
    """Relative d-closedness, harmonic content, and d_C-closedness of target."""
    scale = target.norm()
    # d multiplies coefficients by O(2 pi |k|); normalize the residual by the
    # same scale so "closed" means small relative to a generic derivative
    dscale = max(scale * 2 * np.pi, 1e-300)
    closed = exterior_d(target).norm() / dscale if scale else 0.0
    harm = _rel(harmonic_project(target).norm(), scale)
    dc = {
        name: twisted_d(target, name).norm() / dscale if scale else 0.0
        for name in STRUCTURE_NAMES
    }
    return closed, harm, dc


def transgress1(target: FormField, tol: float = 1e-9) -> TransgressionResult:
    """Solve target = d(phi) with phi = d* G target."""
    closed, harm, _ = _closedness(target)
    pre = {"d_closed": closed, "harmonic_part": harm}
    if closed > tol:
        raise NotClosed(f"target is not closed (residual {closed:.3e})")
    if harm > tol:
        raise NotExact(f"target has a harmonic part (residual {harm:.3e})")
    phi = d_star(green(target))
    rec = exterior_d(phi)
    residual = _rel((rec - target).norm(), target.norm())
    return TransgressionResult(phi, residual, 1, +1.0, pre)


def transgress2(target: FormField, c: str = "I", tol: float = 1e-9) -> TransgressionResult:
    """Solve target = d d_C(chi) with chi = s2 d* d_C* G^2 target."""
    closed, harm, dc = _closedness(target)
    pre = {"d_closed": closed, "harmonic_part": harm, f"d{c}_closed": dc[c]}
    if closed > tol:
        raise NotClosed(f"target is not closed (residual {closed:.3e})")
    if harm > tol:
        raise NotExact(f"target has a harmonic part (residual {harm:.3e})")
    if dc[c] > tol:
        raise NotDCClosed(c, dc[c])
    g2 = green(green(target))
    chi = ORDER2_SIGN * d_star(twisted_d_star(g2, c))
    rec = exterior_d(twisted_d(chi, c))
    residual = _rel((rec - target).norm(), target.norm())
    return TransgressionResult(chi, residual, 2, ORDER2_SIGN, pre)


def transgress4(target: FormField, tol: float = 1e-8) -> TransgressionResult:
    """Solve target = d d_I d_J d_K(tau) with tau = G^2 (vol coefficient of target)."""
    closed, harm, dc = _closedness(target)
    pre = {"d_closed": closed, "harmonic_part": harm}
    pre.update({f"d{name}_closed": dc[name] for name in STRUCTURE_NAMES})
    if closed > tol:
        raise NotClosed(f"target is not closed (residual {closed:.3e})")
    if harm > tol:
        raise NotExact(f"target has a harmonic part (residual {harm:.3e})")
    for name in STRUCTURE_NAMES:
        if dc[name] > tol:
            raise NotDCClosed(name, dc[name])
    # admissible targets are pure top degree (the closedness conditions force
    # per-mode vol multiples); detect structural low-degree content sharply
    floor = 1e-13 * float(np.abs(target.coeffs).max(initial=0.0))
    degs = target.degrees(tol=floor)
    if degs and min(degs) < 4:
        raise DegreeTooLow(f"target has components of degree {degs}; need degree >= 4")
    tau = FormField(target.kmax)
    tau.coeffs[:, 0] = green(green(target)).coeffs[:, VOL_MASK]
    rec = quartic_differential(tau)
    residual = _rel((rec - target).norm(), target.norm())
    return TransgressionResult(tau, residual, 4, ORDER4_SIGN, pre)


def quartic_differential(f: FormField) -> FormField:
    """d d_I d_J d_K applied to f."""
    return exterior_d(twisted_d(twisted_d(twisted_d(f, "K"), "J"), "I"))


def measure_lapl_constant(modes, tol: float = 1e-10):
    """Ratio c with d d_I d_J d_K(phi) = c * vol * Delta^2(phi), per mode.

    Each probe is the real single-mode function e^{2 pi i k.xi} + conjugate.
    The operators are mode-diagonal, so one field carries every probe (the
    scalar 1 set on each k and -k), both sides are computed once, and each
    probe's ratio is read from its own two rows.  The ratio is a
    quaternionic-isotropy scalar, so it must not depend on the mode;
    InconsistentConstant signals a sign error in the operator algebra if
    the measured spread exceeds tol.

    Returns (c, report) where report lists the per-mode ratios.
    """
    modes = [tuple(int(v) for v in np.asarray(k).reshape(4)) for k in modes]
    if any(k == (0, 0, 0, 0) for k in modes):
        raise ValueError("modes must be nonzero")
    phi = FormField(max(max(abs(v) for v in k) for k in modes))
    rows = [sorted((phi.mode_index(k), phi.mode_index([-v for v in k]))) for k in modes]
    phi.coeffs[np.ravel(rows), 0] = 1.0
    # both sides live on the vol blade times each probe's mode pair
    num = quartic_differential(phi).coeffs[:, VOL_MASK]
    den = laplacian(laplacian(phi)).coeffs[:, 0]
    ratios = {}
    for k, pair in zip(modes, rows):
        vals = num[pair] / den[pair]
        spread_k = float(np.abs(vals - vals[0]).max())
        if spread_k > tol:
            raise InconsistentConstant(f"mode {k}: conjugate modes disagree by {spread_k:.3e}")
        ratios[k] = complex(vals[0])
    values = np.array(list(ratios.values()))
    c = complex(values.mean())
    spread = float(np.abs(values - c).max())
    if spread > tol or abs(c.imag) > tol:
        raise InconsistentConstant(
            f"constant varies across modes (spread {spread:.3e}, imag {c.imag:.3e})"
        )
    report = {
        "schema_version": 1,
        "constant": c.real,
        "spread": spread,
        "modes": [list(k) for k in ratios],
        "per_mode": {str(list(k)): v.real for k, v in ratios.items()},
        "note": (
            "published statements of this normalization constant disagree "
            "(16 in one display, 1 in the concluding line of its derivation); "
            "the value measured here against the exact mode-level oracle is "
            "authoritative for this convention"
        ),
    }
    return c.real, report
