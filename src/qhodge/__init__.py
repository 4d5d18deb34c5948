"""Spectral quaternionic Hodge calculus on the flat 4-torus.

Exact exterior/Clifford fiber algebra, the hyperkahler operator algebra
d, d_I, d_J, d_K on truncated Fourier form fields, constructive
transgression at orders 1, 2 and 4, and zeta-regularized torsion
invariants with cross-validated analytic continuations.
"""

from .exterior import Multivector, VOL, hodge_star, interior, wedge
from .fields import FormField, random_field, single_mode, zero_field
from .quaternionic import (
    I,
    J,
    K,
    Quaternion,
    ad_action,
    group_action,
    invariance_defect,
    kahler_form,
    lefschetz,
    lefschetz_dual,
    type_projector,
)
from .operators import (
    d_star,
    exterior_d,
    green,
    harmonic_project,
    kodaira_suite,
    laplacian,
    quaternionic_d,
    twisted_d,
)
from .transgression import (
    TransgressionResult,
    measure_lapl_constant,
    transgress1,
    transgress2,
    transgress4,
)
from .zeta import (
    ZetaResult,
    beta0,
    hyper_torsion,
    log_det_prime,
    regularized_integral,
    torsion_T,
)

__version__ = "0.1.0"

__all__ = [
    "Multivector", "VOL", "hodge_star", "interior", "wedge",
    "FormField", "random_field", "single_mode", "zero_field",
    "I", "J", "K", "Quaternion", "ad_action", "group_action",
    "invariance_defect", "kahler_form", "lefschetz", "lefschetz_dual",
    "type_projector",
    "d_star", "exterior_d", "green", "harmonic_project",
    "kodaira_suite", "laplacian", "quaternionic_d", "twisted_d",
    "TransgressionResult", "measure_lapl_constant",
    "transgress1", "transgress2", "transgress4",
    "ZetaResult", "beta0", "hyper_torsion", "log_det_prime",
    "regularized_integral", "torsion_T",
    "__version__",
]
