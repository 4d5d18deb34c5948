"""Spectral quaternionic Hodge calculus on the flat 4-torus.

Exact exterior/Clifford fiber algebra, the hyperkahler operator algebra
d, d_I, d_J, d_K on truncated Fourier form fields, constructive
transgression at orders 1, 2 and 4, and zeta-regularized torsion
invariants with cross-validated analytic continuations.
"""

from .exterior import STAR, VOL, interior, one_form, wedge
from .fields import FormField, random_field, single_mode
from .quaternionic import (
    I,
    J,
    K,
    ad_matrix,
    group_matrix,
    invariance_defect,
    kahler_form,
    lefschetz_dual_matrix,
    lefschetz_matrix,
    type_projector_matrix,
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
    "STAR", "VOL", "interior", "one_form", "wedge",
    "FormField", "random_field", "single_mode",
    "I", "J", "K", "ad_matrix", "group_matrix",
    "invariance_defect", "kahler_form", "lefschetz_dual_matrix",
    "lefschetz_matrix", "type_projector_matrix",
    "d_star", "exterior_d", "green", "harmonic_project",
    "kodaira_suite", "laplacian", "quaternionic_d", "twisted_d",
    "TransgressionResult", "measure_lapl_constant",
    "transgress1", "transgress2", "transgress4",
    "ZetaResult", "beta0", "hyper_torsion", "log_det_prime",
    "regularized_integral", "torsion_T",
    "__version__",
]
