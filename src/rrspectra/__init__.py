"""Closed-form quantization of the Milson and Gendenshtein potential family,
with Romanovski-Routh polynomial machinery, Darboux partners, and an
independent finite-difference verification oracle."""

# The oracle's eigenvalue backend: a numpy sine-basis Rayleigh-Ritz solve
# certified by Sturm counts.
KERNEL_BACKEND = "numpy"

from .geometry import (
    PotentialSpec,
    TangentPolySpec,
    VariableMap,
    bose_invariant_eval,
    choose_x_max,
    schwarzian_eval,
    tangent_eval,
)
from .oracle import EigenEstimate, Grid1D, count_sign_changes, lowest_levels
from .routh import (
    ComplexIndex,
    RealPolynomial,
    RouthPolynomial,
    discriminant_order2,
    inner_product,
    jacobi_complex_eval,
    ode_residual,
    real_root_count,
    real_roots,
    routh_hypergeometric_eval,
    routh_polynomial,
    routh_rodrigues,
    weight_eval,
)
from .spectral import (
    ClosedForm,
    Spectrum,
    aeh_solution,
    bound_state,
    enumerate_bound_spectrum,
    gendenshtein_params,
    lambda_of_energy,
    milson_sigma_rho,
    nodeless_scan,
    pinned_convention,
    quartic_lambda_roots,
    stevenson_identity_check,
)
from .darboux import (
    PartnerPotentialGrid,
    partner_levels,
    partner_potential,
    symmetric_irregular_solution,
)

__version__ = "0.1.0"
