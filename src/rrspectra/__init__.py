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
    choose_x_max,
    schwarzian_eval,
    tangent_eval,
)
from .oracle import EigenEstimate, Grid1D, lowest_levels
from .routh import (
    ComplexIndex,
    RealPolynomial,
    RouthPolynomial,
    discriminant_order2,
    ode_residual,
    real_root_count,
    real_roots,
    routh_polynomial,
    routh_rodrigues,
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
)

__version__ = "0.1.0"
