"""Desk-scale numerical workbench for convolution operators, norm
inequalities and approximation constants on the unit circle."""

from .constants import (
    ConstantReport,
    cpq,
    franchetti_cp,
    gamma_pq,
    interpolation_upper,
    lambda_pq,
)
from .grid import (
    CircleGrid,
    FourierCoeffs,
    SampledFunction,
    analyze,
    make_grid,
    rotate_samples,
    synthesize,
    translate,
)
from .kernels import (
    KernelSpec,
    fejer_kernel,
    fejer_multipliers,
    kernel_l1_norm,
    poisson_kernel,
    poisson_multipliers,
)
from .operators import (
    OperatorRep,
    analytic_restriction,
    backward_shift,
    convolution_operator,
    identity_minus,
    identity_operator,
    substitute_fm,
)
from .opnorm import (
    DEFAULT_SEED,
    NormEstimate,
    brute_force_oracle,
    exact_norm_endpoint,
    exact_norm_p2,
    lower_bound_certificate,
    operator_norm,
    power_method_pnorm,
    subspace_norm,
)
from .outer import IsometryReport, WeightSpec, conjugate_function, isometry_check, outer_function
from .spaces import (
    INF,
    Lorentz,
    Lp,
    Orlicz,
    PhiSpec,
    WeightedLp,
    decreasing_rearrangement,
    hp_norm,
    holder_conjugate,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    orlicz_amemiya_norm,
    orlicz_modular,
    phi_from_rho,
)

__version__ = "0.1.0"
