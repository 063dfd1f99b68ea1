"""convact: a convolution-based variational toolkit for damped dynamical
systems — fractional-calculus operators, convolutional integration-by-parts
checks, competing action functionals, and a global-in-time stationarity
solver in mixed variables."""

from .actions import (
    ActionKind,
    ResidualReport,
    action_value,
    action_variation,
    bateman_residuals,
    el_residuals,
    gurtin_forcing,
    hamilton_second_variation,
    make_direction_battery,
    rayleigh_variation,
)
from .fracops import (
    CompositionKind,
    Side,
    composition_residual,
    frac_deriv,
    frac_integral,
    gl_weights,
)
from .grid import (
    Grid,
    Signal,
    convolve,
    convolve_at_end,
    frac_order,
    inner_product,
    reflect,
    sample,
)
from .identities import (
    IdentityKind,
    IdentityReport,
    complementary_conv,
    complementary_inner,
    cubic_path_profile,
    ibp_residual,
    inner_u_udot,
    run_identity_sweep,
    trig_profile,
)
from .models import (
    HarmonicForcing,
    MdofModel,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_bar_1d,
    build_shear_building,
    mdof_from_json,
    mdof_mixed_initials,
    mdof_oracle,
    mdof_to_json,
    sdof_as_mdof,
)
from .stationarity import (
    ConvergenceTable,
    QuadraticForm,
    SingularSystemError,
    SolveReport,
    assemble,
    convergence_study,
    solve_stationary,
)

__version__ = "0.1.0"
