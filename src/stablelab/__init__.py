"""stablelab: a desk-scale laboratory for symmetric stable processes.

Monte Carlo machinery (exact-law increments, exit times, killed and
time-changed functionals, semigroup-identity checks) paired with dense
matrix realizations of the same generators (fractional powers, weights,
killing) for spectral diagnostics: compactness onset, heat-trace growth,
L^p rate comparisons and weight-exponent transitions.

Convention reminder: alpha = 2 is Brownian motion with generator
(1/2)*Laplacian (variance h per coordinate per step); alpha < 2 is the
process with characteristic exponent |xi|^alpha, whose generator is the
unscaled -(-Laplacian)^(alpha/2).  Formulas in each module say which
convention they assume.

scipy is imported inside the functions that call it, so importing the
package loads numpy only and a Monte Carlo run never pays for scipy.
"""

from .analytics import (
    JParams,
    envelope_constant_check,
    gamma_fn,
    green_constant,
    green_function,
    j_integral,
    r0_mu_bound_check,
)
from .functionals import (
    EstimatorResult,
    KillingPotential,
    TailBoundError,
    TimeChangeClock,
    TimeChangeWeight,
    UnsupportedConfiguration,
    estimate_killed_lifetime_mean,
    estimate_mean_exit_time,
    estimate_resolvent_r1,
    estimate_survival,
    exit_time,
    exit_time_scan,
    feynman_kac_weight,
    time_change_clock,
)
from .geometry import (
    Ball,
    Box,
    Domain,
    FullSpace,
    Interval,
    UnionOfBalls,
    UnionOfIntervals,
    disjoint_shrinking_intervals,
    shrinking_ball_domain,
    shrinking_radius,
)
from .identities import (
    BoundaryTermEstimate,
    DynkinResidual,
    TNormBound,
    boundary_term,
    dynkin_residual,
    estimate_T_norm,
    subprocess_commute_check,
    t_norm_bound_check,
)
from .process import (
    PathBatch,
    PathSample,
    ProcessSpec,
    sample_increments,
    sample_path,
    sample_path_batch,
    sample_subordinator_increment,
    stream,
)
from .spectral import (
    GeneratorMatrix,
    Grid1D,
    LpRates,
    compactness_diagnostic,
    dirichlet_laplacian,
    fractional_power,
    heat_trace,
    killed_generator,
    lp_spectral_bound_compare,
    part_generator,
    semigroup_matrix,
    union_interval_trace,
    weighted_generator,
    weighted_transition_study,
)

__version__ = "0.1.0"
