"""BSDEs driven by Brownian motion plus compensated Poisson jumps.

Exact solvers on finite scenario trees, a least-squares Monte Carlo solver
validated against the tree oracle, sampling-based condition checks for the
drivers, and numerical evaluators for the explicit a-priori, stability and
backward nonlinear Gronwall bounds.
"""

from .bounds import (
    AprioriBound,
    BihariResult,
    PiecewiseConstantRate,
    apriori_bound,
    bihari_bound,
    bihari_transform,
    rho_catalog,
    stability_bound,
)
from .generators import (
    CheckReport,
    GeneratorSpec,
    RhoFunction,
    SamplerConfig,
    StepContext,
    jump_ordering_violator,
    builtin_generators,
    check_branch_weights,
    check_jump_ordering,
    check_growth,
    check_monotonicity,
    check_ordering,
    clamp,
    constant_coeff,
    tanh_jump_integral,
    linear_driver,
    linear_y,
    project_ball,
    shift_generator,
    truncate_generator,
    zero_generator,
)
from .levy import (
    LevyModel,
    ModelError,
    PathBundle,
    TimeGrid,
    kept_marks_mask,
    levy_norm,
    simulate_paths,
)
from .mc import BootstrapEstimate, McSolution, RegressionBasis, bootstrap_y0, solve_mc
from .terminals import make_terminal
from .tree import (
    FixedPointError,
    L2Distance,
    ScenarioTree,
    TreeSizeError,
    TreeSolution,
    build_tree,
    conditional_expectation,
    l2_distance,
    project_coarse,
    solve_backward,
    solve_truncated,
)

__all__ = [name for name in dir() if not name.startswith("_")]
