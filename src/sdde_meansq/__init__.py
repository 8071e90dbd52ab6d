"""Mean-square asymptotics of scalar linear stochastic delay equations."""

from .config import (
    McSettings,
    PhiSpec,
    ProblemSpec,
    aligned_horizon,
    aligned_step,
    config_hash,
    parse_config,
    serialize_spec,
    with_overrides,
)
from .errors import (
    AtomAlignmentError,
    ConfigurationError,
    GridRangeError,
    NumericalError,
    ToolError,
)
from .measures import Segment, SignedMeasure, apply_functional, total_variation
from .montecarlo import (
    MomentEstimate,
    PathRecord,
    SimulationConfig,
    simulate_mean_square,
    simulate_single_path,
    variation_of_constants_residual,
    verify_variation_of_constants,
)
from .pipeline import Analysis, analyze, renewal_mean_square, run_pipeline
from .renewal import RenewalProblem, mean_square_trace, solve_renewal
from .resolvent import (
    GridTrace,
    ResolventTable,
    SolutionTable,
    compute_resolvent,
    decay_rate_estimate,
    deterministic_solution,
    l2_norm_sq_tail,
)
from .stability import (
    CRITICAL,
    DEGENERATE,
    SUBCRITICAL,
    SUPERCRITICAL,
    UNCERTIFIED,
    StabilityReport,
    classify,
    detect_degenerate,
    example_norm_formula,
    g_of_r_trace,
    kernel_first_moment,
    limit_constant,
    solution_functional_trace,
    solve_b0,
    solve_kappa_supercritical,
    solve_theta_subcritical,
    tilted_kernel_mass,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
