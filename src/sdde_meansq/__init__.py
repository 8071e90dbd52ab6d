"""Mean-square asymptotics of scalar linear stochastic delay equations."""

from .config import PhiSpec, aligned_horizon, aligned_step, parse_config
from .measures import SignedMeasure
from .montecarlo import (
    SimulationConfig,
    simulate_mean_square,
    simulate_single_path,
    variation_of_constants_residual,
)
from .pipeline import analyze, renewal_mean_square, run_pipeline
from .renewal import RenewalProblem, solve_renewal
from .resolvent import GridTrace, compute_resolvent, deterministic_solution, l2_norm_sq_tail
from .stability import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    classify,
    detect_degenerate,
    example_norm_formula,
    g_of_r_trace,
    solve_b0,
    solve_kappa_supercritical,
)

#: the library names that the README lists; everything else is reached
#: through its module
__all__ = [
    "CRITICAL",
    "GridTrace",
    "PhiSpec",
    "RenewalProblem",
    "SUBCRITICAL",
    "SUPERCRITICAL",
    "SignedMeasure",
    "SimulationConfig",
    "aligned_horizon",
    "aligned_step",
    "analyze",
    "classify",
    "compute_resolvent",
    "deterministic_solution",
    "detect_degenerate",
    "example_norm_formula",
    "g_of_r_trace",
    "l2_norm_sq_tail",
    "parse_config",
    "renewal_mean_square",
    "run_pipeline",
    "simulate_mean_square",
    "simulate_single_path",
    "solve_b0",
    "solve_kappa_supercritical",
    "solve_renewal",
    "variation_of_constants_residual",
]
__version__ = "0.1.0"
