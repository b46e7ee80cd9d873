"""Toolkit for one-dimensional ergodic diffusions: hitting-time moments via
the iterated moment recursion, closed-form polynomial deviation bounds for
time averages, and a regeneration-aware Monte Carlo validator."""

__version__ = "0.1.0"

from .bounds import (BoundBreakdown, DeviationConstants, DeviationReport,
                     ergodic_bound_l1, ergodic_bound_sup, tail_power_integral,
                     head_power_integral, moment_lower_bound, moment_upper_bound,
                     nt_deviation_bound, p_star_bracket)
from .diffusion import (AssumptionParams, DiffusionModel, bounded_drift,
                        brownian, ou)
from .kac import (MomentTable, exit_moment_table, hitting_moment_table,
                  mean_exit_time, simultaneity_check)
from .quadrature import (QuadratureConfig, QuadratureResult, integrate_finite,
                         integrate_semi_infinite)
from .simulator import (InitialLaw, RegenerationSample, SimConfig,
                        estimate_constants, estimate_deviation_prob,
                        estimate_hitting_moments, simulate_paths)

__all__ = [
    "AssumptionParams", "BoundBreakdown", "DeviationConstants",
    "DeviationReport", "DiffusionModel", "InitialLaw", "MomentTable",
    "QuadratureConfig", "QuadratureResult", "RegenerationSample", "SimConfig",
    "bounded_drift", "brownian", "ergodic_bound_l1", "ergodic_bound_sup",
    "estimate_constants", "estimate_deviation_prob", "estimate_hitting_moments", "exit_moment_table", "hitting_moment_table", "integrate_finite", "integrate_semi_infinite",
    "tail_power_integral", "head_power_integral", "mean_exit_time",
    "moment_lower_bound", "moment_upper_bound", "nt_deviation_bound", "ou",
    "p_star_bracket", "simulate_paths",
    "simultaneity_check",
]
