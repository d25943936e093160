"""Spherically symmetric dyons of the minimally gauged Skyrme model.

Numerically constructs the radial profiles (a, f, g) solving the reduced
boundary-value problem on [0, R], by damped Newton with continuation in
the electric boundary value q and by a constrained gradient flow, and
computes/verifies the analytic properties of the solutions: topological
and electric charges, pointwise bounds, monotonicity, decay rates, tail
laws, and energy inequalities.
"""

from .errors import (
    DecayWindowError,
    NumericError,
    ParameterError,
    RegionError,
    SkyrmeDyonError,
)
from .grid import RadialGrid, build_grid
from .inner import constraint_residual, solve_inner_g
from .model import (
    ActionBreakdown,
    FieldProfile,
    ModelParams,
    action_breakdown,
    admissible_q_max,
    e2_energy,
    residuals,
    solution_properties_ok,
    validate_params,
)
from .observables import (
    ObservableReport,
    TailConstants,
    electric_charge,
    fit_decay_rate,
    gamma_theory,
    observables,
    skyrme_charge_closed,
    skyrme_charge_numeric,
    tail_constants,
)
from .solver import (
    SolveConfig,
    SolveReport,
    continuation_solve,
    flow_solve,
    initial_guess,
    newton_solve,
    warm_start,
)
from .verify import Tolerances, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ActionBreakdown",
    "DecayWindowError",
    "FieldProfile",
    "ModelParams",
    "NumericError",
    "ObservableReport",
    "ParameterError",
    "RadialGrid",
    "RegionError",
    "SkyrmeDyonError",
    "SolveConfig",
    "SolveReport",
    "TailConstants",
    "Tolerances",
    "VerifyReport",
    "action_breakdown",
    "admissible_q_max",
    "build_grid",
    "constraint_residual",
    "continuation_solve",
    "e2_energy",
    "electric_charge",
    "fit_decay_rate",
    "flow_solve",
    "gamma_theory",
    "initial_guess",
    "newton_solve",
    "observables",
    "residuals",
    "run_suite",
    "skyrme_charge_closed",
    "skyrme_charge_numeric",
    "solution_properties_ok",
    "solve_inner_g",
    "tail_constants",
    "validate_params",
    "warm_start",
]
