"""Fundamental solution matrices and representation formulas for linear
Caputo fractional differential systems with variable coefficients.

The core objects: GridFn (uniform-grid sampled functions), CauchyProblem
(order, coefficients, forcing, and a history segment), FundamentalField
(the matrix field on the time triangle), and Solution.  solve_F builds the
field; solve_direct, represent_pc, represent_gc, and represent_gc_compact
produce solutions that must all agree, which the checks suite enforces.
"""

from .cauchy import (METHODS, Solution, b_star, equation_residual,
                     gc_compact_identity_residual, psi_star, represent_gc,
                     represent_gc_compact, represent_pc, restart_grid,
                     solve_direct)
from .errors import (DomainError, GridMismatchError, NonConvergenceError,
                     PreconditionError, ProblemSpecError, SingularSystemError,
                     ToleranceNotMetError)
from .fundamental import (AprioriBounds, FundamentalField, TriangleGrid,
                          bounds, solve_F, solve_F_picard, solve_G_dual,
                          z_value)
from .gridfn import GridFn, read_csv, write_csv
from .operators import (OpConstants, caputo_derivative, fractional_integral,
                        j_operator, kernel_K, op_constants, r_operator)
from .problem import CauchyProblem, Coefficient, Forcing, History
from .special import MLParams, gamma, log_gamma, mittag_leffler, ml_scalar

__version__ = "0.1.0"

__all__ = [
    "METHODS", "Solution", "b_star", "equation_residual",
    "gc_compact_identity_residual", "psi_star", "represent_gc",
    "represent_gc_compact", "represent_pc", "restart_grid", "solve_direct",
    "DomainError", "GridMismatchError", "NonConvergenceError",
    "PreconditionError", "ProblemSpecError", "SingularSystemError",
    "ToleranceNotMetError",
    "AprioriBounds", "FundamentalField", "TriangleGrid", "bounds",
    "solve_F", "solve_F_picard", "solve_G_dual", "z_value",
    "GridFn", "read_csv", "write_csv",
    "OpConstants", "caputo_derivative", "fractional_integral", "j_operator",
    "kernel_K", "op_constants", "r_operator",
    "CauchyProblem", "Coefficient", "Forcing", "History",
    "MLParams", "gamma", "log_gamma", "mittag_leffler", "ml_scalar",
    "__version__",
]
