"""Variable reduction by nonlinear elimination as a right preconditioner for
gradient descent, with benchmark problems and a CLI harness."""

from .errors import (
    ConfigError,
    ConstructionFailure,
    DegenerateCurvature,
    DimensionMismatch,
    LineSearchFailure,
    MaxIterReached,
    NonConvergence,
    NonFinite,
    NotDescentDirection,
    NotSPD,
    VarredError,
)
from .linalg import (
    LinOp,
    cg_solve,
    condition_number,
    spd_check,
    sym_matrix,
)
from .problems import (
    BlockPartition,
    LogSumExpProblem,
    Objective,
    QuadraticProblem,
    build_test_matrix,
)
from .elimination import (
    EliminationMap,
    EliminationResult,
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    exact_map,
    reduced_newton_operator,
)
from .optimizers import (
    ArmijoParams,
    ConvergenceRecord,
    StopRule,
    alternating_minimization,
    armijo_search,
    check_rate_bound,
    gradient_descent,
    newton_eliminated,
    optimal_step_quadratic,
    pgd_inexact,
)

__version__ = "0.1.0"
