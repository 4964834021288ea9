"""Pessimistic bilevel optimization via a smoothed value function.

Library layout:

* problem: problem containers, projection operators, gradient checking
* smoothing: the regularized objective psi, its direction operations
* saddle: oracle for the smoothed value phi_{rho,sigma} and its gradient
* solver: the single-loop method plus the double-loop reference
* diagnostics: oracle snapshot, relative error, merit and sandwich
  instrumentation
* benchmarks: quadratic testbed, closed-form synthetic family,
  hyper-representation
* cli: the `sipba` command-line benchmark harness
"""

from .errors import (
    ContractViolation,
    DivergenceError,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from .problem import (
    Ball,
    BilevelProblem,
    Box,
    FullSpace,
    ProjectableSet,
    check_gradients,
)
from .smoothing import (
    PenaltyReg,
    direction_x,
    direction_y,
    direction_z,
    eval_psi,
    operator_T,
)
from .saddle import (
    SaddlePoint,
    default_start,
    estimate_T_lipschitz,
    eval_phi,
    grad_phi,
    lemma_step_bound,
    solve_saddle,
)
from .solver import (
    IterateState,
    RunResult,
    ScheduleParams,
    initial_state,
    params_at,
    run,
    run_double_loop_baseline,
    sipba_step,
    with_gradient_counter,
)
from .diagnostics import (
    SandwichReport,
    Snapshot,
    merit_value,
    relative_error,
    relative_error_denominator,
    sandwich_check,
    snapshot,
)
from .benchmarks import (
    HyperRepData,
    SyntheticProblem,
    analytic_saddle,
    closed_form_phi,
    closed_form_y_star,
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    hyper_rep_test_loss,
    quadratic_init,
    quadratic_testbed,
    synthetic_problem,
)

__version__ = "0.1.0"
