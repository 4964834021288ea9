"""Penalty-regularized smoothing of the pessimistic value function.

For penalty weight rho > 0 and regularization weight sigma > 0 define

    psi(x, y, z) = F(x,y) - rho*(f(x,y) - f(x,z)) + (sigma/2)*||z||^2 - sigma*<y, z>.

The smoothed value function is phi_{rho,sigma}(x) = min_z max_y psi(x, y, z)
over Y x Y. psi is strongly concave in y (modulus mu, inherited from F when
the standing assumptions hold) and strongly convex in z (modulus sigma), so
the saddle point is unique and the min and max interchange.

The partial gradients of psi are exposed as first-class direction
operations, which the two half-steps (saddle._step_yz and solver._step_x),
the oracle's gradient grad_phi and the tests share:

    direction_y = grad_y psi     (ascent direction for y)
    direction_z = grad_z psi     (descent direction for z)
    direction_x(x, y', z')  = grad_x F(x,y') - rho*(grad_x f(x,y') - grad_x f(x,z'))

direction_x evaluated at the exact saddle (y*, z*) is the gradient of
phi_{rho,sigma} at x.

eval_psi and operator_T check their vectors with the package's one vector
checker, problem._as_vector; the direction operations check nothing, as
their callers pass vectors checked where they entered.

Every operation here, and the saddle oracle after them, takes the weights
as pr: anything with positive, finite rho and sigma. That is a PenaltyReg,
which checks a user-given pair, or a step's Params from solver.params_at,
which checked its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .problem import _as_vector, _dot


@dataclass(frozen=True)
class PenaltyReg:
    """Penalty/regularization weight pair (rho, sigma), both positive."""

    rho: float
    sigma: float

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ContractViolation("rho must be positive and finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ContractViolation("sigma must be positive and finite")


def eval_psi(problem, pr, x, y, z):
    """Value of the regularized objective psi at (x, y, z)."""
    x = _as_vector(x, problem.n_x, "x")
    y = _as_vector(y, problem.n_y, "y")
    z = _as_vector(z, problem.n_y, "z")
    val = (
        problem.F(x, y)
        - pr.rho * (problem.f(x, y) - problem.f(x, z))
        + 0.5 * pr.sigma * float(_dot(z, z))
        - pr.sigma * float(_dot(y, z))
    )
    return float(val)


def direction_y(problem, pr, x, y, z):
    # grad_y psi = grad_y F - rho*grad_y f - sigma*z
    return problem.grad_F_y(x, y) - pr.rho * problem.grad_f_y(x, y) - pr.sigma * z


def direction_z(problem, pr, x, y, z):
    # grad_z psi = rho*grad_y f(x, z) + sigma*(z - y)
    return pr.rho * problem.grad_f_y(x, z) + pr.sigma * (z - y)


def direction_x(problem, pr, x, y_next, z_next):
    # gradient of psi in x at frozen (y', z'); equals grad phi_{rho,sigma}
    # when (y', z') is the exact saddle
    return problem.grad_F_x(x, y_next) - pr.rho * (
        problem.grad_f_x(x, y_next) - problem.grad_f_x(x, z_next)
    )


def operator_T(problem, pr, x, u):
    """Saddle operator T(x, u) = (-grad_y psi, grad_z psi) on stacked u=(y,z).

    T is strongly monotone in u with modulus min over blocks
    (mu on the y block, sigma on the z block) and Lipschitz with constant
    at most max(lip_F + rho*lip_f + sigma, rho*lip_f + 2*sigma).
    Its unique zero (with projections, its fixed point) is the saddle of psi.

    The (y, z) step, saddle._step_yz, steps the halves with direction_y
    and direction_z directly; this stacked form serves the oracle's
    step-size estimate (estimate_T_lipschitz) and outside callers.
    """
    n_y = problem.n_y
    u = _as_vector(u, 2 * n_y, "u")
    x = _as_vector(x, problem.n_x, "x")
    y, z = u[:n_y], u[n_y:]
    return np.concatenate(
        (-direction_y(problem, pr, x, y, z), direction_z(problem, pr, x, y, z))
    )
