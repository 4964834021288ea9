"""Saddle-point oracle for the smoothed value function.

phi_{rho,sigma}(x) and its gradient are defined through the unique saddle
(y*, z*) of psi(x, ., .) over Y x Y. The oracle finds it by iterating the
projected fixed-point map

    u  <-  Proj_{Y x Y}(u - beta * T(x, u)),      u = (y, z) stacked,

and reports the step-scaled fixed-point residual

    r(u) = ||u - Proj(u - beta*T(x,u))|| / beta,

which reduces to ||T(x, u)|| away from active constraints and is therefore
essentially step-size invariant there.

Each iteration is _step_yz, SiPBA's own (y, z) update, which sipba_step
takes once per k. x and u0 are checked once, on entry; operator_T serves
the step-size estimate.

Step size. The certified contraction step (see lemma_step_bound) scales like
sigma/(rho*lip_f)^2, which underflows any usable range once rho is large;
worst-case Lipschitz constants over the whole domain are far larger than the
curvature the iteration actually sees. The default here instead estimates
the local Lipschitz constant of T(x, .) by power iteration on finite
differences (first-order access only) and takes beta = 1/L_est, with a
stall safeguard that halves beta if the residual stops improving. Along the
dominant mode of T that step cancels the error in one iteration where
1/(2*L_est) halves it, and it still contracts while L_est stays above half
of T's largest eigenvalue. Callers can pass an explicit beta to pin the
behavior, e.g. a lemma_step_bound value when exercising the certified
contraction. The double-loop baseline passes 1/(2*L_est) from its own
estimate: at compare's fixed budget the larger step buys it more outer
iterations, which cost more than the inner ones it saves.

Starts. With no u0, a solve starts at the projected zero vector
(default_start), and with no beta it estimates the step at its start: a
30-step power iteration from a fixed-seed vector, so it is deterministic.
The oracle keeps no state between solves: a sequence of nearby solves
chooses its own starts and steps and passes both (see diagnostics.snapshot
and run_double_loop_baseline).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolation,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from .problem import _as_vector, _norm, _scalar
from .smoothing import (direction_x, direction_y, direction_z, eval_psi,
                        operator_T)

_POWER_SEED = 0x51B8A
_COLD_ITERS = 30  # power iterations from the fixed-seed vector
_WARM_ITERS = 3   # power iterations from a previous dominant direction


@dataclass(frozen=True)
class SaddlePoint:
    """Oracle output: the saddle estimate and how it was reached.

    beta is the step the solve ended with, halvings included.
    """

    y_star: np.ndarray
    z_star: np.ndarray
    residual: float
    iterations: int
    beta: float
    converged: bool

    @property
    def u(self):
        return np.concatenate((self.y_star, self.z_star))


def lemma_step_bound(problem, pr):
    """Largest certified contraction step: min(sigma, mu) / (lip_F + rho*lip_f + 2*sigma)^2.

    Any fixed step strictly below this bound contracts ||u - u*||^2 by the
    factor (1 - min(sigma, mu)*beta) per projected iteration. Undefined for
    problems with mu = 0 (assumption violation recorded on the problem).
    """
    if problem.mu <= 0:
        raise ContractViolation(
            "certified step bound needs mu > 0; this problem records mu=0 (%s)"
            % (problem.assumption_note,)
        )
    sig_bar = min(pr.sigma, problem.mu)
    lip = problem.lip_F + pr.rho * problem.lip_f + 2.0 * pr.sigma
    # lip * lip, not lip**2: pow raises OverflowError instead of giving inf
    bound = sig_bar / (lip * lip)
    if not (bound > 0 and np.isfinite(bound)):
        raise ParameterOverflowError("certified step bound underflowed (rho too large)")
    return bound


def default_start(problem):
    """Default oracle start: projection of the zero vector onto Y, duplicated."""
    return problem.set_Y.project(np.zeros((2, problem.n_y))).ravel()


class LipschitzEstimate(NamedTuple):
    """A step-size estimate: the value, its dominant direction and cost."""

    value: float
    vector: np.ndarray
    calls: int  # operator_T calls spent


def estimate_T_lipschitz(problem, pr, x, u0, v0=None):
    """Power-iteration estimate of the local Lipschitz constant of T(x, .).

    Power iteration on forward differences of step 1e-6 * (1 + ||u0||):
    30 iterations from a fixed-seed vector (cold), or 3 from v0, the
    dominant direction of an earlier estimate (warm). A v0 of zero or
    non-finite norm, or a warm run that yields no estimate, falls back to
    the cold start. The differences are exact for operators affine in u
    (every benchmark here), so the estimate lands between the extreme
    singular values of the Jacobian; solve_saddle's stall safeguard covers
    any underestimate. Both starts are deterministic, so repeated calls are
    bit-identical.

    Returns a LipschitzEstimate: max(estimate, sigma, 1e-12), the last unit
    direction, and the operator_T calls spent (31 cold, 4 warm).
    """
    eps = 1e-6 * (1.0 + float(_norm(u0)))
    t0 = operator_T(problem, pr, x, u0)
    calls = 1
    n0 = 0.0 if v0 is None else float(_norm(v0))
    starts = [(_COLD_ITERS, None)]
    if 0.0 < n0 < np.inf:
        starts.insert(0, (_WARM_ITERS, v0 / n0))
    for iters, v in starts:
        if v is None:
            rng = np.random.Generator(np.random.Philox(_POWER_SEED))
            v = rng.standard_normal(u0.size)
            v /= max(float(_norm(v)), 1e-300)
        est = 0.0
        for _ in range(iters):
            w = (operator_T(problem, pr, x, u0 + eps * v) - t0) / eps
            calls += 1
            nw = float(_norm(w))
            if not np.isfinite(nw) or nw == 0.0:
                break
            est = nw
            v = w / nw
        if est > 0.0:
            break
    return LipschitzEstimate(max(est, float(pr.sigma), 1e-12), v, calls)


def _step_yz(problem, pr, beta, x, y, z):
    """One projected (y, z) step at x; returns (y+, z+, dy, dz), with
    y+ = P_Y(y + beta*dy), z+ = P_Y(z - beta*dz), dy = direction_y and
    dz = direction_z at (x, y, z). T(x, u) is (-dy, dz) on u = (y, z)."""
    dy = direction_y(problem, pr, x, y, z)
    dz = direction_z(problem, pr, x, y, z)
    return (problem.set_Y.project(y + beta * dy),
            problem.set_Y.project(z - beta * dz), dy, dz)


def solve_saddle(problem, pr, x, tol=1e-10, max_iter=10**6, u0=None, beta=None):
    """Find the saddle of psi(x, ., .) over Y x Y by projected fixed-point steps.

    Parameters
    ----------
    tol : float
        Stop once the step-scaled fixed-point residual is <= tol.
    u0 : array, optional
        Start, stacked (y, z); read, never written. Defaults to the
        projected zero vector.
    beta : float, optional
        Explicit step size. Default: 1/L_est, from a cold
        estimate_T_lipschitz at the start (31 operator_T calls). beta
        stays a float for the residual, the underflow check and
        SaddlePoint.beta; _step_yz takes a _scalar copy of it, made again
        after each halving.

    A solve has four exits. It returns a converged SaddlePoint once the
    residual is <= tol. It raises SaddleConvergenceError if a halved step
    underflows (u - beta*T rounds back to u where the initial step still
    moves it; the residual reported is ||T||), if the step stalls or
    diverges through 60 halvings, or if max_iter is exhausted; the error
    carries the last iterate in ``saddle``, with converged False.
    """
    x = _as_vector(x, problem.n_x, "x")
    u = default_start(problem) if u0 is None else _as_vector(
        u0, 2 * problem.n_y, "u0")
    if beta is None:
        beta = 1.0 / estimate_T_lipschitz(problem, pr, x, u).value
    beta = float(beta)
    if not (beta > 0 and np.isfinite(beta)):
        raise ParameterOverflowError("oracle step size underflowed: beta=%r" % beta)

    beta0 = beta
    step = _scalar(beta)  # _step_yz's beta
    y, z = u[:problem.n_y], u[problem.n_y:]

    def still(b):  # the step at b rounds back to (y, z)
        return np.array_equal(y + b * dy, y) and np.array_equal(z - b * dz, z)

    def failure(message, res, it):  # the last iterate (y, z), unconverged
        return SaddleConvergenceError(message, saddle=SaddlePoint(
            y.copy(), z.copy(), res, it, beta, False))

    best, since_best, halvings, res = np.inf, 0, 0, np.inf
    for it in range(1, max_iter + 1):
        y1, z1, dy, dz = _step_yz(problem, pr, step, x, y, z)
        res = float(_norm(np.concatenate((y - y1, z - z1)))) / beta
        finite = math.isfinite(res)
        if finite and res <= tol:
            if (res == 0.0 and beta < beta0 and still(beta)
                    and not still(beta0)):
                # halving, not convergence, stopped u
                t_norm = float(_norm(np.concatenate((dy, dz))))
                raise failure(
                    "saddle oracle step underflow after %d iterations: "
                    "beta=%.3e (%d halvings) no longer moves u while "
                    "||T||=%.3e (tol %.3e)" % (it, beta, halvings, t_norm, tol),
                    t_norm, it)
            return SaddlePoint(y1.copy(), z1.copy(), res, it, beta, True)
        if finite:
            y, z = y1, z1
            # stall safeguard: no residual improvement over a long window
            # means the fixed step is too aggressive for this instance
            if res < 0.9999 * best:
                best, since_best = res, 0
                continue
            since_best += 1
            if since_best < 200:
                continue
        # halve the step: it stalled, or it overshot badly (a non-finite
        # residual), and then the next iteration retries from the same u
        halvings += 1
        if halvings > 60:
            raise failure(
                "saddle oracle stalled after %d iterations (60 step "
                "halvings) with residual %.3e (tol %.3e)" % (it, res, tol)
                if finite else "oracle diverged even after step backoff",
                res, it)
        beta *= 0.5
        step = _scalar(beta)
        best, since_best = np.inf, 0
    raise failure("saddle oracle hit max_iter=%d with residual %.3e (tol %.3e)"
                  % (max_iter, res, tol), res, max_iter)


def eval_phi(problem, pr, x, tol=1e-10):
    """Smoothed value phi_{rho,sigma}(x) = psi(x, y*, z*) at the oracle saddle."""
    sp = solve_saddle(problem, pr, x, tol=tol)
    return eval_psi(problem, pr, x, sp.y_star, sp.z_star)


def grad_phi(problem, pr, x, tol=1e-10):
    """Gradient of phi_{rho,sigma} at x: direction_x at the oracle saddle.

    Valid because the saddle is unique, so the value function inherits the
    partial x-gradient of psi at (y*, z*).
    """
    x = _as_vector(x, problem.n_x, "x")
    sp = solve_saddle(problem, pr, x, tol=tol)
    return direction_x(problem, pr, x, sp.y_star, sp.z_star)
