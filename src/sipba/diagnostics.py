"""Convergence diagnostics measured against the saddle oracle.

These quantities instrument a run without influencing it: a snapshot of an
iterate against one oracle solve (smoothed value, distance of the inner pair
to the exact saddle, and the projected-gradient stationarity residual of the
smoothed value function; when the caller passes the run's previous snapshot,
the solve starts at the saddle path extrapolated from the last three
snapshots' saddles, see predicted_start, and carries the previous solve's
step; a run's first solve is the oracle's default one), a relative error to
a known optimum (its denominator, the start's squared distance to the
optimum, is formed and checked once per run and passed to every call), a
merit value combining value gap and tracking error, and the two-sided
sandwich between the smoothed and the exact value function.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ContractViolation
from .problem import _as_vector
from .saddle import SaddlePoint, solve_saddle
from .smoothing import PenaltyReg, direction_x, eval_psi
from .solver import _finite, params_at


def _vec(v):
    # np.atleast_1d returns an ndarray of one or more dimensions itself; skip
    # the call for those
    return v if isinstance(v, np.ndarray) and v.ndim else np.atleast_1d(v)


def relative_error_denominator(x0, y0, x_star, y_star):
    """||x0-x*||^2 + ||y0-y*||^2, the denominator of relative_error.

    Row-wise for blocks: with x0, y0 of shape (S, dim) it returns the S
    denominators, each equal bit for bit to the call on that row alone; a
    single start gives a numpy float. Form it once per start (or batch of
    starts) and pass it to every relative_error call of that run.

    Raises ContractViolation if a start coincides with the optimum (a zero
    denominator), so that check runs once, where the denominator is formed.
    """
    xs, ys = _vec(x_star), _vec(y_star)
    dx, dy = _vec(x0) - xs, _vec(y0) - ys
    den = np.vecdot(dx, dx) + np.vecdot(dy, dy)
    if not np.all(den):
        raise ContractViolation(
            "relative error undefined: initialization equals the optimum"
        )
    return den


def relative_error(x, y, x_star, y_star, den):
    """(||x-x*||^2 + ||y-y*||^2) / den, den from relative_error_denominator.

    With den = relative_error_denominator(x0, y0, x_star, y_star) this is
    the error relative to the start (x0, y0); translation-invariant.
    Row-wise for blocks: with x, y of shape (S, dim) and den of shape (S,)
    it returns the S relative errors as an array, each equal bit for bit to
    the call on that row alone; a single point gives a float. den is taken
    as is: the zero check ran where it was formed.
    """
    xs, ys = _vec(x_star), _vec(y_star)
    dx, dy = _vec(x) - xs, _vec(y) - ys
    err = (np.vecdot(dx, dx) + np.vecdot(dy, dy)) / den
    return float(err) if err.ndim == 0 else err


@dataclass(frozen=True)
class Snapshot:
    """An iterate measured against the oracle saddle at its (rho, sigma)."""

    phi: float            # smoothed value phi_{rho,sigma}(x)
    tracking_err: float   # ||(y, z) - (y*, z*)||
    stat_residual: float  # ||x - Proj_X(x - alpha*grad phi_{rho,sigma}(x))|| / alpha
    saddle: SaddlePoint   # the oracle solve
    rho: float            # the penalty it solved at
    trail: tuple          # (k, u*) of at most the last 3 saddles, oldest first


def predicted_start(problem, trail, k):
    """Oracle start at step k from a trail of (k_j, u_j) saddles; None if empty.

    With two or more nodes this is the Lagrange polynomial through them
    (distinct k_j, oldest first) evaluated at k, projected onto Y x Y half by
    half: through three nodes at equal gaps the weights are (1, -3, 3), and
    the actual k_j weight an uneven gap. A prediction that is not finite
    falls back to the newest saddle, and so does a trail of one node.
    """
    if not trail:
        return None
    last = trail[-1][1]
    if len(trail) == 1:
        return last
    start = 0.0
    for j, (kj, u) in enumerate(trail):
        w = 1.0
        for m, (km, _) in enumerate(trail):
            if m != j:
                w *= (k - km) / (kj - km)
        start = start + w * u
    if not _finite(start):
        return last
    n_y, set_Y = problem.n_y, problem.set_Y
    return np.concatenate((set_Y.project(start[:n_y]),
                           set_Y.project(start[n_y:])))


def snapshot(problem, sp, state, oracle_tol=1e-8, warm=None):
    """Snapshot of state from one oracle solve.

    (alpha, rho, sigma) are those of the step that produced state, i.e.
    params_at(sp, state.k - 1); a state with no completed step (k = 1) is
    rejected. Without warm the solve is solve_saddle's default one, from
    the projected zero vector with the step 1/L_est. With warm, the
    previous Snapshot of the same run, it starts at
    predicted_start(problem, warm.trail, state.k): the previous saddle
    itself after one snapshot, the extrapolated saddle path after two or
    more. It makes no estimate: its step is the one warm's solve ended
    with, halvings included, scaled by warm.rho / rho_k. T's Lipschitz
    bound (see operator_T) grows at most in proportion to rho, so the
    scaled step is as safe as the carried one; the oracle's stall backoff
    halves it where it is not. Only the start and the step move, so the
    solve agrees with the default one to within oracle_tol. The snapshot's
    trail is warm's with (state.k, u*) appended, replacing a node at the
    same k, cut to the last 3.
    """
    if not state.k >= 2:
        raise ContractViolation(
            "snapshot needs a state after at least one step (k >= 2), got "
            "k=%r" % (state.k,))
    pars = params_at(sp, state.k - 1)
    x = state.x
    if warm is None:
        trail, u0, beta = (), None, None  # solve_saddle's default solve
    else:
        trail = warm.trail
        u0 = predicted_start(problem, trail, state.k)
        beta = warm.saddle.beta * (warm.rho / pars.rho)
    sd = solve_saddle(problem, pars, x, tol=oracle_tol, u0=u0, beta=beta)
    u = sd.u
    phi = eval_psi(problem, pars, x, sd.y_star, sd.z_star)
    # norms as np.linalg.norm takes them on 1-D float64: the root of a dot
    d = np.concatenate((state.y, state.z)) - u
    te = math.sqrt(d.dot(d))
    g = direction_x(problem, pars, x, sd.y_star, sd.z_star)
    d = x - problem.set_X.project(x - pars.alpha * g)
    sr = math.sqrt(d.dot(d)) / pars.alpha
    trail = tuple(n for n in trail if n[0] != state.k) + ((state.k, u),)
    return Snapshot(phi=phi, tracking_err=te, stat_residual=sr, saddle=sd,
                    rho=pars.rho, trail=trail[-3:])


def merit_value(k, s, t, phi_gap, tracking_err):
    """V_k = k^(-s) * phi_gap + k^(-t) * tracking_err^2.

    s and t are the schedule's: t = 4p + 5q is ScheduleParams.t_exp, the
    exponent the guaranteed regime fixes. phi_gap is phi_k(x^k) minus an
    empirical lower bound on phi, so V_k is nonnegative whenever the bound
    really is a lower bound.
    """
    if k != int(k) or k < 1:
        raise ContractViolation("k must be an integer >= 1")
    k = float(k)
    return k ** (-s) * phi_gap + k ** (-t) * tracking_err**2


@dataclass
class SandwichRecord:
    rho: float
    sigma: float
    phi_smoothed: float
    phi_exact: float
    gap: float
    lower_slack: float  # phi_smoothed - (phi_exact - sigma/2 ||y*||^2); >= 0 when the bound holds
    saddle_dev: float   # ||u* - (y*(x), y*(x))||, distance of the oracle saddle to its limit


@dataclass
class SandwichReport:
    records: List[SandwichRecord]
    lower_bounds_ok: bool
    max_lower_violation: float
    diagonal: List[SandwichRecord]  # the cells (rho_list[i], sigma_list[i])
    diagonal_monotone: bool

    def __str__(self):
        lines = ["%8s %10s %14s %14s %12s" % ("rho", "sigma", "phi_smoothed",
                                              "phi_exact", "gap")]
        for r in self.records:
            lines.append("%8.1e %10.1e %14.6e %14.6e %12.3e"
                         % (r.rho, r.sigma, r.phi_smoothed, r.phi_exact, r.gap))
        lines.append("lower bounds ok: %s   diagonal monotone: %s"
                     % (self.lower_bounds_ok, self.diagonal_monotone))
        return "\n".join(lines)


def sandwich_check(problem_cf, x, rho_list, sigma_list, oracle_tol=1e-8,
                   slack=None, diag_slack=1e-8):
    """Evaluate the smoothed-vs-exact value sandwich on a (rho, sigma) grid.

    problem_cf must expose .problem plus closed_form_phi(x) and
    closed_form_y_star(x). For every grid cell the lower bound

        phi_{rho,sigma}(x) >= phi(x) - (sigma/2) * ||y*(x)||^2 - slack

    is checked (slack defaults to max(1e-8, 10*oracle_tol)); along the
    diagonal (rho_list[i], sigma_list[i]) the absolute gap must be
    nonincreasing within diag_slack. The asymptotic upper bound
    phi_{rho,sigma} <= phi + eps is what the shrinking gaps witness. Each
    record also carries the distance of its oracle saddle to the limit
    (y*(x), y*(x)).
    """
    if slack is None:
        slack = max(1e-8, 10.0 * oracle_tol)
    prob = problem_cf.problem
    x = _as_vector(x, prob.n_x, "x")
    phi_exact = float(problem_cf.closed_form_phi(x))
    ystar = np.atleast_1d(problem_cf.closed_form_y_star(x))
    ynorm2 = float(np.dot(ystar, ystar))
    limit = np.concatenate((ystar, ystar))

    records = []
    worst = 0.0
    for rho in rho_list:
        for sig in sigma_list:
            pr = PenaltyReg(rho, sig)
            sd = solve_saddle(prob, pr, x, tol=oracle_tol)
            val = eval_psi(prob, pr, x, sd.y_star, sd.z_star)
            lower_slack = val - (phi_exact - 0.5 * sig * ynorm2)
            records.append(SandwichRecord(
                rho=rho, sigma=sig, phi_smoothed=val, phi_exact=phi_exact,
                gap=val - phi_exact, lower_slack=lower_slack,
                saddle_dev=float(np.linalg.norm(sd.u - limit)),
            ))
            worst = min(worst, lower_slack)

    n_diag = min(len(rho_list), len(sigma_list))
    diagonal = [records[i * len(sigma_list) + i] for i in range(n_diag)]
    diag_gaps = [abs(r.gap) for r in diagonal]
    monotone = all(
        diag_gaps[i + 1] <= diag_gaps[i] + diag_slack
        for i in range(len(diag_gaps) - 1)
    )
    return SandwichReport(
        records=records,
        lower_bounds_ok=(worst >= -slack),
        max_lower_violation=max(0.0, -worst),
        diagonal=diagonal,
        diagonal_monotone=monotone,
    )
