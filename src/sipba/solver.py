"""Single-loop solver and the double-loop reference it is measured against.

One iteration of the single-loop method, from state (x, y, z) at counter k
with scheduled parameters (alpha_k, beta_k, rho_k, sigma_k):

    y+ = Proj_Y(y + beta_k * direction_y(x, y, z))
    z+ = Proj_Y(z - beta_k * direction_z(x, y, z))
    x+ = Proj_X(x - alpha_k * direction_x(x, y+, z+))

Exactly three gradient-pair evaluations per step (six partial-gradient
calls), no inner loop. The schedules

    alpha_k = alpha0 * k^(-s)
    beta_k  = beta0  * k^(-(2p+q))
    sigma_k = sigma0 * k^(-q)
    rho_k   = min(rho0 * k^p, rho_cap)

follow the decreasing-step regime 0 < s < 1/2, 0 < p, q < 1, s >= 8(p+q);
parameter choices outside the regime are allowed and only warned about.

The step is written once over blocks: a state holds one start as vectors of
shape (n,), or a batch of S starts at one counter k as (S, n) blocks, one row
per start. run drives one start, or a list of them as one batch whose every
step is one sipba_step call: the schedule is evaluated once per k, the
gradients of a rowwise problem are called once per step for all rows, and
each row's arithmetic is that of the serial step, so every row's trajectory
equals its serial run bit for bit.
"""

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ContractViolation,
    DivergenceError,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from .problem import GRADIENTS, rowwise_gradients
from .smoothing import PenaltyReg, direction_x, direction_y, direction_z
from .saddle import solve_saddle


@dataclass(frozen=True)
class ScheduleParams:
    """Step-size and penalty schedule coefficients.

    t_exp is the merit-weight exponent; defaults to 4p + 5q when omitted.
    """

    alpha0: float
    beta0: float
    rho0: float
    sigma0: float
    p: float
    q: float
    s: float
    t_exp: Optional[float] = None
    rho_cap: float = 1e12

    def __post_init__(self):
        for name in ("alpha0", "beta0", "rho0", "sigma0", "rho_cap"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ContractViolation("%s must be positive and finite" % name)
        for name in ("p", "q", "s"):
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise ContractViolation("%s must be finite and >= 0" % name)
        if self.t_exp is None:
            object.__setattr__(self, "t_exp", 4.0 * self.p + 5.0 * self.q)
        if not (0 < self.p < 1) or not (0 < self.q < 1) or not (0 < self.s < 0.5):
            warnings.warn(
                "schedule exponents outside the guaranteed regime "
                "(0<p<1, 0<q<1, 0<s<1/2)",
                stacklevel=2,
            )
        elif self.s < 8.0 * (self.p + self.q):
            warnings.warn(
                "s=%g < 8(p+q)=%g: outside the guaranteed-rate regime"
                % (self.s, 8.0 * (self.p + self.q)),
                stacklevel=2,
            )

    @classmethod
    def guideline(cls, alpha0, beta0, sigma0, p=0.01, q=0.01, rho0=10.0, **kw):
        """Guideline construction: s is forced to 8(p+q)."""
        return cls(
            alpha0=alpha0, beta0=beta0, rho0=rho0, sigma0=sigma0,
            p=p, q=q, s=8.0 * (p + q), **kw,
        )


class Params(NamedTuple):
    alpha: float
    beta: float
    rho: float
    sigma: float


def params_at(sp, k):
    """Scheduled (alpha_k, beta_k, rho_k, sigma_k); the counter starts at 1."""
    if k != int(k) or k < 1:
        raise ContractViolation("iteration counter k must be an integer >= 1")
    k = float(k)
    return Params(
        alpha=sp.alpha0 * k ** (-sp.s),
        beta=sp.beta0 * k ** (-(2.0 * sp.p + sp.q)),
        rho=min(sp.rho0 * k**sp.p, sp.rho_cap),
        sigma=sp.sigma0 * k ** (-sp.q),
    )


@dataclass(frozen=True)
class IterateState:
    """Solver state after k-1 completed steps; all blocks feasible.

    x, y and z are vectors, or for a batch (S, n) blocks with one row per
    start, all rows at the same k.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def initial_state(problem, x0, y0, z0=None):
    """Build a feasible starting state (projecting once). z defaults to y."""
    x = problem.set_X.project(x0)
    y = problem.set_Y.project(y0)
    z = y.copy() if z0 is None else problem.set_Y.project(z0)
    return IterateState(k=1, x=x, y=y, z=z)


def _penalty_at(sp, k):
    """(params_at(sp, k), its PenaltyReg).

    A schedule that left the float range (k^p overflowed, or sigma_k
    rounded to 0) raises ParameterOverflowError naming k.
    """
    try:
        pars = params_at(sp, k)
    except OverflowError:
        raise ParameterOverflowError(
            "schedule left the float range at k=%d: k^p overflows for p=%r"
            % (k, sp.p)) from None
    try:
        return pars, PenaltyReg(pars.rho, pars.sigma)
    except ContractViolation:
        raise ParameterOverflowError(
            "schedule left the float range at k=%d: rho_k=%r, sigma_k=%r"
            % (k, pars.rho, pars.sigma)
        ) from None


def _finite(v):
    """Exact np.isfinite(v).all(), via one reduction in the common case.

    A finite sum means every entry is finite; a sum of finite entries can
    still overflow, so only then is the entrywise test run.
    """
    total = np.add.reduce(v if v.ndim == 1 else v.ravel())
    return math.isfinite(total) or np.isfinite(v).all()


def sipba_step(problem, sp, state):
    """One single-loop iteration; returns the state at counter k+1.

    The state is one start or a batch of rows (see IterateState); a batch
    needs a rowwise problem (see problem.rowwise_gradients). The state is
    validated where it is built (initial_state, and the config loader
    before it). The step keeps O(1) checks only: each projection takes a
    float64 block of the right shape as is and converts or rejects anything
    else, PenaltyReg tests that rho_k and sigma_k are positive and finite,
    and each new block gets a finiteness test, per row only when the
    block's sum is not finite.

    Raises
    ------
    ParameterOverflowError
        If the schedule left the float range (sigma_k rounded to 0).
    DivergenceError
        If an iterate became non-finite; carries the last good state. For
        a batch it also names the non-finite rows and carries the step's
        result for every row.
    """
    pars, pr = _penalty_at(sp, state.k)
    x, y, z = state.x, state.y, state.z
    dy = direction_y(problem, pr, x, y, z)
    dz = direction_z(problem, pr, x, y, z)
    y1 = problem.set_Y.project(y + pars.beta * dy)
    z1 = problem.set_Y.project(z - pars.beta * dz)
    dx = direction_x(problem, pr, x, y1, z1)
    x1 = problem.set_X.project(x - pars.alpha * dx)
    nxt = IterateState(k=state.k + 1, x=x1, y=y1, z=z1)
    if not (_finite(x1) and _finite(y1) and _finite(z1)):
        err = DivergenceError("non-finite iterate at k=%d" % state.k,
                              state=state)
        if x.ndim == 2:
            ok = (np.isfinite(x1).all(1) & np.isfinite(y1).all(1)
                  & np.isfinite(z1).all(1))
            err.rows, err.next_state = np.flatnonzero(~ok), nxt
        raise err
    return nxt


@dataclass
class RunResult:
    """How one start's run ended. A row of a batch that failed has
    stop_reason "error", the exception a serial run would have raised in
    error, and its last good state."""

    state: IterateState
    iterations: int
    stop_reason: str
    step_seconds: float
    target_iteration: Optional[int] = None
    target_seconds: Optional[float] = None
    error: Optional[Exception] = None


# what ends one row of a batch, from its step or from its callback; a serial
# run raises these
_ROW_ERRORS = (DivergenceError, ParameterOverflowError, SaddleConvergenceError)


def run(problem, sp, init, max_iter, target=None, stop_at_target=False,
        callback=None, callback_stride=100):
    """Drive sipba_step for max_iter iterations from init.

    init is one start (an IterateState), or a list of starts run as one
    batch. One start returns its RunResult and raises the step's
    ParameterOverflowError or DivergenceError, or any error of the hooks,
    out of this call. A batch returns one RunResult per start, in order;
    see below.

    target : callable(state) -> bool, optional
        Checked after every step, outside the timed region. The first hit
        records (iteration, stepping seconds); the run stops there only if
        stop_at_target is set. For a batch it is called once per step as
        target(rows, state) on the batch's active rows (rows: their indices
        into init) and returns one bool per row, until every active row has
        hit. A target that divides by a constant per start (such as the
        starts' relative_error_denominator) should form it once, before
        this call, and index it by rows.
    callback : callable(state, elapsed_seconds), optional
        Invoked every callback_stride completed steps and after the final
        step; excluded from the stepping clock. For a batch it is called
        per row, as callback(row, state, elapsed_seconds) with the row's
        1-D state and clock.

    Timing counts the stepping work only, so diagnostics (oracle calls in
    callbacks, target checks) do not pollute time-to-target measurements.
    A batch charges each batched step's time to its active rows in equal
    shares, so the rows' clocks sum to the batch's stepping time. Every
    active row has taken every batched step so far, so the active rows
    share one running clock, written to a row's result when it leaves.

    A row of a batch leaves it when it stops at its target, or when its
    step or its callback raises DivergenceError, ParameterOverflowError or
    SaddleConvergenceError: its RunResult then holds the error (with the
    serial message, and for a divergence the row's last good state) and
    the other rows go on. The starts of a batch share their counter k; a
    problem that is not rowwise has its gradients called once per row.

    Validation happens before the loop: init comes from initial_state
    (which converts and projects the starting blocks), and max_iter and
    callback_stride are checked here. Inside the loop each step keeps only
    its O(1) shape, positivity and finiteness checks (see sipba_step).
    """
    if max_iter < 0:
        raise ContractViolation("max_iter must be >= 0")
    if callback_stride < 1:
        raise ContractViolation("callback_stride must be >= 1")
    if not isinstance(init, IterateState):
        return _run_batch(problem, sp, list(init), max_iter, target,
                          stop_at_target, callback, callback_stride)
    state = init
    elapsed = 0.0
    result = RunResult(state=state, iterations=0, stop_reason="max_iter",
                       step_seconds=0.0)
    last_emitted = 0
    for _ in range(max_iter):
        t0 = time.perf_counter()
        state = sipba_step(problem, sp, state)
        elapsed += time.perf_counter() - t0
        done = state.k - 1  # completed steps
        if target is not None and result.target_iteration is None and target(state):
            result.target_iteration = done
            result.target_seconds = elapsed
            if stop_at_target:
                result.stop_reason = "target"
                break  # the final emission below reports this state
        if callback is not None and done % callback_stride == 0:
            callback(state, elapsed)
            last_emitted = done
    done = state.k - 1
    if callback is not None and done != last_emitted and done > 0:
        callback(state, elapsed)
    result.state = state
    result.iterations = done
    result.step_seconds = elapsed
    return result


def _run_batch(problem, sp, starts, max_iter, target, stop_at_target,
               callback, stride):
    """run over a list of starts as one batch; see run."""
    if len({st.k for st in starts}) > 1:
        raise ContractViolation("the starts of a batch must share their "
                                "counter k")
    results = [RunResult(state=st, iterations=st.k - 1, stop_reason="max_iter",
                         step_seconds=0.0) for st in starts]
    if not starts or max_iter == 0:
        return results
    problem = rowwise_gradients(problem)
    state = IterateState(k=starts[0].k,
                         **{b: np.stack([getattr(st, b) for st in starts])
                            for b in "xyz"})
    rows = np.arange(len(starts))  # the start behind each row of state
    share = 0.0  # the active rows' common clock (see run)
    hit = np.zeros(len(starts), dtype=bool)
    hunting = target is not None  # some active row has not hit its target
    last_emitted = [0] * len(starts)

    def row(st, j):
        return IterateState(k=st.k, x=st.x[j], y=st.y[j], z=st.z[j])

    def take(st, keep):
        return IterateState(k=st.k, x=st.x[keep], y=st.y[keep], z=st.z[keep])

    def end(i, st, reason, error=None):
        res = results[i]
        res.state, res.iterations, res.stop_reason = st, st.k - 1, reason
        res.step_seconds, res.error = share, error

    def emit(i, st):
        """Callback for row i; False if its error ended the row."""
        try:
            callback(i, st, share)
        except _ROW_ERRORS as err:
            end(i, st, "error", err)
            return False
        last_emitted[i] = st.k - 1
        return True

    for _ in range(max_iter):
        bad = ()
        t0 = time.perf_counter()
        try:
            nxt = sipba_step(problem, sp, state)
        except DivergenceError as err:
            nxt, bad, why = err.next_state, err.rows, str(err)
        except ParameterOverflowError as err:
            for j, i in enumerate(rows):
                end(i, row(state, j), "error", err)
            return results
        share += (time.perf_counter() - t0) / rows.size
        if len(bad):
            for j in bad:
                last = row(state, j)
                end(rows[j], last, "error", DivergenceError(why, state=last))
            keep = np.ones(rows.size, dtype=bool)
            keep[bad] = False
            rows, nxt = rows[keep], take(nxt, keep)
            if not rows.size:
                return results
            hunting = hunting and not hit[rows].all()
        done = nxt.k - 1
        keep = None  # the rows that stay: a mask only once one may leave
        if hunting:
            new = np.asarray(target(rows, nxt), dtype=bool)
            if not stop_at_target:  # rows that hit stay, and hit only once
                new = new & ~hit[rows]
            if new.any():
                keep = np.ones(rows.size, dtype=bool)
                for j in np.flatnonzero(new):
                    i = rows[j]
                    hit[i] = True
                    res = results[i]
                    res.target_iteration, res.target_seconds = done, share
                    if stop_at_target:
                        keep[j] = False
                        st = row(nxt, j)
                        if callback is None or emit(i, st):
                            end(i, st, "target")
                # with stop_at_target the rows that hit leave, and the
                # rest have not hit
                hunting = stop_at_target or not hit[rows].all()
        if callback is not None and done % stride == 0:
            if keep is None:
                keep = np.ones(rows.size, dtype=bool)
            for j in np.flatnonzero(keep):
                keep[j] = emit(rows[j], row(nxt, j))
        state = nxt
        if keep is not None and not keep.all():
            rows, state = rows[keep], take(nxt, keep)
            if not rows.size:
                return results
            hunting = hunting and not hit[rows].all()
    for j, i in enumerate(rows):
        st = row(state, j)
        if callback is None or last_emitted[i] == st.k - 1 or emit(i, st):
            end(i, st, "max_iter")
    return results


@dataclass
class BaselineResult:
    x: np.ndarray
    saddle: object
    outer_iterations: int
    inner_iterations: int
    inner_failures: int
    step_seconds: float
    stop_reason: str = "max_iter"


def run_double_loop_baseline(problem, sp, x0, outer_iter, inner_tol=1e-8,
                             inner_max_iter=10**6, inner_beta=None, u0=None,
                             callback=None, grad_budget=None):
    """Reference double-loop method: solve the saddle, then step x.

    Each outer iteration k solves the saddle at (rho_k, sigma_k) to
    inner_tol and applies x <- Proj_X(x - alpha_k * direction_x(x, y*, z*)).
    Inner convergence failures are recorded and the outer loop continues
    with the last saddle iterate. Returns cumulative inner-iteration
    counts so gradient budgets can be compared against the single-loop
    method. As in sipba_step, a schedule that left the float range raises
    ParameterOverflowError and a non-finite x raises DivergenceError.

    The first solve starts at u0 (default: the projected zero vector) with
    a cold step-size estimate; every later one is warm-started from the
    previous saddle (solve_saddle's warm), which costs its estimate 4
    operator evaluations instead of 31.

    outer_iter : int or None
        Number of outer iterations; None means no cap (grad_budget then
        ends the run).
    callback : callable(k, x, saddle, inner_total, elapsed_seconds), optional
        Invoked after every outer step.
    grad_budget : int, optional
        Budget of partial-gradient evaluations made by this call, counted
        by the counter of a problem from with_gradient_counter (the problem
        is wrapped once if it has none). No outer step starts once the
        budget is spent, and each inner solve may run at most
        (remaining budget) // 3 iterations (at least 1, at most
        inner_max_iter), one fixed-point iteration costing three
        evaluations. So the spend exceeds the budget by at most one
        step-size estimate (93 evaluations cold, 12 warm, 102 if a warm
        estimate falls back to the cold start), one outer direction and
        the one-iteration floor, never by an unbounded inner solve. A
        solve cut short by the cap counts as an inner failure.
    """
    if outer_iter is None and grad_budget is None:
        raise ContractViolation("need outer_iter or grad_budget to end the run")
    if grad_budget is not None:
        cnt = getattr(problem.grad_F_x, "counter", None)
        if cnt is None:
            problem, cnt = with_gradient_counter(problem)
        spend_end = cnt.count + grad_budget
    x = problem.set_X.project(x0)
    sp_last = None
    inner_total = 0
    failures = 0
    elapsed = 0.0
    out = BaselineResult(x=x, saddle=None, outer_iterations=0,
                         inner_iterations=0, inner_failures=0, step_seconds=0.0)
    k = 0
    while outer_iter is None or k < outer_iter:
        max_iter = inner_max_iter
        if grad_budget is not None:
            if cnt.count >= spend_end:
                out.stop_reason = "grad_budget"
                break
            max_iter = min(max_iter, max(1, (spend_end - cnt.count) // 3))
        k += 1
        pars, pr = _penalty_at(sp, k)
        t0 = time.perf_counter()
        try:
            sd = solve_saddle(problem, pr, x, tol=inner_tol,
                              max_iter=max_iter, beta=inner_beta,
                              u0=u0 if sp_last is None else None,
                              warm=sp_last)
        except SaddleConvergenceError as err:
            sd = err.saddle
            failures += 1
        inner_total += sd.iterations
        g = direction_x(problem, pr, x, sd.y_star, sd.z_star)
        x = problem.set_X.project(x - pars.alpha * g)
        if not _finite(x):
            raise DivergenceError(
                "non-finite baseline iterate at outer iteration k=%d" % k)
        elapsed += time.perf_counter() - t0
        sp_last = sd
        out.outer_iterations = k
        if callback is not None:
            callback(k, x, sd, inner_total, elapsed)
    out.x = x
    out.saddle = sp_last
    out.inner_iterations = inner_total
    out.inner_failures = failures
    out.step_seconds = elapsed
    return out


class GradEvalCounter:
    """Counts evaluations of the four partial-gradient callables of a
    problem: one per call on a point, one per row on a block of rows."""

    def __init__(self):
        self.count = 0

    def _wrap(self, fn):
        def wrapped(x, y):
            self.count += len(x) if getattr(x, "ndim", 1) == 2 else 1
            return fn(x, y)

        wrapped.counter = self
        return wrapped


def with_gradient_counter(problem):
    """Return (problem copy whose gradient calls are counted, the counter).

    Each wrapper carries the counter as ``.counter``, so code handed the
    copy counts with it instead of wrapping again.
    """
    c = GradEvalCounter()
    counted = replace(problem, **{g: c._wrap(getattr(problem, g))
                                  for g in GRADIENTS})
    return counted, c

