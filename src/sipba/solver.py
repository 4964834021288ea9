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
per start. run has one loop: it steps a list of starts as one batch, one
sipba_step call a step, so a rowwise problem's gradients are called once per
step for all rows. The loop evaluates each live schedule once per k and
hands the step its Params: floats when one schedule is live, else (S, 1)
columns, and a column times a block gives each row the product the scalar
gives it. Each row's arithmetic is that of the serial step, so every row's
trajectory equals its serial run bit for bit. A batch of one is not
stacked: it is stepped as vectors.

Within a step, each way a row can end (its schedule leaves the float range,
its iterate turns non-finite, it stops at its target, its callback raises)
is decided in one place, and one helper drops the rows that ended.
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
from .smoothing import direction_x, direction_y, direction_z
from .saddle import default_start, estimate_T_lipschitz, solve_saddle


@dataclass(frozen=True)
class ScheduleParams:
    """Step-size and penalty schedule coefficients: the paper's seven and
    the cap on rho_k (see params_at)."""

    alpha0: float
    beta0: float
    rho0: float
    sigma0: float
    p: float
    q: float
    s: float
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
        if not (0 < self.p < 1) or not (0 < self.q < 1) or not (0 < self.s < 0.5):
            warnings.warn(
                "schedule exponents outside the guaranteed regime "
                "(0<p<1, 0<q<1, 0<s<1/2)",
                stacklevel=3,  # the line that called ScheduleParams(...)
            )
        elif self.s < 8.0 * (self.p + self.q):
            warnings.warn(
                "s=%g < 8(p+q)=%g: outside the guaranteed-rate regime"
                % (self.s, 8.0 * (self.p + self.q)),
                stacklevel=3,  # the line that called ScheduleParams(...)
            )

    @property
    def t_exp(self):
        """The merit-weight exponent t = 4p + 5q, which the guaranteed
        regime fixes."""
        return 4.0 * self.p + 5.0 * self.q


class Params(NamedTuple):
    """Scheduled values at one k: floats, or for a batch whose rows run
    under different schedules (S, 1) columns, one row per row of the batch."""

    alpha: float
    beta: float
    rho: float
    sigma: float


def params_at(sp, k):
    """Scheduled (alpha_k, beta_k, rho_k, sigma_k); the counter starts at 1.

    The one evaluator of a schedule. A schedule that left the float range
    at k (k^p overflowed, or rho_k or sigma_k left (0, inf), say sigma_k
    rounded to 0) raises ParameterOverflowError naming k. The Params is
    what a step passes on: the directions and the saddle oracle read only
    its rho and sigma, so it serves where a PenaltyReg would.
    """
    if k != int(k) or k < 1:
        raise ContractViolation("iteration counter k must be an integer >= 1")
    kf = float(k)
    try:
        pars = Params(
            alpha=sp.alpha0 * kf ** (-sp.s),
            beta=sp.beta0 * kf ** (-(2.0 * sp.p + sp.q)),
            rho=min(sp.rho0 * kf**sp.p, sp.rho_cap),
            sigma=sp.sigma0 * kf ** (-sp.q),
        )
    except OverflowError:
        raise ParameterOverflowError(
            "schedule left the float range at k=%d: k^p overflows for p=%r"
            % (k, sp.p)) from None
    if not (0.0 < pars.rho < math.inf and 0.0 < pars.sigma < math.inf):
        raise ParameterOverflowError(
            "schedule left the float range at k=%d: rho_k=%r, sigma_k=%r"
            % (k, pars.rho, pars.sigma))
    return pars


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


def _finite(v):
    """Exact np.isfinite(v).all(), via one reduction in the common case.

    A finite sum means every entry is finite; a sum of finite entries can
    still overflow, so only then is the entrywise test run.
    """
    total = np.add.reduce(v if v.ndim == 1 else v.ravel())
    return math.isfinite(total) or np.isfinite(v).all()


def sipba_step(problem, pars, state):
    """One single-loop iteration; returns the state at counter k+1.

    The state is one start or a batch of rows (see IterateState); a batch
    needs a rowwise problem (see problem.rowwise_gradients). pars is the
    schedule's Params at state.k, from params_at, which checked it: floats,
    or for a batch whose rows run under different schedules (S, 1)
    columns. The state is validated where it is built (initial_state, and
    the config loader before it). The step keeps O(1) checks only: each
    projection takes a float64 block of the right shape as is and converts
    or rejects anything else, and each new block gets a finiteness test,
    per row only when the block's sum is not finite.

    Raises
    ------
    DivergenceError
        If an iterate became non-finite; carries the last good state, the
        positions of the non-finite rows (rows; [0] for a state of vectors)
        and the step's result for every row (next_state).
    """
    x, y, z = state.x, state.y, state.z
    dy = direction_y(problem, pars, x, y, z)
    dz = direction_z(problem, pars, x, y, z)
    y1 = problem.set_Y.project(y + pars.beta * dy)
    z1 = problem.set_Y.project(z - pars.beta * dz)
    dx = direction_x(problem, pars, x, y1, z1)
    x1 = problem.set_X.project(x - pars.alpha * dx)
    nxt = IterateState(k=state.k + 1, x=x1, y=y1, z=z1)
    if not (_finite(x1) and _finite(y1) and _finite(z1)):
        ok = (np.isfinite(x1).all(-1) & np.isfinite(y1).all(-1)
              & np.isfinite(z1).all(-1))
        raise DivergenceError("non-finite iterate at k=%d" % state.k,
                              state=state, rows=np.flatnonzero(~ok),
                              next_state=nxt)
    return nxt


@dataclass
class RunResult:
    """How one start's run ended. A row that failed has stop_reason
    "error", the error that ended it (see run) and its last good state."""

    state: IterateState
    iterations: int
    stop_reason: str
    step_seconds: float
    target_iteration: Optional[int] = None
    target_seconds: Optional[float] = None
    error: Optional[Exception] = None


# what a row's callback may raise to end that row, as its step's errors do
_ROW_ERRORS = (DivergenceError, ParameterOverflowError, SaddleConvergenceError)


def run(problem, sp, starts, max_iter, target=None, stop_at_target=False,
        callback=None, callback_stride=100):
    """Drive sipba_step for max_iter iterations from a list of starts.

    The starts (IterateStates from initial_state) run as one batch, which
    returns one RunResult per start, in order. sp is one schedule
    (ScheduleParams) for every start, or a list with one per start: each
    row then runs under its own schedule, evaluated once per step for all
    its rows (params_at).

    target : callable(rows, state) -> bools, optional
        Checked after every step, outside the timed region, on the batch's
        active rows (rows: their indices into starts), returning one bool
        per row, until every active row has hit. A row's first hit records
        (iteration, stepping seconds); the row stops there only if
        stop_at_target is set. A target that divides by a constant per
        start (such as the starts' relative_error_denominator) should form
        it once, before this call, and index it by rows.
    callback : callable(row, state, elapsed_seconds), optional
        Called per row, off the stepping clock, with the row's index into
        starts, its 1-D state and its clock, after every callback_stride
        completed steps, when the row stops at its target, and after the
        last step of this call (none with max_iter=0); at most once per
        step. Within one step the due rows are called in row order, after
        the target check.

    Timing counts the stepping work only, so diagnostics (oracle calls in
    callbacks, target checks) do not pollute time-to-target measurements.
    Each batched step's time is charged to the active rows in equal shares,
    so the rows' clocks sum to the batch's stepping time. Every active row
    has taken every batched step so far, so the active rows share one
    running clock, written to a row's result when it leaves.

    A row leaves the batch when it stops at its target, or when its step
    or its callback raises DivergenceError, ParameterOverflowError or
    SaddleConvergenceError: its RunResult then has stop_reason "error" and
    holds that error (a hook's is the same object; a divergence has the
    serial message and the row's last good state), and the other rows go
    on. Any other exception propagates out of this call. A schedule that
    leaves the float range ends the rows that run under it, and only
    those, before the step. The starts share their counter k; a problem
    that is not rowwise has its gradients called once per row. The states
    of a batch of one, also those its hooks and gradients see, are (n,)
    vectors.

    Validation happens before the loop: the starts come from initial_state
    (which converts and projects the starting blocks), and the rest of the
    arguments are checked here. Inside the loop each step keeps only its
    O(1) checks (see sipba_step).
    """
    if isinstance(starts, IterateState):
        raise ContractViolation("run takes a list of starts, not one state")
    if max_iter < 0:
        raise ContractViolation("max_iter must be >= 0")
    if callback_stride < 1:
        raise ContractViolation("callback_stride must be >= 1")
    starts = list(starts)
    if len({st.k for st in starts}) > 1:
        raise ContractViolation("the starts of a batch must share their "
                                "counter k")
    if isinstance(sp, ScheduleParams):
        sp = [sp] * len(starts)
    elif len(sp) != len(starts):
        raise ContractViolation("a list of schedules needs one per start")
    scheds = list(dict.fromkeys(sp))  # the distinct schedules, in order
    gi = np.array([scheds.index(s) for s in sp])  # each row's schedule
    live = list(range(len(scheds)))  # the schedules of the active rows
    lut = np.empty((len(scheds), 4))  # their Params at this step's k
    results = [RunResult(state=st, iterations=st.k - 1, stop_reason="max_iter",
                         step_seconds=0.0) for st in starts]
    if not starts or max_iter == 0:
        return results
    if len(starts) == 1:  # stepped as vectors: no stacking, no row loop
        state = starts[0]
    else:
        problem = rowwise_gradients(problem)
        state = IterateState(k=starts[0].k,
                             **{b: np.stack([getattr(st, b) for st in starts])
                                for b in "xyz"})
    rows = np.arange(len(starts))  # the start behind each row of state
    share = 0.0  # the active rows' common clock
    hit = np.zeros(len(starts), dtype=bool)
    hunting = target is not None  # some active row has not hit its target
    ended = []  # the positions in state of the rows that ended this step

    def row(st, j):  # copied out: a view would keep the block alive
        return st if st.x.ndim == 1 else IterateState(
            st.k, st.x[j].copy(), st.y[j].copy(), st.z[j].copy())

    def end(j, st, reason, error=None):
        res = results[rows[j]]
        res.state, res.iterations, res.stop_reason = st, st.k - 1, reason
        res.step_seconds, res.error = share, error
        ended.append(j)

    def leave(st):
        """st without the rows that ended, or None once none is left."""
        nonlocal rows, gi, live, hunting
        if not ended:
            return st
        keep = np.ones(rows.size, dtype=bool)
        keep[ended] = False
        ended.clear()
        if not keep.any():
            return None
        rows, gi = rows[keep], gi[keep]
        live = sorted(set(gi.tolist()))
        hunting = hunting and not hit[rows].all()
        return IterateState(k=st.k, x=st.x[keep], y=st.y[keep], z=st.z[keep])

    for n in range(1, max_iter + 1):
        bad, pars = (), {}  # pars: each live schedule's Params at this k
        t0 = time.perf_counter()
        for g in live:
            try:
                pars[g] = params_at(scheds[g], state.k)
            except ParameterOverflowError as err:  # ends its own rows
                for j in np.flatnonzero(gi == g):
                    end(j, row(state, j), "error", err)
        if (state := leave(state)) is None:
            return results
        if len(pars) == 1:  # scalars
            (step_pars,) = pars.values()
        else:  # (S, 1) columns, one row per row of state
            for g, p in pars.items():
                lut[g] = p
            step_pars = Params(*lut[gi].T[:, :, None])
        try:
            nxt = sipba_step(problem, step_pars, state)
        except DivergenceError as err:
            nxt, bad, why = err.next_state, err.rows, str(err)
        share += (time.perf_counter() - t0) / rows.size
        for j in bad:
            last = row(state, j)
            end(j, last, "error", DivergenceError(why, state=last))
        if (nxt := leave(nxt)) is None:
            return results
        done = nxt.k - 1
        due = ()  # the rows whose callback is due, in row order
        if hunting:
            new = np.asarray(target(rows, nxt), dtype=bool)
            if not stop_at_target:  # rows that hit stay, and hit only once
                new = new & ~hit[rows]
            if new.any():
                hits = np.flatnonzero(new)
                for j in hits:
                    hit[rows[j]] = True
                    res = results[rows[j]]
                    res.target_iteration, res.target_seconds = done, share
                if stop_at_target:  # the rows that stop now
                    due = hits
                # with stop_at_target the rows that hit leave, and the
                # rest have not hit
                hunting = stop_at_target or not hit[rows].all()
        if callback is not None and (done % callback_stride == 0
                                     or n == max_iter):
            due = range(rows.size)
        for j in due:
            st = row(nxt, j)
            try:
                if callback is not None:
                    callback(rows[j], st, share)
                # an active row under stop_at_target that hit, hit now
                if stop_at_target and hit[rows[j]]:
                    end(j, st, "target")
            except _ROW_ERRORS as err:
                end(j, st, "error", err)
        if (state := leave(nxt)) is None:
            return results
    for j in range(rows.size):
        end(j, row(state, j), "max_iter")
    return results


class BaselineResult(NamedTuple):
    """How a budgeted double-loop run ended: its x and last saddle (None if
    no outer step ran), its outer and cumulative inner iterations, its
    inner failures and its stepping seconds. A tuple, in this order:
    bench/layers.py reads the outer iterations as result[2]."""

    x: np.ndarray
    saddle: object
    outer_iterations: int
    inner_iterations: int
    inner_failures: int
    step_seconds: float


def run_double_loop_baseline(problem, sp, x0, grad_budget, inner_tol=1e-8,
                             callback=None):
    """Reference double-loop method under a gradient budget: solve the
    saddle, then step x.

    Each outer iteration k solves the saddle at (rho_k, sigma_k) to
    inner_tol and applies x <- Proj_X(x - alpha_k * direction_x(x, y*, z*)).
    Inner convergence failures are recorded and the outer loop continues
    with the last saddle iterate. A schedule that left the float range
    raises params_at's ParameterOverflowError, and as in sipba_step a
    non-finite x raises DivergenceError.

    The first solve starts at default_start (the projected zero vector),
    not at a run's (y0, z0): that can be far from every saddle, and a
    solve from there may spend the whole budget. Every later solve starts
    at the previous saddle. Each takes the step 1/(2 L_est) from an
    estimate_T_lipschitz at its start: the first cold, every later one 3
    power iterations from the previous estimate's dominant direction,
    which costs 4 operator evaluations instead of 31.

    grad_budget : int
        Budget of partial-gradient evaluations made by this call, counted
        by the counter of a problem from with_gradient_counter (the problem
        is wrapped once if it has none). No outer step starts once the
        budget is spent, and each inner solve may run at most
        (remaining budget) // 3 iterations (at least 1), one fixed-point
        iteration costing three evaluations. So the spend exceeds the
        budget by at most one step-size estimate (93 evaluations cold, 12
        warm, 102 if a warm estimate falls back to the cold start), one
        outer direction and the one-iteration floor, never by an unbounded
        inner solve. A solve cut short by the cap counts as an inner
        failure; only the last solve can be cut short.
    callback : callable(k, x, saddle, inner_total, elapsed_seconds), optional
        Invoked after every outer step.
    """
    cnt = getattr(problem.grad_F_x, "counter", None)
    if cnt is None:
        problem, cnt = with_gradient_counter(problem)
    spend_end = cnt.count + grad_budget
    x = problem.set_X.project(x0)
    u = default_start(problem)
    v = None  # the previous estimate's dominant direction
    sd = None
    k = inner_total = failures = 0
    elapsed = 0.0
    while cnt.count < spend_end:
        max_iter = max(1, (spend_end - cnt.count) // 3)
        k += 1
        pars = params_at(sp, k)
        t0 = time.perf_counter()
        est = estimate_T_lipschitz(problem, pars, x, u, v)
        v = est.vector
        try:
            sd = solve_saddle(problem, pars, x, tol=inner_tol,
                              max_iter=max_iter, u0=u,
                              beta=1.0 / (2.0 * est.value))
        except SaddleConvergenceError as err:
            sd = err.saddle
            failures += 1
        inner_total += sd.iterations
        g = direction_x(problem, pars, x, sd.y_star, sd.z_star)
        x = problem.set_X.project(x - pars.alpha * g)
        if not _finite(x):
            raise DivergenceError(
                "non-finite baseline iterate at outer iteration k=%d" % k)
        elapsed += time.perf_counter() - t0
        u = sd.u
        if callback is not None:
            callback(k, x, sd, inner_total, elapsed)
    return BaselineResult(x, sd, k, inner_total, failures, elapsed)


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

