"""The lean hot-loop paths against their old formulations, bit for bit.

Projections, the saddle operator, the single-loop step and the relative
error each take an O(1) fast path for float64 vectors of the right shape.
On a block, a box side whose faces all hold one value clips against that
value as a 0-d array, and the synthetic gradients subtract 1.0 and repeat
each row's factor instead of operating with the all-ones vector e, so
numpy runs one loop over the block instead of one per row. The scalars the
oracle loop and the double-loop baseline apply to arrays are 0-d float64
arrays. These tests compare them in process with the formulations they
replaced (np.clip against the bound arrays, products with e and with
Python floats, np.linalg.norm, np.isfinite(...).all(), atleast_1d
conversions), so they hold on any BLAS, and check that bad inputs still
raise.
"""

import dataclasses
import re

import numpy as np
import pytest

from sipba import benchmarks, saddle, smoothing, solver
from sipba.benchmarks import (
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    quadratic_init,
    quadratic_testbed,
    synthetic_problem,
)
from sipba.diagnostics import relative_error, relative_error_denominator
from sipba.errors import ContractViolation, SaddleConvergenceError
from sipba.problem import Ball, Box, FullSpace, _as_vector, _dot, _norm
from sipba.smoothing import PenaltyReg, operator_T
from sipba.solver import (
    IterateState,
    Params,
    ScheduleParams,
    _finite,
    initial_state,
    params_at,
    run,
    sipba_step,
)


def same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_box_projection_equals_clip_bit_for_bit():
    rng = np.random.default_rng(7)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lo = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5], n)
        width = rng.choice([0.0, 0.25, 2.0, np.inf], n)
        with np.errstate(invalid="ignore"):  # -inf + inf, masked out
            hi = np.where(np.isinf(width), np.inf, lo + width)
        box = Box(lo, hi)
        v = rng.standard_normal(n) * 3.0
        mask = rng.random(n) < 0.4
        v[mask] = rng.choice(specials, int(mask.sum()))
        assert same_bits(box.project(v), np.clip(v, box.lower, box.upper))
    # signed zeros on zero-width and half-open faces
    box = Box([0.0, -0.0, 0.0, -0.0], [0.0, 0.0, np.inf, -0.0])
    for v in ([-0.0, -0.0, -0.0, 0.0], [0.0, 0.0, 0.0, -0.0]):
        v = np.array(v)
        assert same_bits(box.project(v), np.clip(v, box.lower, box.upper))
    # a side whose faces all hold one value projects against it as a 0-d
    # array; one that mixes 0.0 and -0.0 faces keeps its array
    n = 5
    zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    lowers = [np.full(n, c) for c in (0.0, -0.0, -np.inf, np.inf, 0.1)]
    uppers = [np.full(n, c) for c in (0.0, -0.0, np.inf, -np.inf, 10.0)]
    v = rng.standard_normal((4, n)) * 3.0
    v[:, :2] = -0.0
    v[1:3, 2:] = [[np.nan, 0.0, np.inf], [-np.inf, -0.0, 0.0]]
    for lo in lowers + [zeros]:
        for hi in uppers + [zeros]:
            if not np.all(lo <= hi):
                continue
            box = Box(lo, hi)
            assert box.lower.tobytes() == lo.tobytes()
            assert box.upper.tobytes() == hi.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                box.lower[0] = 0.5  # the 0-d face could not follow it
            for side, face in ((lo, box._lo), (hi, box._hi)):
                assert (face.shape == ()) == (side is not zeros)
            for w in (v, v[1], v[:, ::-1].copy()):
                got = box.project(w)
                with np.errstate(invalid="ignore"):
                    want = np.minimum(np.maximum(w, box.lower), box.upper)
                assert got.shape == w.shape
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, w)
    assert Box([], []).project([]).shape == (0,)  # no face, no value


def test_projections_convert_and_reject_as_before():
    sets = [FullSpace(3), Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0]),
            Ball([1.0, -2.0, 0.5], 2.5)]
    v = np.array([3.0, -1.0, 0.25])
    for s in sets:
        want = s.project(v)
        assert want is not v  # the fast path never hands out the input
        for same in ([3.0, -1.0, 0.25], v.astype(np.float32).astype(float),
                     np.array([3, -1, 0.25], dtype=np.longdouble)):
            assert np.array_equal(s.project(same), want)
        assert s.project(np.array([3, -1, 0])).dtype == np.float64
        for bad in ([1.0, 2.0], 1.0, np.ones((3, 1)), np.ones(4)):
            with pytest.raises(ContractViolation):
                s.project(bad)
    # a scalar is a vector of length one
    assert np.array_equal(FullSpace(1).project(2.0), [2.0])
    assert np.array_equal(Box([0.0], [1.0]).project(2.0), [1.0])


def test_projecting_a_block_projects_each_row_bit_for_bit():
    rng = np.random.default_rng(11)
    sets = [FullSpace(4), Box([-1.0, 0.0, 2.0, -np.inf], [1.0, 0.5, 2.0, 3.0]),
            Ball([1.0, -2.0, 0.5, 0.0], 2.5)]
    block = rng.standard_normal((6, 4)) * 3.0
    block[1] = [1.0, -2.0, 0.5, 0.0]    # the ball's center
    block[2, 0] = np.nan
    block[3] = [1.5, -2.0, 0.5, 0.0]    # inside the ball
    for s in sets:
        with np.errstate(invalid="ignore"):
            got = s.project(block)
            for i in range(len(block)):
                assert same_bits(got[i], s.project(block[i]))
        assert got is not block
        for bad in (np.ones((6, 3)), np.ones((2, 6, 4))):
            with pytest.raises(ContractViolation, match=r"or \(S, 4\)"):
                s.project(bad)


def test_ball_projects_a_vector_as_its_formula_bit_for_bit():
    # the block path projects a vector too; the reference is the formula a
    # vector took on its own: v inside, else c + (r / ||v - c||) (v - c)
    c, r = np.array([1.0, -2.0, 0.5, 0.0]), 2.5
    ball = Ball(c, r)
    cases = [c.copy(),                          # the center
             np.array([1.5, -2.0, 0.5, -0.0]),  # inside, with a -0.0 entry
             np.array([4.0, 1.0, -3.0, 2.0]),   # outside
             np.array([np.nan, -2.0, 0.5, 0.0])]  # a NaN norm projects as far
    with np.errstate(invalid="ignore"):
        for v in cases:
            d = v - c
            nd = np.linalg.norm(d)
            want = v.copy() if nd <= r else c + (r / nd) * d
            got = ball.project(v)
            assert got.shape == v.shape and same_bits(got, want)
            assert not np.shares_memory(got, v)
    assert np.isnan(ball.project(cases[3])).all()
    assert np.signbit(ball.project(cases[1])[3])


def test_operator_T_converts_and_rejects_as_before():
    q = quadratic_testbed()
    pr = PenaltyReg(2.0, 0.5)
    want = operator_T(q, pr, np.array([1.5]), np.array([0.5, -1.0]))
    assert np.array_equal(operator_T(q, pr, [1.5], [0.5, -1.0]), want)
    assert np.array_equal(operator_T(q, pr, 1.5, np.array([0.5, -1.0])), want)
    for x, u in (([1.5], [0.5]), ([1.5], 0.5), ([1.5], np.ones((2, 1))),
                 ([1.5, 2.0], [0.5, -1.0]), (np.ones((1, 1)), [0.5, -1.0])):
        with pytest.raises(ContractViolation):
            operator_T(q, pr, x, u)


def _old_step(n, sp, st, box_x, box_y):
    # the step as it was written before the fast paths: synthetic gradients
    # through np.linalg.norm, np.clip projections, np.isfinite(...).all()
    e = np.ones(n)

    def grad_F_x(x, y):
        return (2.0 / n) * (x - e)

    def grad_F_y(x, y):
        return -2.0 * (y - e)

    def grad_f_x(x, y):
        nx = float(np.linalg.norm(x))
        r = float(np.dot(e, y)) - nx
        return (-2.0 * r / nx) * x

    def grad_f_y(x, y):
        r = float(np.dot(e, y)) - float(np.linalg.norm(x))
        return (2.0 * r) * e

    pars = params_at(sp, st.k)
    pr = PenaltyReg(pars.rho, pars.sigma)
    x, y, z = st.x, st.y, st.z
    dy = grad_F_y(x, y) - pr.rho * grad_f_y(x, y) - pr.sigma * z
    dz = pr.rho * grad_f_y(x, z) + pr.sigma * (z - y)
    y1 = np.clip(y + pars.beta * dy, box_y.lower, box_y.upper)
    z1 = np.clip(z - pars.beta * dz, box_y.lower, box_y.upper)
    dx = grad_F_x(x, y1) - pr.rho * (grad_f_x(x, y1) - grad_f_x(x, z1))
    x1 = np.clip(x - pars.alpha * dx, box_x.lower, box_x.upper)
    assert np.isfinite(x1).all() and np.isfinite(y1).all() and np.isfinite(z1).all()
    return x1, y1, z1


def test_step_equals_old_formulation_for_2000_steps():
    n = 100
    sb = synthetic_problem(n)
    prob = sb.problem
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(prob, *sb.sample_init(np.random.default_rng(2024)))
    for _ in range(2000):
        want = _old_step(n, sp, st, prob.set_X, prob.set_Y)
        st = sipba_step(prob, params_at(sp, st.k), st)
        for got, ref in zip((st.x, st.y, st.z), want):
            assert np.array_equal(got, ref)
    assert st.k == 2001


def test_a_batch_under_two_schedules_equals_the_old_step_on_each_row():
    # the batched twin of the test above: every row of a 10-row batch whose
    # rows alternate between two schedules ((S, 1) Params columns) equals
    # the old step iterated on that row alone, at every step
    n, steps = 100, 300
    sb = synthetic_problem(n)
    prob = sb.problem
    ref = dict(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01)
    sps = [ScheduleParams(**ref, p=0.001, q=0.001, s=0.1),
           ScheduleParams(**ref, p=0.01, q=0.01, s=0.16)]
    rows = [sps[i % 2] for i in range(10)]
    starts = [initial_state(prob, *sb.sample_init(np.random.default_rng(s)))
              for s in range(10)]
    last = list(starts)

    def check(i, st, elapsed):
        want = _old_step(n, rows[i], last[i], prob.set_X, prob.set_Y)
        for got, old in zip((st.x, st.y, st.z), want):
            assert np.array_equal(got, old)
        last[i] = st

    res = run(prob, rows, starts, steps, callback=check, callback_stride=1)
    assert [st.k for st in last] == [steps + 1] * 10
    assert [r.iterations for r in res] == [steps] * 10


def test_synthetic_gradients_equal_their_formulas_with_e_bit_for_bit():
    # x - 1.0 is x - e and a repeated factor c is c * e, bit for bit: rows
    # whose residual <e, y> - ||x|| is NaN, +inf or -inf, and -0.0 entries
    n = 5
    prob = synthetic_problem(n).problem
    e = np.ones(n)
    rng = np.random.default_rng(19)
    x = rng.uniform(0.1, 10.0, (7, n))
    y = rng.uniform(0.1, 10.0, (7, n))
    y[1, 2] = np.nan                   # r = NaN
    y[2, 0] = np.inf                   # r = +inf
    x[3, 4] = -np.inf                  # r = -inf
    x[4], y[4] = 0.0, 0.0              # r = 0, and 0/0 in grad_f_x
    x[5, :2], y[5, 3:] = -0.0, -0.0
    x[6, 1], y[6, 1] = np.nan, np.inf  # r = NaN from inf - NaN

    def old(x, y):
        nx = np.sqrt(_dot(x, x))
        r = _dot(e, y) - nx
        return ((2.0 / n) * (x - e), -2.0 * (y - e),
                (-2.0 * r / nx)[..., None] * x, (2.0 * r)[..., None] * e)

    grads = [prob.grad_F_x, prob.grad_F_y, prob.grad_f_x, prob.grad_f_y]
    with np.errstate(all="ignore"):
        for a, b in [(x, y)] + list(zip(x, y)):
            for grad, want in zip(grads, old(a, b)):
                got = grad(a, b)
                assert got.shape == a.shape and same_bits(got, want)
                assert got.flags.c_contiguous and got.flags.writeable
                assert not (np.shares_memory(got, a)
                            or np.shares_memory(got, b))
    # a -0.0 residual needs <e, y> = -0.0, which only a lone coordinate's
    # dot gives; grad_f_y repeats its -0.0 factor as is
    one, y1 = np.ones(1), np.array([-0.0])
    got = benchmarks._synthetic_grad_f_y(one, np.zeros(1), y1)
    assert same_bits(got, (2.0 * (one.dot(y1) - 0.0))[..., None] * one)
    assert np.signbit(got[0])


def test_finiteness_test_matches_isfinite_all():
    cases = [np.zeros(3), np.array([1e308, 1e308, -1.0]),
             np.array([1.0, np.nan]), np.array([np.inf, 1.0]),
             np.array([-np.inf, -1.0]), np.array([np.inf, -np.inf]),
             np.array([5e-324, -0.0])]
    # blocks, one reduction over all entries: finite, overflowing, NaN,
    # and a strided view
    cases += [np.ones((3, 2)), np.full((2, 2), 1e308),
              np.array([[1.0, 2.0], [np.nan, 0.0]]),
              np.array([[1.0, np.inf, 2.0], [3.0, -np.inf, 4.0]])[:, ::2],
              np.array([[1.0, np.inf, 2.0], [3.0, 4.0, -np.inf]])[:, ::2]]
    with np.errstate(all="ignore"):
        for v in cases:
            assert bool(_finite(v)) == bool(np.isfinite(v).all())


def rel(x, y, x_star, y_star, x0, y0):
    """relative_error of (x, y) against the start (x0, y0)."""
    return relative_error(x, y, x_star, y_star,
                          relative_error_denominator(x0, y0, x_star, y_star))


def test_relative_error_equals_old_formula():
    def old(x, y, x_star, y_star, x0, y0):
        x, y = np.atleast_1d(x), np.atleast_1d(y)
        x0, y0 = np.atleast_1d(x0), np.atleast_1d(y0)
        xs, ys = np.atleast_1d(x_star), np.atleast_1d(y_star)
        den = float(np.dot(x0 - xs, x0 - xs) + np.dot(y0 - ys, y0 - ys))
        num = float(np.dot(x - xs, x - xs) + np.dot(y - ys, y - ys))
        return num / den

    rng = np.random.default_rng(3)
    for _ in range(200):
        n, m = (int(k) for k in rng.integers(1, 120, 2))
        args = [rng.standard_normal(k) * 10.0 ** rng.integers(-5, 5)
                for k in (n, m, n, m, n, m)]
        assert rel(*args) == old(*args)
    # scalars and lists still go through atleast_1d
    assert rel(1.0, [2.0], 0.0, [0.0], 2.0, [1.0]) == 1.0
    with pytest.raises(ContractViolation):
        relative_error_denominator([0.0], [0.0], [0.0], [0.0])


def test_relative_error_of_a_block_is_each_row_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s, n, m = (int(k) for k in rng.integers(1, 60, 3))
        x, x0 = (rng.standard_normal((s, n)) * 10.0 ** rng.integers(-5, 5)
                 for _ in range(2))
        y, y0 = (rng.standard_normal((s, m)) * 10.0 ** rng.integers(-5, 5)
                 for _ in range(2))
        xs, ys = rng.standard_normal(n), rng.standard_normal(m)
        den = relative_error_denominator(x0, y0, xs, ys)
        got = relative_error(x, y, xs, ys, den)
        assert den.shape == got.shape == (s,)
        for i in range(s):
            assert den[i] == relative_error_denominator(x0[i], y0[i], xs, ys)
            assert got[i] == rel(x[i], y[i], xs, ys, x0[i], y0[i])
    # one row starting at the optimum makes the whole block undefined
    with pytest.raises(ContractViolation):
        relative_error_denominator([[1.0], [0.0]], [[1.0], [0.0]], [0.0],
                                   [0.0])


def _old_solve_saddle(problem, pr, x, tol=1e-10, max_iter=10**6, u0=None,
                      beta=None):
    # solve_saddle's loop as it was written on the stacked u = (y, z):
    # operator_T, u - beta*t, a projection of each half, np.linalg.norm.
    # It is the reference for the loop's arithmetic; its default step
    # follows solve_saddle's, 1/L_est from a cold estimate at the start
    x = _as_vector(x, problem.n_x, "x")
    if u0 is None:
        u = saddle.default_start(problem)
    else:
        u = _as_vector(u0, 2 * problem.n_y, "u0").copy()
    if beta is None:
        beta = 1.0 / saddle.estimate_T_lipschitz(problem, pr, x, u).value
    beta = float(beta)
    beta0 = beta
    set_Y, n_y = problem.set_Y, problem.n_y

    def pack(u, res, it, ok):
        return saddle.SaddlePoint(
            y_star=u[:n_y].copy(), z_star=u[n_y:].copy(), residual=res,
            iterations=it, beta=beta, converged=ok)

    def proj_pair(w):
        return np.concatenate((set_Y.project(w[:n_y]), set_Y.project(w[n_y:])))

    best, since_best, halvings, res = np.inf, 0, 0, np.inf
    for it in range(1, max_iter + 1):
        t = operator_T(problem, pr, x, u)
        w = u - beta * t
        u_next = proj_pair(w)
        res = float(np.linalg.norm(u - u_next)) / beta
        finite = np.isfinite(res)
        if finite and res <= tol:
            if (res == 0.0 and beta < beta0 and np.array_equal(w, u)
                    and not np.array_equal(u - beta0 * t, u)):
                t_norm = float(np.linalg.norm(t))
                raise SaddleConvergenceError(
                    "saddle oracle step underflow after %d iterations: "
                    "beta=%.3e (%d halvings) no longer moves u while "
                    "||T||=%.3e (tol %.3e)" % (it, beta, halvings, t_norm, tol),
                    saddle=pack(u, t_norm, it, False))
            return pack(u_next, res, it, True)
        if finite:
            u = u_next
            if res < 0.9999 * best:
                best, since_best = res, 0
                continue
            since_best += 1
            if since_best < 200:
                continue
        halvings += 1
        if halvings > 60:
            raise SaddleConvergenceError(
                "saddle oracle stalled after %d iterations (60 step "
                "halvings) with residual %.3e (tol %.3e)" % (it, res, tol)
                if finite else "oracle diverged even after step backoff",
                saddle=pack(u, res, it, False))
        beta *= 0.5
        best, since_best = np.inf, 0
    raise SaddleConvergenceError(
        "saddle oracle hit max_iter=%d with residual %.3e (tol %.3e)"
        % (max_iter, res, tol), saddle=pack(u, res, max_iter, False))


def _solve_outcome(solve, *args, **kwargs):
    """(the SaddlePoint, None), or (the error's saddle, (message, residual))."""
    try:
        return solve(*args, **kwargs), None
    except SaddleConvergenceError as err:
        return err.saddle, (str(err), err.saddle.residual)


def _same_value(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and same_bits(a, b))
    if isinstance(a, float):
        return type(a) is type(b) and same_bits(np.float64(a), np.float64(b))
    return type(a) is type(b) and a == b


def _assert_same_outcome(want, want_err, got, got_err):
    for f in dataclasses.fields(saddle.SaddlePoint):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name
    assert (got_err is None) == (want_err is None)
    if want_err is not None:
        assert got_err[0] == want_err[0]
        assert _same_value(got_err[1], want_err[1])


def _assert_same_solve(*args, **kwargs):
    """solve_saddle and the old loop agree on every SaddlePoint field and on
    the error (message and residual), bit for bit; returns the solve."""
    with np.errstate(all="ignore"):
        want = _solve_outcome(_old_solve_saddle, *args, **kwargs)
        got = _solve_outcome(saddle.solve_saddle, *args, **kwargs)
    _assert_same_outcome(*want, *got)
    return got


def _gate_sequence(problem, pr, xs, tol, **kwargs):
    # the double-loop baseline's sequence: each x starts at the previous
    # saddle (failed solves included; the first at the default start) with
    # the step 1/(2 L_est) from an estimate there, seeded by the previous
    # estimate's direction (the first cold), handed to both loops. Then
    # the same x at that solve's step size with its saddle as u0
    u, v = saddle.default_start(problem), None
    for x in xs:
        with np.errstate(all="ignore"):
            est = saddle.estimate_T_lipschitz(problem, pr, x, u, v)
            sd = _assert_same_solve(problem, pr, x, tol=tol, u0=u,
                                    beta=1.0 / (2.0 * est.value), **kwargs)[0]
        _assert_same_solve(problem, pr, x, tol=tol, u0=sd.u, beta=sd.beta)
        u, v = sd.u, est.vector


def test_oracle_equals_the_stacked_loop_on_the_benchmarks():
    rng = np.random.default_rng(19)
    quad = quadratic_testbed()
    for _ in range(5):
        pr = PenaltyReg(rng.uniform(0.1, 8.0), rng.uniform(0.05, 2.0))
        xs = rng.normal(scale=2.0, size=(3, 1))
        _gate_sequence(quad, pr, xs, 1e-12)
        _gate_sequence(quad, pr, xs, 1e-14, max_iter=5)  # max_iter runs out
    # an explicit step from the lemma, and one that overflows and halves
    pr = PenaltyReg(1.0, 1.0)
    _assert_same_solve(quad, pr, [1.0], beta=0.9 * saddle.lemma_step_bound(quad, pr))
    _, err = _assert_same_solve(quad, pr, [1.0], beta=1e200)
    assert err is not None

    sb = synthetic_problem(5)
    box = sb.problem
    center = np.full(5, 0.5)
    ball = dataclasses.replace(box, set_Y=Ball(center, 0.4))
    for prob in (box, ball):
        for rho, sigma in ((10.0, 0.01), (50.0, 0.1)):
            xs = rng.uniform(0.1, 10.0, (3, 5))
            _gate_sequence(prob, PenaltyReg(rho, sigma), xs, 1e-10)
    # the ball binds: the saddle sits on its sphere
    sd, _ = _assert_same_solve(ball, PenaltyReg(10.0, 0.01), np.full(5, 9.0),
                               tol=1e-10)
    assert np.linalg.norm(sd.y_star - center) == pytest.approx(0.4)

    data = generate_hyper_rep(6, 2, 12, 12, 10, 0.1, seed=3)
    hr = hyper_rep_problem(data)
    x0 = hyper_rep_init(data, np.random.Generator(np.random.Philox(42)))[0]
    xs = x0 + 0.01 * rng.standard_normal((4, x0.size))
    for tol in (1e-5, 1e-10):
        _gate_sequence(hr, PenaltyReg(10.0, 0.01), xs, tol)


def _inject(monkeypatch, T):
    # an operator T(u) through the directions the oracle and operator_T
    # call: direction_y is -T's y half, direction_z its z half
    def dy(problem, pr, x, y, z):
        return -np.split(T(np.concatenate((y, z))), 2)[0]

    def dz(problem, pr, x, y, z):
        return np.split(T(np.concatenate((y, z))), 2)[1]

    for mod in (saddle, smoothing):
        monkeypatch.setattr(mod, "direction_y", dy)
        monkeypatch.setattr(mod, "direction_z", dz)


@pytest.mark.parametrize("T, kwargs, message", [
    (lambda u: np.copysign(1.0, u), dict(beta=0.5), "stalled"),
    (lambda u: np.full_like(u, np.inf), dict(u0=[0.5, -0.5], beta=0.5),
     "^oracle diverged even after step backoff$"),
    (lambda u: np.array([[-0.1, 1.0], [-1.0, -0.1]]) @ u,
     dict(u0=[1.0, 1.0], beta=0.5), "step underflow"),
    # y never moves, so only the z half tells underflow from convergence
    (lambda u: np.array([0.0, -0.1 * u[1]]), dict(u0=[1.0, 1.0], beta=0.5),
     "step underflow"),
], ids=["stall", "non-finite", "underflow", "underflow-in-z"])
def test_oracle_safeguards_equal_the_stacked_loop(monkeypatch, T, kwargs,
                                                  message):
    _inject(monkeypatch, T)
    quad = quadratic_testbed()
    sd, err = _assert_same_solve(quad, PenaltyReg(1.0, 1.0), [0.0],
                                 tol=1e-10, **kwargs)
    assert err is not None and re.search(message, err[0])
    assert not sd.converged


class _MatmulSplit:
    # benchmarks._Split's loss and gradients with its products written as
    # @, and no memo (test_benchmarks gates the memo against this form).
    # The gradients take one point, and a block row by row.
    def __init__(self, X, y):
        self.X, self.y = X, y

    def _residual(self, x, w):
        A = self.X.T @ x.reshape(self.X.shape[0], -1)
        return A, A @ w - self.y

    def loss(self, x, w):
        _, r = self._residual(x, w)
        return float(np.dot(r, r) / self.y.shape[0])

    def grad_x(self, x, w):
        if x.ndim == 2:
            return np.stack([self.grad_x(a, b) for a, b in zip(x, w)])
        _, r = self._residual(x, w)
        return ((2.0 / self.y.shape[0]) * ((self.X @ r)[:, None] * w)).ravel()

    def grad_w(self, x, w):
        if x.ndim == 2:
            return np.stack([self.grad_w(a, b) for a, b in zip(x, w)])
        A, r = self._residual(x, w)
        return (2.0 / self.y.shape[0]) * (A.T @ r)


@pytest.mark.parametrize("p_dim", [1, 3])
def test_hyper_rep_runs_equal_the_matmul_products(p_dim):
    # a batch of starts and a start alone, stepped through run: every
    # callback state equals the one of the same problem with @ products
    data = generate_hyper_rep(6, p_dim, 9, 7, 5, 0.1, seed=11)
    prob = hyper_rep_problem(data)
    val = _MatmulSplit(data.X_val, data.y_val)
    train = _MatmulSplit(data.X_train, data.y_train)
    ref = dataclasses.replace(
        prob, F=val.loss, f=train.loss, grad_F_x=val.grad_x,
        grad_F_y=val.grad_w, grad_f_x=train.grad_x, grad_f_y=train.grad_w)
    sp = ScheduleParams(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    starts = [initial_state(prob, *hyper_rep_init(
        data, np.random.Generator(np.random.Philox(s)))) for s in (42, 43)]

    def states(problem, init):
        seen = []
        res = run(problem, sp, init, 250, callback_stride=100,
                  callback=lambda i, st, t: seen.append(st))
        return seen + [r.state for r in res]

    for init in (starts, starts[:1]):
        got, want = states(prob, init), states(ref, init)
        assert len(got) == len(want) > 2
        for a, b in zip(got, want):
            assert a.k == b.k
            for block in ("x", "y", "z"):
                assert same_bits(getattr(a, block), getattr(b, block))


def _as_0d(pars):
    return Params(*(np.array(v, dtype=np.float64) for v in pars))


def _stack(states):
    return IterateState(k=states[0].k, **{
        b: np.stack([getattr(st, b) for st in states]) for b in "xyz"})


def test_a_step_under_0d_params_equals_the_step_under_floats():
    # the baseline hands the half-steps 0-d float64 arrays where params_at
    # gives floats: the same products, bit for bit, on a point and on a
    # block of each family
    sp = ScheduleParams(alpha0=0.01, beta0=1e-3, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    sb = synthetic_problem(5)
    data = generate_hyper_rep(6, 2, 9, 7, 5, 0.1, seed=11)
    quad = quadratic_testbed()
    cases = [
        (sb.problem, lambda g: sb.sample_init(g)),
        (hyper_rep_problem(data), lambda g: hyper_rep_init(data, g)),
        (quad, quadratic_init),
    ]
    for prob, init in cases:
        starts = [initial_state(prob, *init(np.random.default_rng(s)))
                  for s in range(3)]
        for a in (starts[0], _stack(starts)):
            b = a
            for _ in range(40):
                pars = params_at(sp, a.k)
                a = sipba_step(prob, pars, a)
                b = sipba_step(prob, _as_0d(pars), b)
                assert a.k == b.k
                for block in "xyz":
                    assert same_bits(getattr(a, block), getattr(b, block))


def test_run_hands_on_floats_and_the_baseline_0d_scalars(monkeypatch):
    # run, one live schedule: params_at's floats; two: (S, 1) columns. The
    # baseline's estimate, inner steps and x step share read-only 0-d
    # float64 fields (problem._scalar), and the oracle steps at a 0-d beta
    sb = synthetic_problem(5)
    prob = sb.problem
    sps = [ScheduleParams(alpha0=0.1, beta0=1e-3, rho0=10.0, sigma0=0.01,
                          p=0.001, q=0.001, s=0.1),
           ScheduleParams(alpha0=0.1, beta0=1e-3, rho0=10.0, sigma0=0.01,
                          p=0.01, q=0.01, s=0.16)]
    starts = [initial_state(prob, *sb.sample_init(np.random.default_rng(s)))
              for s in range(4)]
    seen = []

    def spy(problem, pars, state):
        seen.append((state.k, pars))
        return step(problem, pars, state)

    step = solver.sipba_step
    monkeypatch.setattr(solver, "sipba_step", spy)
    for init, sched in ((starts, sps[0]), (starts[:1], sps[0])):
        seen.clear()
        run(prob, sched, init, 3)
        assert [k for k, _ in seen] == [1, 2, 3]
        for k, pars in seen:
            assert pars == params_at(sps[0], k)
            assert all(type(v) is float for v in pars)
    seen.clear()
    run(prob, [sps[0], sps[1]] * 2, starts, 3)
    assert [k for k, _ in seen] == [1, 2, 3]
    for k, pars in seen:
        for v in pars:
            assert type(v) is np.ndarray and v.dtype == np.float64
            assert v.shape == (4, 1)

    ests, betas = [], []

    def est_spy(problem, pr, *args):
        ests.append(pr)
        return estimate(problem, pr, *args)

    def step_yz_spy(problem, pr, beta, *args):
        betas.append(beta)
        return step_yz(problem, pr, beta, *args)

    estimate, step_yz = solver.estimate_T_lipschitz, saddle._step_yz
    monkeypatch.setattr(solver, "estimate_T_lipschitz", est_spy)
    monkeypatch.setattr(saddle, "_step_yz", step_yz_spy)
    res = solver.run_double_loop_baseline(prob, sps[0], starts[0].x, 600)
    assert res.outer_iterations >= 1 and ests and betas
    assert tuple(map(float, ests[0])) == params_at(sps[0], 1)
    for v in ests[0]:
        assert type(v) is np.ndarray and v.shape == () and v.dtype == np.float64
        assert not v.flags.writeable
    assert all(type(b) is np.ndarray and b.shape == () for b in betas)
    assert not any(b.flags.writeable for b in betas)


def test_the_norm_of_a_vector_is_np_sqrt_of_its_dot_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = [rng.standard_normal(int(rng.integers(1, 200)))
             * 10.0 ** rng.uniform(-150, 150) for _ in range(2000)]
    cases += [np.zeros(3), np.array([-0.0]), np.array([5e-324]),
              np.array([1e-160, 3e-161]), np.array([1e200, 1e200]),
              np.array([np.inf, 1.0]), np.array([-np.inf]),
              np.array([np.nan, 1.0]), np.array([np.inf, np.nan])]
    with np.errstate(all="ignore"):
        for v in cases:
            got = _norm(v)
            assert type(got) is np.float64
            assert same_bits(got, np.sqrt(v.dot(v)))
