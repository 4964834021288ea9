"""The lean hot-loop paths against their old formulations, bit for bit.

Projections, the saddle operator, the single-loop step and the relative
error each take an O(1) fast path for float64 vectors of the right shape.
These tests compare them in process with the formulations they replaced
(np.clip, np.linalg.norm, np.isfinite(...).all(), atleast_1d conversions),
so they hold on any BLAS, and check that bad inputs still raise.
"""

import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.diagnostics import relative_error
from sipba.errors import ContractViolation
from sipba.problem import Ball, Box, FullSpace
from sipba.smoothing import PenaltyReg, operator_T
from sipba.solver import (
    ScheduleParams,
    _finite,
    initial_state,
    params_at,
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
        st = sipba_step(prob, sp, st)
        for got, ref in zip((st.x, st.y, st.z), want):
            assert np.array_equal(got, ref)
    assert st.k == 2001


def test_finiteness_test_matches_isfinite_all():
    cases = [np.zeros(3), np.array([1e308, 1e308, -1.0]),
             np.array([1.0, np.nan]), np.array([np.inf, 1.0]),
             np.array([-np.inf, -1.0]), np.array([np.inf, -np.inf]),
             np.array([5e-324, -0.0])]
    with np.errstate(all="ignore"):
        for v in cases:
            assert bool(_finite(v)) == bool(np.isfinite(v).all())


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
        assert relative_error(*args) == old(*args)
    # scalars and lists still go through atleast_1d
    assert relative_error(1.0, [2.0], 0.0, [0.0], 2.0, [1.0]) == 1.0
    with pytest.raises(ContractViolation):
        relative_error([1.0], [1.0], [0.0], [0.0], [0.0], [0.0])


def test_relative_error_of_a_block_is_each_row_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s, n, m = (int(k) for k in rng.integers(1, 60, 3))
        x, x0 = (rng.standard_normal((s, n)) * 10.0 ** rng.integers(-5, 5)
                 for _ in range(2))
        y, y0 = (rng.standard_normal((s, m)) * 10.0 ** rng.integers(-5, 5)
                 for _ in range(2))
        xs, ys = rng.standard_normal(n), rng.standard_normal(m)
        got = relative_error(x, y, xs, ys, x0, y0)
        assert got.shape == (s,)
        for i in range(s):
            assert got[i] == relative_error(x[i], y[i], xs, ys, x0[i], y0[i])
    # one row starting at the optimum makes the whole call undefined
    with pytest.raises(ContractViolation):
        relative_error(np.ones((2, 1)), np.ones((2, 1)), [0.0], [0.0],
                       [[1.0], [0.0]], [[1.0], [0.0]])
