import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.errors import ContractViolation
from sipba.smoothing import (
    PenaltyReg,
    direction_x,
    direction_y,
    direction_z,
    eval_psi,
    operator_T,
)

quad = quadratic_testbed()


def test_penalty_reg_validation():
    PenaltyReg(1e-6, 1e-6)
    for rho, sigma in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (np.inf, 1.0), (1.0, np.nan)]:
        with pytest.raises(ContractViolation):
            PenaltyReg(rho, sigma)


def test_psi_value_example():
    # F=-(y-x)^2, f=(y-x)^2 at x=1, y=2, z=0 with rho=2, sigma=1:
    # -1 - 2*(1 - 1) + 0.5*0 - 1*0 = -1
    assert eval_psi(quad, PenaltyReg(2.0, 1.0), [1.0], [2.0], [0.0]) == pytest.approx(-1.0)


def test_direction_examples():
    pr = PenaltyReg(1.0, 1.0)
    x, y, z = np.array([1.0]), np.array([0.0]), np.array([0.0])
    np.testing.assert_allclose(direction_y(quad, pr, x, y, z), [4.0])
    np.testing.assert_allclose(direction_z(quad, pr, x, y, z), [-2.0])
    np.testing.assert_allclose(
        direction_x(quad, pr, x, np.array([0.4]), np.array([0.2])), [-0.8]
    )
    np.testing.assert_allclose(operator_T(quad, pr, x, np.zeros(2)), [-4.0, -2.0])


def test_operator_stacks_negated_ascent_and_descent():
    rng = np.random.default_rng(2)
    prob = synthetic_problem(4).problem
    for _ in range(20):
        pr = PenaltyReg(rng.uniform(0.1, 5.0), rng.uniform(0.05, 2.0))
        x = prob.set_X.project(rng.uniform(-2, 12, 4))
        y = prob.set_Y.project(rng.normal(scale=3, size=4))
        z = prob.set_Y.project(rng.normal(scale=3, size=4))
        t = operator_T(prob, pr, x, np.concatenate((y, z)))
        np.testing.assert_array_equal(t[:4], -direction_y(prob, pr, x, y, z))
        np.testing.assert_array_equal(t[4:], direction_z(prob, pr, x, y, z))


def test_eval_psi_shape_errors():
    pr = PenaltyReg(1.0, 1.0)
    # a 0-d input is a vector of length one
    assert eval_psi(quad, pr, 1.0, 2.0, 0.0) == eval_psi(quad, pr, [1.0], [2.0], [0.0])
    pair = synthetic_problem(2).problem
    v = [1.0, 1.0]
    for args, name in (((quad, pr, [1.0, 2.0], [0.0], [0.0]), "x"),
                       ((quad, pr, [1.0], [0.0, 0.0], [0.0]), "y"),
                       ((quad, pr, [1.0], [0.0], [0.0, 0.0]), "z"),
                       ((pair, pr, 1.0, v, v), "x"),
                       ((pair, pr, v, v, np.float64(0.0)), "z")):
        n = args[0].n_x if name == "x" else args[0].n_y
        with pytest.raises(ContractViolation, match=r"^%s must have shape \(%d,\)"
                           % (name, n)):
            eval_psi(*args)


def _feasible(prob, rng):
    x = prob.set_X.project(rng.normal(scale=4, size=prob.n_x))
    y1 = prob.set_Y.project(rng.normal(scale=4, size=prob.n_y))
    y2 = prob.set_Y.project(rng.normal(scale=4, size=prob.n_y))
    return x, y1, y2


def test_psi_strongly_concave_in_y():
    # secant test: psi(., lam*y1+(1-lam)*y2, z) beats the chord by
    # (mu/2)*lam*(1-lam)*||y1-y2||^2
    rng = np.random.default_rng(5)
    for prob in (quad, synthetic_problem(6).problem):
        for _ in range(50):
            pr = PenaltyReg(rng.uniform(0.2, 5.0), rng.uniform(0.05, 2.0))
            x, y1, y2 = _feasible(prob, rng)
            z = prob.set_Y.project(rng.normal(scale=4, size=prob.n_y))
            lam = rng.uniform()
            ym = lam * y1 + (1 - lam) * y2
            lhs = eval_psi(prob, pr, x, ym, z)
            chord = lam * eval_psi(prob, pr, x, y1, z) + (1 - lam) * eval_psi(prob, pr, x, y2, z)
            gain = 0.5 * prob.mu * lam * (1 - lam) * np.dot(y1 - y2, y1 - y2)
            assert lhs - (chord + gain) >= -1e-10


def test_psi_strongly_convex_in_z():
    rng = np.random.default_rng(6)
    for prob in (quad, synthetic_problem(6).problem):
        for _ in range(50):
            pr = PenaltyReg(rng.uniform(0.2, 5.0), rng.uniform(0.05, 2.0))
            x, z1, z2 = _feasible(prob, rng)
            y = prob.set_Y.project(rng.normal(scale=4, size=prob.n_y))
            lam = rng.uniform()
            zm = lam * z1 + (1 - lam) * z2
            lhs = eval_psi(prob, pr, x, y, zm)
            chord = lam * eval_psi(prob, pr, x, y, z1) + (1 - lam) * eval_psi(prob, pr, x, y, z2)
            gain = 0.5 * pr.sigma * lam * (1 - lam) * np.dot(z1 - z2, z1 - z2)
            assert (chord - gain) - lhs >= -1e-10


def test_directions_match_finite_differences_of_psi():
    rng = np.random.default_rng(8)
    prob = synthetic_problem(3).problem
    h = 1e-6
    for _ in range(10):
        pr = PenaltyReg(rng.uniform(0.2, 3.0), rng.uniform(0.1, 1.5))
        x = prob.set_X.project(rng.uniform(0, 11, 3))
        y = prob.set_Y.project(rng.normal(scale=2, size=3))
        z = prob.set_Y.project(rng.normal(scale=2, size=3))
        for direction, wrt, at in [
            (direction_y(prob, pr, x, y, z), "y", y),
            (direction_z(prob, pr, x, y, z), "z", z),
        ]:
            fd = np.empty(3)
            for i in range(3):
                ap, am = at.copy(), at.copy()
                ap[i] += h
                am[i] -= h
                if wrt == "y":
                    fd[i] = (eval_psi(prob, pr, x, ap, z) - eval_psi(prob, pr, x, am, z)) / (2 * h)
                else:
                    fd[i] = (eval_psi(prob, pr, x, y, ap) - eval_psi(prob, pr, x, y, am)) / (2 * h)
            np.testing.assert_allclose(direction, fd, rtol=1e-5, atol=1e-5)
