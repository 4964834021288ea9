from dataclasses import replace

import numpy as np
import pytest

from sipba.benchmarks import (
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
from sipba.errors import ContractViolation
from sipba.problem import GRADIENTS, check_gradients, rowwise_gradients
from sipba.saddle import solve_saddle
from sipba.smoothing import PenaltyReg


def test_testbed_structure():
    quad = quadratic_testbed()
    assert quad.n_x == quad.n_y == 1
    assert quad.mu == 2.0
    assert quad.lip_F == 2.0 and quad.lip_f == 2.0
    assert quad.F(np.array([1.0]), np.array([3.0])) == pytest.approx(-4.0)
    assert quad.f(np.array([1.0]), np.array([3.0])) == pytest.approx(4.0)
    rep = check_gradients(quad, n_points=8)
    assert max(rep.errors.values()) < 1e-7


def test_analytic_saddle_agrees_with_oracle():
    quad = quadratic_testbed()
    rng = np.random.default_rng(21)
    for _ in range(15):
        x = rng.normal(scale=2.0)
        rho, sigma = rng.uniform(0.1, 6.0), rng.uniform(0.05, 2.0)
        ys, zs = analytic_saddle(x, rho, sigma)
        sd = solve_saddle(quad, PenaltyReg(rho, sigma), [x], tol=1e-11)
        np.testing.assert_allclose(sd.y_star, ys, atol=1e-8)
        np.testing.assert_allclose(sd.z_star, zs, atol=1e-8)


def test_closed_form_values():
    e = np.ones(4)
    assert closed_form_phi(4, 0.5 * e) == pytest.approx(-2.0)
    assert closed_form_phi(4, e) == pytest.approx(-1.0)
    np.testing.assert_allclose(closed_form_y_star(4, e), 0.5 * e)
    for n in (2, 5, 9):
        sb = synthetic_problem(n)
        assert closed_form_phi(n, sb.x_star) == pytest.approx(np.sqrt(n) - n)


def test_closed_form_y_star_branches_meet():
    # the argmax switches branch at ||x|| = sqrt(n)/2; values must agree there
    n = 4
    base = np.full(n, 0.5)  # ||x|| = 1 = sqrt(4)/2
    lo = closed_form_y_star(n, base * (1 - 1e-9))
    hi = closed_form_y_star(n, base * (1 + 1e-9))
    np.testing.assert_allclose(lo, hi, atol=1e-8)
    np.testing.assert_allclose(lo, np.full(n, 1.0 / (2 * np.sqrt(n))), atol=1e-8)


def test_synthetic_problem_optimum():
    sb = synthetic_problem(4)
    prob = sb.problem
    np.testing.assert_allclose(sb.x_star, np.full(4, 0.5))
    np.testing.assert_allclose(sb.y_star, np.full(4, 0.25))
    assert prob.f(sb.x_star, sb.y_star) == pytest.approx(0.0, abs=1e-15)
    assert prob.F(sb.x_star, sb.y_star) == pytest.approx(np.sqrt(4) - 4)
    assert prob.set_X.contains(sb.x_star)
    assert prob.set_Y.contains(sb.y_star)
    assert prob.mu == 2.0
    rep = check_gradients(prob, n_points=10)
    assert max(rep.errors.values()) < 1e-6


def test_synthetic_needs_two_dims():
    with pytest.raises(ContractViolation):
        synthetic_problem(1)


def test_sample_init_feasible_and_seeded():
    sb = synthetic_problem(6)
    x0, y0, z0 = sb.sample_init(np.random.default_rng(3))
    assert sb.problem.set_X.contains(x0)
    assert sb.problem.set_Y.contains(y0)
    np.testing.assert_array_equal(y0, z0)
    x1, _, _ = sb.sample_init(np.random.default_rng(3))
    np.testing.assert_array_equal(x0, x1)


def test_generate_hyper_rep_shapes_and_determinism():
    d = generate_hyper_rep(20, 3, 15, 12, 30, 0.5, seed=9)
    assert d.H_real.shape == (20, 3) and d.w_real.shape == (3,)
    assert d.X_val.shape == (20, 15) and d.y_val.shape == (15,)
    assert d.X_train.shape == (20, 12) and d.y_train.shape == (12,)
    assert d.X_test.shape == (20, 30) and d.y_test.shape == (30,)
    assert d.n_feat == 20 and d.p_dim == 3
    d2 = generate_hyper_rep(20, 3, 15, 12, 30, 0.5, seed=9)
    np.testing.assert_array_equal(d.X_val, d2.X_val)
    np.testing.assert_array_equal(d.y_train, d2.y_train)


def test_hyper_rep_clean_test_split():
    # test targets are noise free regardless of a, and the planted (H, w)
    # reproduces them exactly when a = 0
    d = generate_hyper_rep(10, 2, 8, 8, 12, 0.0, seed=5)
    np.testing.assert_allclose(d.y_test, d.X_test.T @ d.H_real @ d.w_real)
    assert hyper_rep_test_loss(d, d.H_real.ravel(), d.w_real) == pytest.approx(0.0, abs=1e-20)
    prob = hyper_rep_problem(d)
    assert prob.F(d.H_real.ravel(), d.w_real) == pytest.approx(0.0, abs=1e-20)
    assert prob.f(d.H_real.ravel(), d.w_real) == pytest.approx(0.0, abs=1e-20)


def test_hyper_rep_noise_only_touches_train_val():
    clean = generate_hyper_rep(10, 2, 8, 8, 12, 0.0, seed=5)
    noisy = generate_hyper_rep(10, 2, 8, 8, 12, 0.7, seed=5)
    np.testing.assert_array_equal(clean.X_test, noisy.X_test)
    np.testing.assert_array_equal(clean.y_test, noisy.y_test)
    assert not np.array_equal(clean.y_val, noisy.y_val)


def test_hyper_rep_problem_contract():
    d = generate_hyper_rep(8, 2, 10, 10, 10, 0.3, seed=2)
    prob = hyper_rep_problem(d)
    assert prob.n_x == 16 and prob.n_y == 2
    assert prob.mu == 0.0
    assert prob.assumption_note  # violated concavity must be documented
    rep = check_gradients(prob, n_points=6)
    assert max(rep.errors.values()) < 1e-5


def test_hyper_rep_test_loss_matches_direct_formula():
    d = generate_hyper_rep(9, 2, 6, 6, 11, 0.2, seed=13)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(18)
    w = rng.standard_normal(2)
    r = d.X_test.T @ x.reshape(9, 2) @ w - d.y_test
    assert hyper_rep_test_loss(d, x, w) == pytest.approx(float(r @ r) / 11)


def test_hyper_rep_init_shapes():
    d = generate_hyper_rep(7, 3, 5, 5, 5, 0.1, seed=1)
    x0, y0, z0 = hyper_rep_init(d, np.random.default_rng(42))
    assert x0.shape == (21,) and y0.shape == (3,)
    np.testing.assert_array_equal(y0, z0)
    assert not np.shares_memory(y0, z0)


def test_generate_hyper_rep_validation():
    with pytest.raises(ContractViolation):
        generate_hyper_rep(0, 2, 5, 5, 5, 0.1, seed=1)
    with pytest.raises(ContractViolation):
        generate_hyper_rep(5, 2, 5, 5, 5, -0.1, seed=1)


def test_hyper_rep_test_loss_is_the_split_loss_on_the_test_split():
    data = generate_hyper_rep(4, 2, 6, 7, 9, 0.1, seed=5)
    on_test = hyper_rep_problem(replace(data, X_val=data.X_test,
                                        y_val=data.y_test))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, w = rng.standard_normal(8), rng.standard_normal(2)
        assert hyper_rep_test_loss(data, x, w) == on_test.F(x, w)
        assert hyper_rep_test_loss(data, list(x), list(w)) == on_test.F(x, w)


def _uncached_split(X, y):
    """The loss of split (X, y) and its gradients in x and w without a
    memo: every call multiplies out X.T @ H @ w."""
    n, m = X.shape[0], y.shape[0]

    def loss(x, w):
        r = X.T @ x.reshape(n, -1) @ w - y
        return float(np.dot(r, r) / m)

    def grad_x(x, w):
        r = X.T @ x.reshape(n, -1) @ w - y
        return ((2.0 / m) * np.outer(X @ r, w)).ravel()

    def grad_w(x, w):
        H = x.reshape(n, -1)
        return (2.0 / m) * ((X.T @ H).T @ (X.T @ H @ w - y))

    return loss, grad_x, grad_w


@pytest.mark.parametrize("p_dim", [1, 3])
def test_hyper_rep_memo_is_bit_identical_to_the_uncached_formulas(p_dim):
    # each split keeps X^T H for the last x it saw; one interleaved call
    # sequence over both splits must return what the uncached formulas do,
    # bit for bit, whatever x the memo holds
    data = generate_hyper_rep(7, p_dim, 10, 4, 5, 0.3, seed=4)
    prob = hyper_rep_problem(data)
    uncached = dict(zip(
        ("F", "grad_F_x", "grad_F_y", "f", "grad_f_x", "grad_f_y"),
        _uncached_split(data.X_val, data.y_val)
        + _uncached_split(data.X_train, data.y_train)))
    names = ("F", "f", "grad_F_x", "grad_f_x", "grad_F_y", "grad_f_y")
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((2, prob.n_x))
    w1, w2 = rng.standard_normal((2, p_dim))

    def check(name, x, w):
        got, want = getattr(prob, name)(x, w), uncached[name](x, w)
        assert type(got) is type(want) and np.array_equal(got, want), name

    for name in names:  # the same x twice
        check(name, x1, w1)
        check(name, x1, w2)
    for i in range(12):  # two x's alternating, on both splits in turn
        check(names[i % 6], (x1, x2)[i // 2 % 2], w1)
    moved = x2.copy()
    for j, name in enumerate(names):  # one array, changed in place
        check(name, moved, w1)
        moved[j] += 0.5
        check(name, moved, w1)
    # the rows of a block, as a batch of starts passes them
    block, w_block = np.stack([x1, x2, moved]), np.stack([w1, w2, w1])
    batched = rowwise_gradients(prob)
    for g in GRADIENTS:
        want = np.stack([uncached[g](x, w) for x, w in zip(block, w_block)])
        assert np.array_equal(getattr(batched, g)(block, w_block), want), g
    # the same bytes as another dtype, and the same values strided
    strided = np.repeat(x1, 2)[::2]
    for name in names:
        check(name, x1, w1)
        check(name, x1.view(np.int64), w1)
        check(name, x1, w1)
        check(name, strided, w1)


def test_quadratic_init_draws_inside_the_window():
    x0, y0, z0 = quadratic_init(np.random.default_rng(1))
    assert x0.shape == y0.shape == (1,)
    assert abs(x0[0]) <= 3.0 and abs(y0[0]) <= 3.0
    assert np.array_equal(z0, y0) and z0 is not y0
