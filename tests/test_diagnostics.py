import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.diagnostics import (
    merit_value,
    predicted_start,
    relative_error,
    relative_error_denominator,
    sandwich_check,
    snapshot,
)
from sipba.errors import ContractViolation
from sipba.problem import Ball
from sipba.saddle import (default_start, estimate_T_lipschitz, grad_phi,
                          solve_saddle)
from sipba.smoothing import PenaltyReg, direction_x, eval_psi
from sipba.solver import (
    IterateState,
    ScheduleParams,
    initial_state,
    params_at,
    sipba_step,
)

quad = quadratic_testbed()


def _schedule(alpha0, rho0, sigma0):
    return ScheduleParams(alpha0=alpha0, beta0=0.01, rho0=rho0, sigma0=sigma0,
                          p=0.01, q=0.01, s=0.16)


def _state(x, y, z):
    # k=2: one completed step, so params_at(sp, 1) = (alpha0, beta0, rho0, sigma0)
    return IterateState(k=2, x=np.array(x), y=np.array(y), z=np.array(z))


def test_relative_error_example():
    x_star, y_star = np.array([0.5]), np.array([0.5])
    den = relative_error_denominator(np.array([1.5]), np.array([1.5]),
                                     x_star, y_star)
    assert den == 2.0
    err = relative_error(np.array([1.0]), np.array([0.5]), x_star, y_star,
                         den)
    assert err == pytest.approx(0.125)


def test_relative_error_denominator_rejects_a_start_at_the_optimum():
    z = np.zeros(2)
    with pytest.raises(ContractViolation):
        relative_error_denominator(z, z, z, z)


def test_tracking_error_example():
    # saddle at x=1, rho=sigma=1 is (10/13, 12/13); distance from the origin
    # pair is sqrt(244)/13
    sn = snapshot(quad, _schedule(0.1, 1.0, 1.0), _state([1.0], [0.0], [0.0]),
                  oracle_tol=1e-12)
    assert sn.tracking_err == pytest.approx(np.sqrt(244.0) / 13.0, abs=1e-9)


def test_tracking_error_zero_at_saddle():
    sd = solve_saddle(quad, PenaltyReg(2.0, 0.5), [0.7], tol=1e-12)
    sn = snapshot(quad, _schedule(0.1, 2.0, 0.5),
                  _state([0.7], sd.y_star, sd.z_star), oracle_tol=1e-12)
    assert sn.tracking_err < 1e-10


def test_stationarity_residual_example():
    sn = snapshot(quad, _schedule(0.1, 1.0, 1.0), _state([1.0], [0.0], [0.0]),
                  oracle_tol=1e-12)
    assert sn.stat_residual == pytest.approx(10.0 / 13.0, abs=1e-9)


def test_stationarity_residual_step_invariant_without_constraints():
    # on a full space the residual is just ||grad phi|| for any alpha
    g = np.linalg.norm(grad_phi(quad, PenaltyReg(2.0, 0.4), [1.3], tol=1e-12))
    st = _state([1.3], [0.0], [0.0])
    for alpha in (0.01, 0.1, 1.0):
        sn = snapshot(quad, _schedule(alpha, 2.0, 0.4), st, oracle_tol=1e-12)
        assert sn.stat_residual == pytest.approx(g, abs=1e-9)
    # a state with no completed step has no step parameters to measure with
    with pytest.raises(ContractViolation,
                       match=r"snapshot needs a state after at least one "
                             r"step \(k >= 2\), got k=1$"):
        snapshot(quad, _schedule(0.1, 2.0, 0.4), replace(st, k=1))


def test_snapshot_matches_separate_formulas():
    sb = synthetic_problem(6)
    prob = sb.problem
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(prob, *sb.sample_init(np.random.default_rng(3)))
    for _ in range(3):
        for _ in range(17):
            st = sipba_step(prob, params_at(sp, st.k), st)
        sn = snapshot(prob, sp, st)
        pars = params_at(sp, st.k - 1)
        pr = PenaltyReg(pars.rho, pars.sigma)
        # a cold snapshot steps at 1/L_est, solve_saddle's default
        est = estimate_T_lipschitz(prob, pr, st.x, default_start(prob))
        sd = solve_saddle(prob, pr, st.x, tol=1e-8, beta=1.0 / est.value)
        g = direction_x(prob, pr, st.x, sd.y_star, sd.z_star)
        moved = prob.set_X.project(st.x - pars.alpha * g)
        assert sn.phi == eval_psi(prob, pr, st.x, sd.y_star, sd.z_star)
        assert sn.tracking_err == np.linalg.norm(
            np.concatenate((st.y, st.z)) - sd.u)
        assert sn.stat_residual == np.linalg.norm(st.x - moved) / pars.alpha


def test_a_cold_snapshot_is_the_default_solve():
    # without warm, a snapshot's solve is solve_saddle's default one at the
    # step's Params: the same SaddlePoint in all six fields, bit for bit
    sb = synthetic_problem(6)
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    states = [initial_state(sb.problem, *sb.sample_init(
        np.random.default_rng(3)))]
    for _ in range(40):
        states.append(sipba_step(sb.problem, params_at(sp, states[-1].k),
                                 states[-1]))
    for st in states[1::13]:
        sd = snapshot(sb.problem, sp, st, oracle_tol=1e-8).saddle
        ref = solve_saddle(sb.problem, params_at(sp, st.k - 1), st.x, 1e-8)
        for f in dataclasses.fields(sd):
            got, want = getattr(sd, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert type(got) is type(want) and got == want, f.name


# the predicted oracle start of a warm snapshot

def _quadratic_path(k):
    # a saddle path quadratic in k, inside the synthetic Y x Y at n=2
    a = np.array([3.0, 2.0, 2.0, 5.0])
    b = np.array([1e-3, -2e-3, 5e-3, 0.0])
    c = np.array([2e-6, 1e-6, -3e-6, 4e-6])
    return a + b * k + c * k * k


@pytest.mark.parametrize("ks, k", [((100, 200, 300), 400),
                                   ((100, 200, 250), 300)])
def test_predicted_start_is_exact_on_a_quadratic_path(ks, k):
    prob = synthetic_problem(2).problem
    trail = tuple((kj, _quadratic_path(kj)) for kj in ks)
    start = predicted_start(prob, trail, k)
    np.testing.assert_allclose(start, _quadratic_path(k), rtol=1e-12, atol=0)
    # two nodes extrapolate the line through them
    line = predicted_start(prob, trail[1:], k)
    u1, u2 = trail[1][1], trail[2][1]
    np.testing.assert_allclose(
        line, u2 + (u2 - u1) * (k - ks[2]) / (ks[2] - ks[1]), rtol=1e-12)


def test_predicted_start_of_one_node_is_that_saddle():
    u = _quadratic_path(100)
    assert predicted_start(quad, (), 200) is None
    assert predicted_start(quad, ((100, u),), 200) is u


def test_a_snapshot_after_one_node_starts_at_the_previous_saddle():
    # bit for bit the solve warm-started from the previous saddle alone
    sp = _schedule(0.1, 2.0, 0.4)
    first = snapshot(quad, sp, _state([1.3], [0.0], [0.0]))
    assert [k for k, _ in first.trail] == [2]
    assert first.trail[0][1].tolist() == first.saddle.u.tolist()
    st = IterateState(k=3, x=np.array([1.2]), y=np.zeros(1), z=np.zeros(1))
    sd = snapshot(quad, sp, st, warm=first).saddle
    pars = params_at(sp, 2)
    # and the step the previous solve ended with, scaled by rho_prev / rho
    ref = solve_saddle(quad, PenaltyReg(pars.rho, pars.sigma), st.x,
                       tol=1e-8, u0=first.saddle.u,
                       beta=first.saddle.beta * (first.rho / pars.rho))
    assert first.rho == params_at(sp, 1).rho < pars.rho
    for name in ("y_star", "z_star"):
        assert getattr(sd, name).tolist() == getattr(ref, name).tolist()
    for name in ("residual", "iterations", "beta", "converged"):
        assert getattr(sd, name) == getattr(ref, name)


def test_a_repeated_k_replaces_its_node():
    sb = synthetic_problem(6)
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(sb.problem, *sb.sample_init(np.random.default_rng(3)))
    sn, ks = None, []
    for _ in range(4):
        st = sipba_step(sb.problem, params_at(sp, st.k), st)
        sn = snapshot(sb.problem, sp, st, warm=sn)
        ks.append([k for k, _ in sn.trail])
    assert ks == [[2], [2, 3], [2, 3, 4], [3, 4, 5]]
    again = snapshot(sb.problem, sp, st, warm=sn)
    assert [k for k, _ in again.trail] == [3, 4, 5]
    assert again.trail[-1][1].tolist() == again.saddle.u.tolist()
    # the start at a node's own k is that node's saddle
    assert predicted_start(sb.problem, sn.trail, 5).tolist() == \
        sn.trail[-1][1].tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_a_non_finite_prediction_falls_back_to_the_previous_saddle(bad):
    prob = synthetic_problem(2).problem
    last = _quadratic_path(300)
    trail = ((100, _quadratic_path(100)), (200, np.full(4, bad)), (300, last))
    with np.errstate(over="ignore"):  # -3 * 1e308 overflows
        assert predicted_start(prob, trail, 400) is last


def test_the_predicted_start_lies_in_y_times_y():
    box = synthetic_problem(3).problem
    ball = replace(box, set_Y=Ball(np.array([1.0, -2.0, 0.5]), 0.4))
    rng = np.random.default_rng(5)
    for _ in range(20):
        trail = tuple((k, 3.0 * rng.standard_normal(6))
                      for k in (100, 200, 250))
        start = predicted_start(box, trail, 350)
        assert np.all(start >= np.tile(box.set_Y.lower, 2))
        start = predicted_start(ball, trail, 350)
        for half in (start[:3], start[3:]):
            assert np.linalg.norm(half - ball.set_Y.center) <= 0.4 * (1 + 1e-12)


def test_merit_value_example():
    # 16^-0.5 * 4 + 16^-0.25 * 1^2 = 1 + 0.5
    assert merit_value(16, 0.5, 0.25, 4.0, 1.0) == pytest.approx(1.5)


def test_sandwich_check_report():
    sb = synthetic_problem(4)
    x = np.full(4, 0.8)
    report = sandwich_check(sb, x, rho_list=[10.0, 100.0, 1000.0],
                            sigma_list=[0.1, 0.01, 0.001], oracle_tol=1e-9)
    assert len(report.records) == 9  # full grid
    assert report.lower_bounds_ok
    assert report.max_lower_violation <= 1e-8
    gaps = [abs(r.gap) for r in report.diagonal]
    assert len(gaps) == 3
    assert report.diagonal_monotone
    assert gaps[0] >= gaps[-1]
    text = str(report)
    assert "rho" in text and "diagonal monotone: True" in text


def test_sandwich_saddle_dev_matches_an_independent_solve():
    sb = synthetic_problem(3)
    x = np.full(3, 0.6)
    rhos, sigmas = [10.0, 100.0, 1000.0], [0.1, 0.01]
    report = sandwich_check(sb, x, rho_list=rhos, sigma_list=sigmas,
                            oracle_tol=1e-9)
    ys = sb.closed_form_y_star(x)
    limit = np.concatenate((ys, ys))
    for r in report.records:
        sd = solve_saddle(sb.problem, PenaltyReg(r.rho, r.sigma), x, tol=1e-9)
        assert r.saddle_dev == np.linalg.norm(sd.u - limit)
    assert [(r.rho, r.sigma) for r in report.diagonal] == list(zip(rhos, sigmas))
