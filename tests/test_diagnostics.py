from dataclasses import replace

import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.diagnostics import (
    lipschitz_phi_bound,
    merit_value,
    relative_error,
    relative_error_denominator,
    sandwich_check,
    snapshot,
)
from sipba.errors import ContractViolation
from sipba.saddle import grad_phi, solve_saddle
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
    with pytest.raises(ContractViolation):
        snapshot(quad, _schedule(0.1, 2.0, 0.4), replace(st, k=1))


def test_snapshot_matches_separate_formulas():
    sb = synthetic_problem(6)
    prob = sb.problem
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(prob, *sb.sample_init(np.random.default_rng(3)))
    for _ in range(3):
        for _ in range(17):
            st = sipba_step(prob, sp, st)
        sn = snapshot(prob, sp, st)
        pars = params_at(sp, st.k - 1)
        pr = PenaltyReg(pars.rho, pars.sigma)
        sd = solve_saddle(prob, pr, st.x, tol=1e-8)
        g = direction_x(prob, pr, st.x, sd.y_star, sd.z_star)
        moved = prob.set_X.project(st.x - pars.alpha * g)
        assert sn.phi == eval_psi(prob, pr, st.x, sd.y_star, sd.z_star)
        assert sn.tracking_err == np.linalg.norm(
            np.concatenate((st.y, st.z)) - sd.u)
        assert sn.stat_residual == np.linalg.norm(st.x - moved) / pars.alpha


def test_merit_value_example():
    # 16^-0.5 * 4 + 16^-0.25 * 1^2 = 1 + 0.5
    assert merit_value(16, 0.5, 0.25, 4.0, 1.0) == pytest.approx(1.5)


def test_lipschitz_phi_bound_example():
    # c = 1 + 2*1*1 = 3, sig_bar = 1: 3*(3+1)/1 = 12
    assert lipschitz_phi_bound(1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(12.0)
    with pytest.raises(ContractViolation):
        lipschitz_phi_bound(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ContractViolation):
        lipschitz_phi_bound(1.0, 1.0, 1.0, 2.0, 0.0)


def test_lipschitz_phi_bound_dominates_observed_slopes():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = rng.uniform(0.2, 5.0)
        sigma = rng.uniform(0.05, 2.0)
        pr = PenaltyReg(rho, sigma)
        bound = lipschitz_phi_bound(quad.lip_F, quad.lip_f, rho, quad.mu, sigma)
        x1 = np.array([rng.normal(scale=2.0)])
        x2 = np.array([rng.normal(scale=2.0)])
        if np.linalg.norm(x1 - x2) < 1e-6:
            continue
        g1 = grad_phi(quad, pr, x1, tol=1e-11)
        g2 = grad_phi(quad, pr, x2, tol=1e-11)
        slope = np.linalg.norm(g1 - g2) / np.linalg.norm(x1 - x2)
        assert slope <= bound * (1 + 1e-6) + 1e-8


def test_sandwich_check_report():
    sb = synthetic_problem(4)
    x = np.full(4, 0.8)
    report = sandwich_check(sb, x, rho_list=[10.0, 100.0, 1000.0],
                            sigma_list=[0.1, 0.01, 0.001], oracle_tol=1e-9)
    assert len(report.records) == 9  # full grid
    assert report.lower_bounds_ok
    assert report.max_lower_violation <= 1e-8
    assert len(report.diagonal_gaps) == 3
    assert report.diagonal_monotone
    assert report.diagonal_gaps[0] >= report.diagonal_gaps[-1]
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
    assert report.diagonal_gaps == [abs(r.gap) for r in report.diagonal]
