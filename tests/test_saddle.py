import numpy as np
import pytest

from sipba.benchmarks import (analytic_saddle, generate_hyper_rep,
                              hyper_rep_init, hyper_rep_problem,
                              quadratic_testbed, synthetic_problem)
from sipba.errors import (
    ContractViolation,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from sipba import saddle
from sipba.saddle import (
    default_start,
    estimate_T_lipschitz,
    eval_phi,
    grad_phi,
    lemma_step_bound,
    solve_saddle,
)
from sipba.smoothing import PenaltyReg, operator_T
from sipba.solver import ScheduleParams, initial_state, params_at, sipba_step

quad = quadratic_testbed()


def test_lemma_step_bound_value():
    # mu=2, lip_F=2, lip_f=2: min(1,2) / (2 + 1*2 + 2*1)^2 = 1/36
    assert lemma_step_bound(quad, PenaltyReg(1.0, 1.0)) == pytest.approx(1.0 / 36.0)


def test_lemma_step_bound_refuses_mu_zero():
    from dataclasses import replace

    weak = replace(quad, mu=0.0, assumption_note="concavity assumption dropped")
    with pytest.raises(ContractViolation):
        lemma_step_bound(weak, PenaltyReg(1.0, 1.0))


def test_lemma_step_bound_overflow():
    with pytest.raises(ParameterOverflowError):
        lemma_step_bound(quad, PenaltyReg(1e300, 1.0))


def test_default_start_projects_zero():
    prob = synthetic_problem(4).problem
    u0 = default_start(prob)
    lo = 1.0 / (2.0 * np.sqrt(4))
    np.testing.assert_allclose(u0, np.full(8, lo))


def test_lipschitz_estimate_brackets_jacobian():
    # T is affine on the testbed with Jacobian [[2(1+rho), sigma], [-sigma, 2rho+sigma]]
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho, sigma = rng.uniform(0.3, 4.0), rng.uniform(0.1, 1.5)
        A = np.array([[2 * (1 + rho), sigma], [-sigma, 2 * rho + sigma]])
        smin, smax = np.linalg.svd(A, compute_uv=False)[[1, 0]]
        pr = PenaltyReg(rho, sigma)
        cold = estimate_T_lipschitz(quad, pr, np.array([1.0]), np.zeros(2))
        # any unit direction does, so a warm one from another point too
        warm = estimate_T_lipschitz(quad, pr, np.array([-0.4]),
                                    np.array([2.0, 1.0]), cold.vector)
        for est in (cold.value, warm.value):
            assert smin * (1 - 1e-8) <= est <= smax * (1 + 1e-8)


def test_lipschitz_estimate_deterministic():
    pr = PenaltyReg(2.0, 0.5)
    a = estimate_T_lipschitz(quad, pr, np.array([0.7]), np.zeros(2))
    b = estimate_T_lipschitz(quad, pr, np.array([0.7]), np.zeros(2))
    assert a.value == b.value and a.calls == b.calls == 31
    np.testing.assert_array_equal(a.vector, b.vector)


def test_warm_lipschitz_estimate_matches_cold_on_affine_T():
    # T is linear at x=0, u=0, so the differences are exact to rounding.
    # Where the Jacobian's eigenvalues are real and well apart, 30 cold
    # power iterations converge, and 3 warm ones from a converged direction
    # (carried from another point: the Jacobian is constant) agree
    rng = np.random.default_rng(5)
    x, u = np.zeros(1), np.zeros(2)
    for _ in range(10):
        pr = PenaltyReg(rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.2))
        cold = estimate_T_lipschitz(quad, pr, x, u)
        elsewhere = estimate_T_lipschitz(quad, pr, np.array([1.3]),
                                         np.array([0.4, -2.0]))
        for v0 in (cold.vector, elsewhere.vector):
            warm = estimate_T_lipschitz(quad, pr, x, u, v0)
            assert warm.calls == 4
            assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=0)


@pytest.mark.parametrize("v0", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0],
                                [1e308, 1e308]])
def test_warm_vector_without_a_finite_norm_falls_back_to_cold(v0):
    pr = PenaltyReg(2.0, 0.5)
    x, u = np.array([0.7]), np.array([0.1, -0.3])
    cold = estimate_T_lipschitz(quad, pr, x, u)
    with np.errstate(over="ignore"):  # the norm of the last v0 overflows
        got = estimate_T_lipschitz(quad, pr, x, u, np.array(v0))
    assert got.value == cold.value and got.calls == 31
    np.testing.assert_array_equal(got.vector, cold.vector)
    assert got.value > pr.sigma


def test_warm_estimate_that_finds_nothing_falls_back_to_cold(monkeypatch):
    # an operator flat along the warm direction gives a zero difference:
    # the estimate restarts cold instead of returning sigma
    A = np.array([[3.0, 0.0], [0.0, 0.0]])
    monkeypatch.setattr(saddle, "operator_T", lambda problem, pr, x, u: A @ u)
    pr = PenaltyReg(1.0, 0.5)
    got = estimate_T_lipschitz(quad, pr, np.zeros(1), np.zeros(2),
                               np.array([0.0, 1.0]))
    assert got.calls == 1 + 1 + 30
    assert got.value == pytest.approx(3.0, rel=1e-12)


def test_warm_solve_with_too_small_estimate_converges_through_backoff():
    # J = [[2.2, 0.05], [-0.05, 0.25]] has real eigenvalues 2.198 and 0.252.
    # Seeded with the small one's eigenvector, 3 power iterations stay on
    # it, so beta = 1/(2*0.252) is about four times too large for the
    # dominant mode; the stall safeguard halves it until the solve converges.
    # First a warm solve as run_double_loop_baseline makes one: at the
    # previous saddle, with the step from 3 power iterations seeded by the
    # previous estimate's direction
    pr0, pr1 = PenaltyReg(3.0, 0.5), PenaltyReg(3.1, 0.49)
    first = estimate_T_lipschitz(quad, pr0, np.array([2.0]), default_start(quad))
    cold = solve_saddle(quad, pr0, [2.0], tol=1e-11,
                        beta=1.0 / (2.0 * first.value))
    near = estimate_T_lipschitz(quad, pr1, np.array([2.1]), cold.u,
                                first.vector)
    warm = solve_saddle(quad, pr1, [2.1], tol=1e-11, u0=cold.u,
                        beta=1.0 / (2.0 * near.value))
    assert near.calls == 4 and warm.converged
    ys, zs = analytic_saddle(2.1, 3.1, 0.49)
    np.testing.assert_allclose(warm.u, np.concatenate((ys, zs)), atol=1e-9)

    rho, sigma = 0.1, 0.05
    pr = PenaltyReg(rho, sigma)
    J = np.array([[2 * (1 + rho), sigma], [-sigma, 2 * rho + sigma]])
    lam, vecs = np.linalg.eig(J)
    small = vecs[:, np.argmin(lam)].real
    est = estimate_T_lipschitz(quad, pr, np.ones(1), np.zeros(2), small)
    assert est.value == pytest.approx(lam.min(), rel=1e-6)
    assert est.calls == 4
    sd = solve_saddle(quad, pr, [1.0], tol=1e-10, u0=np.zeros(2),
                      beta=1.0 / (2.0 * est.value))
    assert sd.converged
    # halved from 1/(2*est) to below 2/lambda_max, where it contracts
    assert sd.beta <= 0.25 / est.value and sd.beta < 2.0 / lam.max()
    ys, zs = analytic_saddle(1.0, rho, sigma)
    np.testing.assert_allclose(sd.u, np.concatenate((ys, zs)), atol=1e-8)


def test_warm_baseline_on_hyper_rep_has_no_oracle_failures(monkeypatch):
    # 200 outer steps of criterion 07's baseline schedule on a small
    # instance, under a budget of exactly what they spend: every solve
    # after the first is warm, none fails, x stays finite
    from sipba import solver
    from sipba.benchmarks import (generate_hyper_rep, hyper_rep_init,
                                  hyper_rep_problem)
    from sipba.solver import ScheduleParams, run_double_loop_baseline

    data = generate_hyper_rep(10, 2, 20, 20, 50, 0.1, seed=7)
    prob = hyper_rep_problem(data)
    x0, _, _ = hyper_rep_init(data, np.random.Generator(np.random.Philox(42)))
    sp = ScheduleParams(alpha0=0.2, beta0=1e-4, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)

    class Spent(Exception):
        """Ends an unbounded run after its 200th outer step."""

    def stop_at_200(k, x, sd, evals, elapsed):
        if k == 200:
            raise Spent(evals)

    with pytest.raises(Spent) as spent:
        run_double_loop_baseline(prob, sp, x0, 10**9, inner_tol=1e-5,
                                 callback=stop_at_200)
    calls = []

    def count_estimates(*args):
        est = estimate_T_lipschitz(*args)
        calls.append(est.calls)
        return est

    monkeypatch.setattr(solver, "estimate_T_lipschitz", count_estimates)
    res = run_double_loop_baseline(prob, sp, x0, spent.value.args[0],
                                   inner_tol=1e-5)
    assert res.outer_iterations == 200
    assert res.inner_failures == 0
    assert np.isfinite(res.x).all()
    assert calls == [31] + [4] * 199


def test_solve_saddle_example():
    # x=1, rho=sigma=1: saddle at y*=10/13, z*=12/13
    sd = solve_saddle(quad, PenaltyReg(1.0, 1.0), [1.0], tol=1e-12)
    assert sd.converged
    assert sd.residual <= 1e-12
    np.testing.assert_allclose(sd.y_star, [10.0 / 13.0], atol=1e-9)
    np.testing.assert_allclose(sd.z_star, [12.0 / 13.0], atol=1e-9)
    np.testing.assert_array_equal(sd.u, np.concatenate((sd.y_star, sd.z_star)))


def test_the_default_step_converges_on_complex_eigenvalues():
    # at (rho, sigma) = (0.84, 1.07) the Jacobian of the quadratic
    # testbed's T, [[2(1+rho), sigma], [-sigma, 2rho+sigma]], has complex
    # eigenvalues, and the power iteration settles below their modulus: the
    # default step 1/L_est is longer than 1/|lambda|, yet it converges
    rho, sigma = 0.84, 1.07
    pr = PenaltyReg(rho, sigma)
    lam = np.linalg.eigvals([[2.0 * (1.0 + rho), sigma],
                             [-sigma, 2.0 * rho + sigma]])
    assert np.all(lam.imag != 0.0)
    for x in (-3.0, -1.0, 0.5, 2.0, 5.0):
        est = estimate_T_lipschitz(quad, pr, np.array([x]), default_start(quad))
        assert est.value < np.abs(lam).max()
        sd = solve_saddle(quad, pr, [x], tol=1e-11)
        assert sd.converged and sd.beta == 1.0 / est.value
        ys, zs = analytic_saddle(x, rho, sigma)
        np.testing.assert_allclose(sd.y_star, ys, atol=1e-9)
        np.testing.assert_allclose(sd.z_star, zs, atol=1e-9)


def test_solve_saddle_matches_analytic_solution():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.normal(scale=2.0)
        rho, sigma = rng.uniform(0.1, 8.0), rng.uniform(0.05, 2.0)
        sd = solve_saddle(quad, PenaltyReg(rho, sigma), [x], tol=1e-11)
        ys, zs = analytic_saddle(x, rho, sigma)
        np.testing.assert_allclose(sd.y_star, ys, atol=1e-8)
        np.testing.assert_allclose(sd.z_star, zs, atol=1e-8)


def test_phi_and_grad_examples():
    pr = PenaltyReg(1.0, 1.0)
    assert eval_phi(quad, pr, [1.0], tol=1e-12) == pytest.approx(-5.0 / 13.0, abs=1e-9)
    np.testing.assert_allclose(grad_phi(quad, pr, [1.0], tol=1e-12), [-10.0 / 13.0], atol=1e-9)


def test_residual_monotone_under_certified_step():
    # with beta below the lemma bound the fixed-point residual never increases
    rng = np.random.default_rng(11)
    for _ in range(10):
        pr = PenaltyReg(rng.uniform(0.3, 4.0), rng.uniform(0.1, 1.5))
        beta = 0.9 * lemma_step_bound(quad, pr)
        x = rng.normal(size=1)
        u = rng.normal(scale=3.0, size=2)
        prev = np.inf
        for _ in range(300):
            u_next = u - beta * operator_T(quad, pr, x, u)
            res = np.linalg.norm(u - u_next) / beta
            assert res <= prev * (1 + 1e-12) + 1e-12
            prev = res
            u = u_next


def test_warm_start_reconverges_immediately():
    pr = PenaltyReg(3.0, 0.5)
    sd1 = solve_saddle(quad, pr, [2.0], tol=1e-11)
    sd2 = solve_saddle(quad, pr, [2.0], tol=1e-11, u0=sd1.u)
    assert sd2.iterations <= 3
    assert sd2.converged


def test_solve_saddle_respects_constraints():
    prob = synthetic_problem(3).problem
    sd = solve_saddle(prob, PenaltyReg(5.0, 0.2), np.full(3, 2.0), tol=1e-9)
    assert prob.set_Y.contains(sd.y_star)
    assert prob.set_Y.contains(sd.z_star)


def test_solve_saddle_max_iter_exhaustion():
    with pytest.raises(SaddleConvergenceError) as ei:
        solve_saddle(quad, PenaltyReg(1.0, 1.0), [1.0], tol=1e-14, max_iter=3)
    err = ei.value
    assert err.saddle.iterations == 3
    assert not err.saddle.converged
    assert np.isfinite(err.saddle.residual)


def inject_T(monkeypatch, T):
    """Make the oracle iterate on T(u), u = (y, z) stacked: its loop steps
    y along direction_y, T's y half negated, and z against direction_z,
    T's z half."""
    def dy(problem, pr, x, y, z):
        return -T(np.concatenate((y, z)))[:y.size]

    def dz(problem, pr, x, y, z):
        return T(np.concatenate((y, z)))[y.size:]

    monkeypatch.setattr(saddle, "direction_y", dy)
    monkeypatch.setattr(saddle, "direction_z", dz)


def test_solve_saddle_stall_reports_real_iteration_count(monkeypatch):
    # a sign operator never settles: the iterate flips around 0 and the
    # residual stays sqrt(2), so the stall safeguard halves beta until it
    # gives up, long before max_iter
    inject_T(monkeypatch, lambda u: np.copysign(1.0, u))
    with pytest.raises(SaddleConvergenceError, match="stalled") as ei:
        solve_saddle(quad, PenaltyReg(1.0, 1.0), [0.0], beta=0.5)
    err = ei.value
    # 60 halvings after 200 stalled iterations each, then the 61st window
    assert 61 * 200 <= err.saddle.iterations < 62 * 200
    assert "%d iterations" % err.saddle.iterations in str(err)
    assert not err.saddle.converged
    assert err.saddle.residual == pytest.approx(np.sqrt(2.0))


def test_solve_saddle_non_finite_steps_halve_from_the_same_point(monkeypatch):
    # an operator that is never finite: each iteration halves beta and
    # retries from u0, and the 61st halving gives up
    inject_T(monkeypatch, lambda u: np.full_like(u, np.inf))
    with pytest.raises(SaddleConvergenceError,
                       match="^oracle diverged even after step backoff$") as ei:
        solve_saddle(quad, PenaltyReg(1.0, 1.0), [0.0], u0=[0.5, -0.5],
                     beta=0.5)
    sd = ei.value.saddle
    assert (sd.iterations, sd.beta, sd.converged) == (61, 0.5 * 2.0**-60, False)
    assert np.array_equal(sd.u, [0.5, -0.5])
    assert not np.isfinite(ei.value.saddle.residual)


def test_solve_saddle_step_underflow_is_not_convergence(monkeypatch):
    # a non-monotone linear operator: the iterate spirals outward, the stall
    # safeguard halves beta until u - beta*T rounds back to u, and the zero
    # residual of that frozen step must not read as convergence
    A = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    inject_T(monkeypatch, lambda u: A @ u)
    with pytest.raises(SaddleConvergenceError, match="step underflow") as ei:
        solve_saddle(quad, PenaltyReg(1.0, 1.0), [0.0], tol=1e-10,
                     u0=[1.0, 1.0], beta=0.5)
    err = ei.value
    sd = err.saddle
    assert not sd.converged
    assert "after %d iterations" % sd.iterations in str(err)
    assert sd.iterations == 10654
    assert sd.beta < 1e-16
    u = sd.u
    assert np.array_equal(u - sd.beta * (A @ u), u)
    assert err.saddle.residual == pytest.approx(np.linalg.norm(A @ u))
    assert err.saddle.residual > 1e20


_SPIRAL = np.array([[-0.1, 1.0], [-1.0, -0.1]])


@pytest.mark.parametrize("T, u0, kwargs, exit_", [
    (None, [0.5, -0.5], {}, None),
    # a never-finite step leaves the iterate at u0 itself
    (lambda u: np.full_like(u, np.inf), [0.5, -0.5],
     {"beta": 0.5, "max_iter": 1}, "max_iter=1"),
    (lambda u: np.copysign(1.0, u), [0.5, -0.5], {"beta": 0.5}, "stalled"),
    (lambda u: np.full_like(u, np.inf), [0.5, -0.5], {"beta": 0.5},
     "diverged"),
    (lambda u: _SPIRAL @ u, [1.0, 1.0], {"beta": 0.5, "tol": 1e-10},
     "step underflow"),
], ids=["converged", "max_iter", "stalled", "diverged", "underflow"])
def test_solve_saddle_reads_u0_and_never_hands_it_out(monkeypatch, T, u0,
                                                      kwargs, exit_):
    # a float64 u0 of the right shape enters the loop as is, not copied:
    # no exit may write it or return a view of it
    if T is not None:
        inject_T(monkeypatch, T)
    u0 = np.array(u0)
    bits = u0.tobytes()
    args = (quad, PenaltyReg(1.0, 1.0), [0.0])
    if exit_ is None:
        sd = solve_saddle(*args, u0=u0, **kwargs)
        assert sd.converged
    else:
        with pytest.raises(SaddleConvergenceError, match=exit_) as ei:
            solve_saddle(*args, u0=u0, **kwargs)
        sd = ei.value.saddle
        assert not sd.converged
    assert u0.tobytes() == bits
    assert not np.shares_memory(sd.y_star, u0)
    assert not np.shares_memory(sd.z_star, u0)


def test_solve_saddle_argument_validation():
    pr = PenaltyReg(1.0, 1.0)
    with pytest.raises(ParameterOverflowError):
        solve_saddle(quad, pr, [1.0], beta=0.0)
    with pytest.raises(ContractViolation, match=r"^x must have shape \(1,\)"):
        solve_saddle(quad, pr, [1.0, 2.0])
    with pytest.raises(ContractViolation, match=r"^u0 must have shape \(2,\)"):
        solve_saddle(quad, pr, [1.0], u0=[1.0, 2.0, 3.0])
    # the u0 stack is (y, z): a y block alone, or a 0-d start, is too short
    for u0 in ([1.0], 1.0):
        with pytest.raises(ContractViolation, match=r"^u0 must have shape \(2,\)"):
            solve_saddle(quad, pr, [1.0], u0=u0)
    pair = synthetic_problem(2).problem
    with pytest.raises(ContractViolation, match=r"^x must have shape \(2,\)"):
        solve_saddle(pair, pr, 1.0)
    # a 0-d x is a vector of length one
    a = solve_saddle(quad, pr, 1.0, tol=1e-10)
    assert np.array_equal(a.u, solve_saddle(quad, pr, [1.0], tol=1e-10).u)


def test_solver_deterministic():
    pr = PenaltyReg(2.0, 0.3)
    a = solve_saddle(quad, pr, [1.3], tol=1e-10)
    b = solve_saddle(quad, pr, [1.3], tol=1e-10)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.iterations == b.iterations


def test_minimax_interchange():
    # min_z max_y psi equals max_y min_z psi on the testbed (unique saddle);
    # psi is an exact quadratic in each block, so three-point fits recover
    # the inner optimum exactly
    from sipba.smoothing import eval_psi

    def inner_max_y(pr, x, z):
        ys = np.array([-1.0, 0.0, 1.0])
        c = np.polyfit(ys, [eval_psi(quad, pr, x, [y], z) for y in ys], 2)
        yopt = -c[1] / (2 * c[0])
        return float(np.polyval(c, yopt))

    def inner_min_z(pr, x, y):
        zs = np.array([-1.0, 0.0, 1.0])
        c = np.polyfit(zs, [eval_psi(quad, pr, x, y, [z]) for z in zs], 2)
        zopt = -c[1] / (2 * c[0])
        return float(np.polyval(c, zopt))

    rng = np.random.default_rng(9)
    for _ in range(10):
        pr = PenaltyReg(rng.uniform(0.5, 4.0), rng.uniform(0.2, 1.5))
        x = np.array([rng.normal()])
        zs = np.array([-1.0, 0.0, 1.0])
        cz = np.polyfit(zs, [inner_max_y(pr, x, [z]) for z in zs], 2)
        min_max = float(np.polyval(cz, -cz[1] / (2 * cz[0])))
        ys = np.array([-1.0, 0.0, 1.0])
        cy = np.polyfit(ys, [inner_min_z(pr, x, [y]) for y in ys], 2)
        max_min = float(np.polyval(cy, -cy[1] / (2 * cy[0])))
        assert min_max == pytest.approx(max_min, abs=1e-8)
        assert eval_phi(quad, pr, x, tol=1e-11) == pytest.approx(min_max, abs=1e-8)


def _family_start(family):
    """A problem of the family and a start on it."""
    rng = np.random.default_rng(5)
    if family == "quadratic":
        return quad, ([0.7], [-1.3], [2.1])
    if family == "synthetic":
        sb = synthetic_problem(10)
        return sb.problem, sb.sample_init(rng)
    data = generate_hyper_rep(6, 2, 12, 12, 10, 0.1, seed=3)
    return hyper_rep_problem(data), hyper_rep_init(data, rng)


@pytest.mark.parametrize("family", ["quadratic", "synthetic", "hyper_rep"])
def test_the_single_loop_step_is_one_oracle_iteration(family):
    # sipba_step's (y+, z+) is the oracle's first iterate from (y, z) at
    # beta_k, bit for bit, along 30 steps of a run: both take _step_yz
    problem, start = _family_start(family)
    sp = ScheduleParams(alpha0=0.01, beta0=1e-3, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    st = initial_state(problem, *start)
    unsolved = 0
    for _ in range(30):
        pars = params_at(sp, st.k)
        nxt = sipba_step(problem, pars, st)
        try:
            sd = solve_saddle(problem, pars, st.x, max_iter=1,
                              u0=np.concatenate((st.y, st.z)), beta=pars.beta)
        except SaddleConvergenceError as err:
            sd = err.saddle
            unsolved += 1
        assert sd.iterations == 1 and sd.beta == pars.beta
        assert np.array_equal(sd.y_star, nxt.y)
        assert np.array_equal(sd.z_star, nxt.z)
        st = nxt
    assert unsolved == 30  # one iteration does not reach the saddle
