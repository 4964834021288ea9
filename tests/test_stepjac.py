import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.solver import (Params, ScheduleParams, initial_state, params_at,
                          run)

from stepjac import flat, frozen_fixed_point, spectral_reading, step_jacobian


def test_quadratic_step_jacobian_is_its_written_out_map():
    # on the testbed (F = -(y-x)^2, f = (y-x)^2, no constraints) the step is
    # linear in v = (x, y, z):
    #   y+ = y - 2b(1+r)(y-x) - b s z
    #   z+ = z - 2b r (z-x) - b s (z-y)
    #   x+ = x - a (2(1+r)(y+ - x) - 2r (z+ - x))
    a, b, r, s = 0.1, 0.05, 3.0, 0.5
    yz = np.array([[2 * b * (1 + r), 1 - 2 * b * (1 + r), -b * s],
                   [2 * b * r, b * s, 1 - 2 * b * r - b * s]])
    x1 = (np.array([1 + 2 * a, 0.0, 0.0])
          - 2 * a * (1 + r) * yz[0] + 2 * a * r * yz[1])
    want = np.vstack((x1, yz))
    prob = quadratic_testbed()
    pars = Params(alpha=a, beta=b, rho=r, sigma=s)
    st = initial_state(prob, [0.7], [-1.3], [2.1])
    assert np.max(np.abs(step_jacobian(prob, pars, st, 1e-7) - want)) < 1e-6
    # a linear map's fixed point is 0
    fp, jac, gap = frozen_fixed_point(prob, pars, st)
    assert np.max(np.abs(flat(fp))) < 1e-12 and gap < 1e-12
    assert np.max(np.abs(jac - want)) < 1e-6
    # the map's eigenvalues are 1.035868 and 0.6496 +- 0.2190i: the power
    # iteration reads the real dominant one, with its sign
    ev = np.linalg.eigvals(want)
    np.testing.assert_allclose(np.sort_complex(ev), [
        0.6496 - 0.2190j, 0.6496 + 0.2190j, 1.035868], atol=1e-4)
    assert spectral_reading(prob, pars, st) == pytest.approx(
        (1.035868, 1.035868), abs=1e-6)


@pytest.mark.parametrize("beta0, rate, flip", [(0.5 / 101, 0.990, None),
                                               (1.2 / 101, 2.620, -2.620)],
                         ids=["stable", "flips"])
def test_synthetic_flip_edge(beta0, rate, flip):
    # the headline schedule at n=10, start 0, after 20000 steps; the step
    # frozen at k = 20001 has a fixed point, and its Jacobian there says
    # whether the iterates settle (spectral radius < 1) or flip sign each
    # step (a real eigenvalue below -1: the period-2 cycle). From the
    # 3000-step state Newton does not reach the flipping fixed point
    sy = synthetic_problem(10)
    sp = ScheduleParams(alpha0=0.1, beta0=beta0, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(sy.problem, *sy.sample_init(np.random.default_rng(0)))
    res, = run(sy.problem, sp, [st], 20000)
    _, jac, gap = frozen_fixed_point(sy.problem, params_at(sp, res.state.k),
                                     res.state)
    assert gap <= 1e-14
    ev = np.linalg.eigvals(jac)
    neg = ev.real[(ev.imag == 0) & (ev.real < 0)]
    assert np.max(np.abs(ev)) == pytest.approx(rate, abs=1e-3)
    if flip is None:
        assert neg.size == 0
    else:
        assert neg.min() == pytest.approx(flip, abs=1e-3)


@pytest.mark.parametrize("beta0, stable", [(5e-4, True), (7e-4, True),
                                           (1e-3, False)])
def test_a_1e_15_change_of_x0_is_amplified_only_at_the_flip_edge(beta0, stable):
    # the README schedule at n=100, starts 0-2, each beside a copy with x0
    # scaled by 1 + 1e-15, 1000 steps as one batch: below the flip edge the
    # change moves x by at most ~4e-14; at beta0 1e-3, the edge, it is
    # amplified to 4e-7-5e-4 as the rows fall into the period-2 cycle
    sy = synthetic_problem(100)
    sp = ScheduleParams(alpha0=0.1, beta0=beta0, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    starts = []
    for s in range(3):
        x0, y0, z0 = sy.sample_init(np.random.default_rng(s))
        starts += [initial_state(sy.problem, x0, y0, z0),
                   initial_state(sy.problem, x0 * (1.0 + 1e-15), y0, z0)]
    res = run(sy.problem, sp, starts, 1000)
    assert [r.stop_reason for r in res] == ["max_iter"] * 6
    moved = [np.max(np.abs(a.state.x - b.state.x))
             for a, b in zip(res[::2], res[1::2])]
    if stable:
        assert max(moved) < 1e-12
    else:
        assert min(moved) > 1e-9


@pytest.fixture(scope="module")
def readme_batch():
    """The README config's schedule at n=100 from starts 0-2, and from start
    0 at beta0 5e-4, below the flip edge: (the problem, the four rows'
    schedules, their results after 20000 steps as one batch)."""
    sy = synthetic_problem(100)
    sched = dict(alpha0=0.1, rho0=10.0, sigma0=0.01, p=0.001, q=0.001, s=0.1)
    sps = [ScheduleParams(beta0=1e-3, **sched)] * 3
    sps.append(ScheduleParams(beta0=5e-4, **sched))
    starts = [initial_state(sy.problem,
                            *sy.sample_init(np.random.default_rng(s)))
              for s in (0, 1, 2, 0)]
    return sy.problem, sps, run(sy.problem, sps, starts, 20000)


def test_the_readme_run_ends_in_a_period_2_cycle(readme_batch):
    # after 20000 steps x flips between two points each step
    # (||x_{k+1} - x_k|| 3.78e-3) and returns to within 4.8e-8 every second
    # step. Start 0 at beta0 5e-4 settles instead (4.4e-9 a step)
    prob, sps, res = readme_batch
    xs = []
    for k in range(3):  # x after 20000 + k steps
        if k:
            res = run(prob, sps, [r.state for r in res], 1)
        assert [r.stop_reason for r in res] == ["max_iter"] * 4
        xs.append(np.array([r.state.x for r in res]))
    one = np.linalg.norm(xs[1] - xs[0], axis=1)
    two = np.linalg.norm(xs[2] - xs[0], axis=1)
    assert (one[:3] > 1e-3).all() and (two[:3] < 1e-7).all()
    assert one[3] < 1e-7


def test_the_spectral_reading_of_the_readme_state(readme_batch):
    # start 0 after 20000 steps, the step frozen at k = 20001: at beta0 1e-3
    # the dominant eigenvalue is -1.93242, the period-2 cycle's flip. At
    # 5e-4 it is +0.99903 in a cluster of eigenvalues near 0.999, from
    # which 30 products read +0.99876 (0.99849-0.99880 from other fixed
    # starts): the iterates settle
    prob, sps, res = readme_batch
    flips = spectral_reading(prob, params_at(sps[0], res[0].state.k),
                             res[0].state)
    assert flips == pytest.approx((1.93242, -1.93242), abs=1e-5)
    settles = spectral_reading(prob, params_at(sps[3], res[3].state.k),
                               res[3].state)
    assert settles == pytest.approx((0.99877, 0.99877), abs=1e-4)
