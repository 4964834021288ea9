import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sipba import solver

from sipba.benchmarks import (generate_hyper_rep, hyper_rep_init,
                              hyper_rep_problem, quadratic_testbed,
                              synthetic_problem)
from sipba.errors import (
    ContractViolation,
    DivergenceError,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from sipba.problem import GRADIENTS
from sipba.saddle import estimate_T_lipschitz, solve_saddle
from sipba.smoothing import PenaltyReg, direction_x
from sipba.solver import (
    ScheduleParams,
    initial_state,
    params_at,
    run,
    run_double_loop_baseline,
    sipba_step,
)

from gradcalls import with_gradient_counter

quad = quadratic_testbed()

# constant-at-k=1 schedule inside the guaranteed regime; handy for the
# worked examples because params_at(., 1) returns the base values exactly
SP_UNIT = ScheduleParams(alpha0=0.1, beta0=0.1, rho0=1.0, sigma0=1.0,
                         p=0.01, q=0.01, s=0.16)


def test_schedule_validation_and_warnings():
    with pytest.raises(ContractViolation):
        ScheduleParams(alpha0=0.0, beta0=1.0, rho0=1.0, sigma0=1.0, p=0.1, q=0.1, s=0.4)
    with pytest.raises(ContractViolation):
        ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0, p=-0.1, q=0.1, s=0.4)
    with pytest.warns(UserWarning):
        # s = 1/2 sits outside the guaranteed range but must still construct
        ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0, p=0.1, q=0.1, s=0.5)
    with pytest.warns(UserWarning):
        # s below 8(p+q)
        ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0, p=0.1, q=0.1, s=0.4)


def test_schedule_warnings_point_at_the_caller():
    # both regime warnings name the line that built the schedule, not the
    # dataclass-generated __init__
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0,
                       p=0.1, q=0.1, s=0.5)
        ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0,
                       p=0.1, q=0.1, s=0.4)
    assert len(seen) == 2
    assert "guaranteed regime" in str(seen[0].message)
    assert "guaranteed-rate regime" in str(seen[1].message)
    assert [w.filename for w in seen] == [__file__] * 2


def test_schedule_merit_exponent_is_derived():
    # the guaranteed regime fixes t = 4p + 5q; it cannot be set by hand
    sp = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=10.0, sigma0=0.1,
                        p=0.02, q=0.01, s=0.24)
    assert sp.t_exp == 4.0 * 0.02 + 5.0 * 0.01
    with pytest.raises(TypeError):
        ScheduleParams(alpha0=0.1, beta0=0.01, rho0=10.0, sigma0=0.1,
                       p=0.02, q=0.01, s=0.24, t_exp=1.5)


def test_params_at_decay_example():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = ScheduleParams(alpha0=1.0, beta0=1.0, rho0=1.0, sigma0=1.0,
                            p=0.1, q=0.1, s=0.5)
    assert params_at(sp, 16).alpha == pytest.approx(0.25)


def test_params_at_formulas_and_monotonicity():
    sp = ScheduleParams(alpha0=0.3, beta0=0.01, rho0=2.0, sigma0=0.5,
                        p=0.02, q=0.01, s=0.3)
    for k in (1, 2, 7, 100):
        pars = params_at(sp, k)
        assert pars.alpha == pytest.approx(0.3 * k ** -0.3)
        assert pars.beta == pytest.approx(0.01 * k ** -(2 * 0.02 + 0.01))
        assert pars.rho == pytest.approx(2.0 * k ** 0.02)
        assert pars.sigma == pytest.approx(0.5 * k ** -0.01)
    seq = [params_at(sp, k) for k in range(1, 60)]
    for a, b in zip(seq, seq[1:]):
        assert b.alpha <= a.alpha and b.beta <= a.beta
        assert b.sigma <= a.sigma and b.rho >= a.rho


def test_params_at_rho_cap():
    # rho_k stops at 1e12, a constant: a schedule is the paper's seven
    # coefficients and nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=10.0, sigma0=0.1,
                            p=0.5, q=0.05, s=0.45)
    assert params_at(sp, 10 ** 20).rho == 10.0 * 1e10
    assert params_at(sp, 10 ** 24).rho == 1e12
    with pytest.raises(TypeError):
        ScheduleParams(alpha0=0.1, beta0=0.01, rho0=10.0, sigma0=0.1,
                       p=0.001, q=0.001, s=0.1, rho_cap=50.0)


@pytest.mark.parametrize("over, k, message", [
    ({"p": 1000.0}, 3, "schedule left the float range at k=3: k^p overflows "
                       "for p=1000.0"),
    ({"q": 400.0}, 7, "schedule left the float range at k=7: "
                      "rho_k=%r, sigma_k=0.0" % (10.0 * 7.0**0.001)),
], ids=["p=1000", "q=400"])
def test_params_at_names_k_where_the_schedule_leaves_the_float_range(
        over, k, message):
    # k^p overflows (p=1000), or sigma_k rounds to 0 (q=400): the one
    # schedule evaluator raises, naming k, and the step before is fine
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # outside the regime
        sp = ScheduleParams(**{**dict(alpha0=0.1, beta0=0.001, rho0=10.0,
                                      sigma0=0.01, p=0.001, q=0.001, s=0.1),
                               **over})
    params_at(sp, k - 1)
    with pytest.raises(ParameterOverflowError) as err:
        params_at(sp, k)
    assert str(err.value) == message


def test_params_at_rejects_bad_counter():
    for k in (0, -3, 1.5):
        with pytest.raises(ContractViolation):
            params_at(SP_UNIT, k)


def test_initial_state_projects_and_defaults_z():
    prob = synthetic_problem(3).problem
    st = initial_state(prob, np.full(3, -5.0), np.zeros(3))
    assert st.k == 1
    np.testing.assert_array_equal(st.x, np.full(3, 0.1))
    np.testing.assert_array_equal(st.y, st.z)
    assert not np.shares_memory(st.y, st.z)


def test_sipba_step_worked_example():
    # x=1, y=z=0, alpha=beta=0.1, rho=sigma=1  ->  (1.08, 0.4, 0.2)
    st = initial_state(quad, [1.0], [0.0], [0.0])
    nxt = sipba_step(quad, params_at(SP_UNIT, st.k), st)
    assert nxt.k == 2
    np.testing.assert_allclose(nxt.x, [1.08])
    np.testing.assert_allclose(nxt.y, [0.4])
    np.testing.assert_allclose(nxt.z, [0.2])


def test_step_costs_exactly_six_gradient_evaluations():
    counted, counter = with_gradient_counter(quadratic_testbed())
    st = initial_state(counted, [1.0], [0.0])
    for i in range(1, 11):
        st = sipba_step(counted, params_at(SP_UNIT, st.k), st)
        assert counter.count == 6 * i


def test_iterates_stay_feasible():
    sb = synthetic_problem(4)
    prob = sb.problem
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    st = initial_state(prob, np.full(4, 9.0), np.full(4, 5.0))
    for _ in range(60):
        st = sipba_step(prob, params_at(sp, st.k), st)
        assert prob.set_X.contains(st.x)
        assert prob.set_Y.contains(st.y)
        assert prob.set_Y.contains(st.z)


def test_run_counts_and_stop_reason():
    st = initial_state(quad, [1.0], [0.0])
    (res,) = run(quad, SP_UNIT, [st], max_iter=25)
    assert res.iterations == 25
    assert res.state.k == 26
    assert res.stop_reason == "max_iter"
    assert res.target_iteration is None
    assert res.step_seconds >= 0.0


def test_run_zero_and_negative_max_iter():
    st = initial_state(quad, [1.0], [0.0])
    (res,) = run(quad, SP_UNIT, [st], max_iter=0)
    assert res.iterations == 0 and res.state is st
    with pytest.raises(ContractViolation):
        run(quad, SP_UNIT, [st], max_iter=-1)
    # the callback follows the steps of the call: max_iter=0 takes none, so
    # it fires none, also from a state with k > 1
    st = run(quad, SP_UNIT, [st], 7)[0].state
    seen = []
    (res,) = run(quad, SP_UNIT, [st], max_iter=0,
                 callback=lambda i, s, t: seen.append(s.k))
    assert seen == []
    assert res.state is st and res.iterations == 7


def test_run_rejects_a_start_that_is_not_in_a_list():
    # without the check, list(state) would raise a TypeError that names
    # neither run nor its starts
    st = initial_state(quad, [1.0], [0.0])
    with pytest.raises(ContractViolation, match="run takes a list of starts"):
        run(quad, SP_UNIT, st, max_iter=5)


def test_run_rejects_callback_stride_below_one():
    st = initial_state(quad, [1.0], [0.0])
    for stride in (0, -3):
        with pytest.raises(ContractViolation, match="callback_stride"):
            run(quad, SP_UNIT, [st], max_iter=5,
                callback=lambda i, s, t: None, callback_stride=stride)


def test_run_callback_stride_and_final_emission():
    st = initial_state(quad, [1.0], [0.0])
    seen = []
    run(quad, SP_UNIT, [st], max_iter=250,
        callback=lambda i, s, t: seen.append(s.k - 1), callback_stride=100)
    assert seen == [100, 200, 250]
    seen.clear()
    run(quad, SP_UNIT, [st], max_iter=1,
        callback=lambda i, s, t: seen.append(s.k - 1), callback_stride=100)
    assert seen == [1]


def test_run_target_bookkeeping():
    st = initial_state(quad, [1.0], [0.0])
    hit = lambda rows, s: [s.k - 1 >= 5]
    (res,) = run(quad, SP_UNIT, [st], max_iter=20, target=hit)
    assert res.target_iteration == 5
    assert res.iterations == 20  # keeps going without stop_at_target
    (res,) = run(quad, SP_UNIT, [st], max_iter=20, target=hit,
                 stop_at_target=True)
    assert res.iterations == 5
    assert res.stop_reason == "target"
    assert res.target_seconds is not None and res.target_seconds >= 0


def test_batch_run_bookkeeping():
    starts = [initial_state(quad, [x], [0.0]) for x in (1.0, 2.0, 3.0)]
    assert run(quad, SP_UNIT, [], max_iter=5) == []
    res = run(quad, SP_UNIT, starts, max_iter=0)
    assert [r.state for r in res] == starts and res[0].iterations == 0
    seen = []
    res = run(quad, SP_UNIT, starts, max_iter=250,
              target=lambda rows, s: rows == 1,
              callback=lambda i, s, t: seen.append((i, s.k - 1)),
              callback_stride=100)
    assert [r.iterations for r in res] == [250, 250, 250]
    assert [r.target_iteration for r in res] == [None, 1, None]
    assert sorted(seen) == [(i, k) for i in range(3) for k in (100, 200, 250)]
    res = run(quad, SP_UNIT, starts, max_iter=250, stop_at_target=True,
              target=lambda rows, s: rows == 1)
    assert [(r.stop_reason, r.iterations) for r in res] == [
        ("max_iter", 250), ("target", 1), ("max_iter", 250)]
    # the clocks share out the stepping time of the batch
    assert all(r.step_seconds > 0 and r.error is None for r in res)
    # each result owns its blocks: a view would keep the batch's alive
    assert all(b.base is None for r in res
               for b in (r.state.x, r.state.y, r.state.z))
    with pytest.raises(ContractViolation, match="share their counter"):
        run(quad, SP_UNIT, [starts[0], res[0].state], max_iter=5)
    with pytest.raises(ContractViolation, match="one per start"):
        run(quad, [SP_UNIT, SP_UNIT], starts, max_iter=5)


def test_batch_clock_is_the_running_share_of_the_active_rows(monkeypatch):
    # a fake clock: readings T[0], T[1], ...; step m is timed from T[2m-2]
    # to T[2m-1], and each active row is charged dt_m / (active rows)
    rng = np.random.default_rng(7)
    T = np.cumsum(rng.uniform(0.1, 2.0, 30)).tolist()
    readings = iter(T)
    monkeypatch.setattr(solver, "time",
                        SimpleNamespace(perf_counter=lambda: next(readings)))
    # the schedule and starts of the divergence gate: zero starts stay at
    # zero, a nonzero start grows geometrically and overflows
    sp = ScheduleParams(alpha0=3.0, beta0=0.5, rho0=1.0, sigma0=0.1,
                        p=0.001, q=0.001, s=0.1)
    starts = [initial_state(quad, [x], [y]) for x, y in (
        (0.0, 0.0), (1e300, -1e300), (0.0, 0.0), (0.0, 0.0))]
    stop_at = np.array([3, np.inf, 10, np.inf])  # rows 0 and 2 hit their targets
    seen = []
    with np.errstate(all="ignore"):
        res = run(quad, sp, starts, 12, stop_at_target=True,
                  target=lambda rows, s: s.k - 1 >= stop_at[rows],
                  callback=lambda i, s, t: seen.append((i, s.k - 1, t)),
                  callback_stride=4)
    assert [r.stop_reason for r in res] == ["target", "error", "target",
                                            "max_iter"]
    diverged = res[1].iterations + 1  # the step that overflowed row 1
    assert diverged == 8
    assert next(readings) == T[24]  # two readings per step, 12 steps

    leaves = {0: 3, 1: diverged, 2: 10, 3: 12}
    active, share, clocks, shares = set(leaves), 0.0, {}, [0.0]
    for m in range(1, 13):
        share += (T[2 * m - 1] - T[2 * m - 2]) / len(active)
        shares.append(share)
        for i in [i for i in active if leaves[i] == m]:
            clocks[i] = share
            active.remove(i)
    assert [r.step_seconds for r in res] == [clocks[i] for i in range(4)]
    assert [r.target_seconds for r in res] == [clocks[0], None, clocks[2],
                                               None]
    assert seen == [(0, 3, shares[3]), (1, 4, shares[4]), (2, 4, shares[4]),
                    (3, 4, shares[4]), (2, 8, shares[8]), (3, 8, shares[8]),
                    (2, 10, shares[10]), (3, 12, shares[12])]
    stepping = sum(T[2 * m - 1] - T[2 * m - 2] for m in range(1, 13))
    assert sum(r.step_seconds for r in res) == pytest.approx(stepping,
                                                             rel=1e-12)


def test_batch_target_is_called_until_every_active_row_has_hit():
    starts = [initial_state(quad, [x], [0.0]) for x in (1.0, 2.0, 3.0)]
    calls = []

    def target_at(*its):
        def target(rows, s):
            calls.append((s.k - 1, rows.tolist()))
            return s.k - 1 >= np.array(its)[rows]
        return target

    res = run(quad, SP_UNIT, starts, max_iter=10, target=target_at(3, 5, 2))
    assert [r.target_iteration for r in res] == [3, 5, 2]
    assert calls == [(k, [0, 1, 2]) for k in range(1, 6)]
    # once the only row that has not hit diverges (at step 8), the target
    # is not called again
    sp = ScheduleParams(alpha0=3.0, beta0=0.5, rho0=1.0, sigma0=0.1,
                        p=0.001, q=0.001, s=0.1)
    starts = [initial_state(quad, [x], [-x]) for x in (0.0, 0.0, 1e300)]
    calls.clear()
    with np.errstate(all="ignore"):
        res = run(quad, sp, starts, max_iter=10,
                  target=target_at(2, 3, np.inf))
    assert [(r.stop_reason, r.iterations) for r in res] == [
        ("max_iter", 10), ("max_iter", 10), ("error", 7)]
    assert calls == [(k, [0, 1, 2]) for k in range(1, 8)]


# a schedule under which the synthetic family converges; no warnings
SP_SYNTH = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                          p=0.001, q=0.001, s=0.1)


@pytest.mark.parametrize("vectors_only", [False, True])
def test_a_single_start_is_stepped_as_vectors(vectors_only):
    # a list of one is not stacked: the gradients get (n,) vectors, six
    # calls a step, and the first step hands them the start's own x, not a
    # row of a copy; so a single start also runs gradients that refuse blocks
    sb = synthetic_problem(5)
    calls = []

    def logged(fn):
        def grad(x, y):
            calls.append((np.shape(x), np.shape(y), x))
            if vectors_only and (np.ndim(x) != 1 or np.ndim(y) != 1):
                raise ValueError("this gradient takes (n,) vectors only")
            return fn(x, y)
        return grad

    prob = replace(sb.problem,
                   **{g: logged(getattr(sb.problem, g)) for g in GRADIENTS})
    st = initial_state(prob, *sb.sample_init(np.random.default_rng(3)))
    (res,) = run(prob, SP_SYNTH, [st], max_iter=3)
    assert res.iterations == 3
    assert len(calls) == 6 * 3
    assert {(sx, sy) for sx, sy, _ in calls} == {((5,), (5,))}
    assert all(x is st.x for _, _, x in calls[:6])


@pytest.mark.parametrize("stop_at_target", [False, True])
def test_a_list_of_one_is_timed_and_hooked_as_vectors(monkeypatch,
                                                       stop_at_target):
    # on a fake clock, a list of one is charged every step's whole time,
    # and its hooks see (n,) states, the callback at the row's clock
    T = np.cumsum(np.random.default_rng(5).uniform(0.1, 2.0, 30)).tolist()
    readings = iter(T)
    monkeypatch.setattr(solver, "time", SimpleNamespace(
        perf_counter=lambda: next(readings)))
    sb = synthetic_problem(5)
    st = initial_state(sb.problem, *sb.sample_init(np.random.default_rng(4)))
    seen = []

    def target(rows, s):
        seen.append(("target", rows.tolist(), s, None))
        return [s.k - 1 >= 5]

    def callback(i, s, t):
        seen.append(("callback", i, s, t))

    (res,) = run(sb.problem, SP_SYNTH, [st], 10, target, stop_at_target,
                 callback, callback_stride=4)
    # the stepping clock after n steps, summed in the order run sums it
    clock = [sum(T[2 * m + 1] - T[2 * m] for m in range(n)) for n in range(11)]
    assert res.target_iteration == 5 and res.target_seconds == clock[5]
    assert res.iterations == (5 if stop_at_target else 10)
    assert res.step_seconds == clock[res.iterations]
    assert all(s.x.shape == s.y.shape == s.z.shape == (5,)
               for _, _, s, _ in seen)
    # the target is called until the row hits, at every step up to 5
    assert [(i, s.k - 1) for hook, i, s, _ in seen if hook == "target"] == [
        ([0], k) for k in range(1, 6)]
    assert [(i, s.k - 1, t) for hook, i, s, t in seen if hook == "callback"
            ] == [(0, k, clock[k]) for k in ([4, 5] if stop_at_target
                                             else [4, 8, 10])]


def test_a_hooks_row_error_is_its_result_and_others_propagate():
    # a hook's DivergenceError, ParameterOverflowError or
    # SaddleConvergenceError ends its row, the same object in res.error;
    # any other exception propagates out of run as it is
    st = initial_state(quad, [1.0], [0.0])
    err = SaddleConvergenceError("oracle budget spent")

    def callback(i, s, t):
        if s.k - 1 == 200:
            raise err

    (res,) = run(quad, SP_UNIT, [st], max_iter=250, callback=callback)
    assert res.error is err
    assert (res.stop_reason, res.iterations) == ("error", 200)
    bad = KeyError("target")

    def target(rows, s):
        raise bad

    with pytest.raises(KeyError) as ei:
        run(quad, SP_UNIT, [st], max_iter=5, target=target)
    assert ei.value is bad


def test_matched_runs_are_bit_identical():
    sb = synthetic_problem(5)
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    x0, y0, z0 = sb.sample_init(np.random.default_rng(123))
    (a,) = run(sb.problem, sp, [initial_state(sb.problem, x0, y0, z0)], 200)
    (b,) = run(sb.problem, sp, [initial_state(sb.problem, x0, y0, z0)], 200)
    np.testing.assert_array_equal(a.state.x, b.state.x)
    np.testing.assert_array_equal(a.state.y, b.state.y)
    np.testing.assert_array_equal(a.state.z, b.state.z)


def test_divergence_raises():
    # the step raises; run ends the row with the failing step's message
    # and the last good state, and the step's own error also names row 0
    # and carries its result
    sp = ScheduleParams(alpha0=1e160, beta0=0.1, rho0=1.0, sigma0=1.0,
                        p=0.01, q=0.01, s=0.16)
    st = last = initial_state(quad, [1.0], [0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as serial:
            while True:
                last = sipba_step(quad, params_at(sp, last.k), last)
        (res,) = run(quad, sp, [st], max_iter=50)
    assert isinstance(res.error, DivergenceError)
    assert str(res.error) == str(serial.value)
    assert serial.value.state is last
    assert serial.value.rows.tolist() == [0]
    assert serial.value.next_state.k == last.k + 1
    assert res.stop_reason == "error" and res.state is res.error.state
    assert res.error.state.k == last.k > 1
    for b in "xyz":
        np.testing.assert_array_equal(getattr(res.error.state, b),
                                      getattr(last, b), strict=True)


def test_baseline_divergence_raises():
    # the step's finiteness test, applied to the baseline's x: a diverged
    # baseline fails by name instead of returning NaN
    sp = ScheduleParams(alpha0=1e160, beta0=0.1, rho0=1.0, sigma0=1.0,
                        p=0.01, q=0.01, s=0.16)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                  match="outer iteration k=2"):
        run_double_loop_baseline(quad, sp, [1.0], 1000, inner_tol=1e-8)


def test_schedule_underflow_is_a_parameter_overflow():
    # sigma_k = 0.01 * k^-400 rounds to 0 at k=7: params_at reports the
    # schedule, not a PenaltyReg contract violation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q=400 is outside the regime
        sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                            p=0.001, q=400.0, s=0.1)
    assert params_at(sp, 6).sigma > 0.0
    with pytest.raises(ParameterOverflowError, match="k=7"):
        params_at(sp, 7)
    st = initial_state(quad, [1.0], [0.0])
    (res,) = run(quad, sp, [st], max_iter=50)
    assert isinstance(res.error, ParameterOverflowError)
    assert res.iterations == 6
    msg = str(res.error)
    rho7 = sp.rho0 * 7.0**sp.p
    assert "k=7" in msg
    assert "rho_k=%r" % rho7 in msg and "sigma_k=0.0" in msg
    with pytest.raises(ContractViolation):
        PenaltyReg(rho7, 0.0)
    with pytest.raises(ParameterOverflowError, match="k=7"):
        run_double_loop_baseline(quad, sp, [1.0], 10**4, inner_tol=1e-1)


def test_penalty_growth_overflow_is_a_parameter_overflow():
    # rho_k = 10 * k^1000 overflows a float at k=3; it fails the run the
    # same way instead of escaping as Python's OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p=1000 is outside the regime
        sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                            p=1000.0, q=0.001, s=0.1)
    st = initial_state(quad, [1.0], [0.0])
    (res,) = run(quad, sp, [st], max_iter=50)
    assert isinstance(res.error, ParameterOverflowError)
    assert "k=3" in str(res.error)
    with pytest.raises(ParameterOverflowError, match="k=3"):
        run_double_loop_baseline(quad, sp, [1.0], 10**4, inner_tol=1e-1)




def _outer_steps(inner_tol=1e-8, budget=3000):
    """A baseline's outer steps from x=1 under a large budget: (evaluations
    spent, x, saddle, inner iterations so far) after each. A budget of
    exactly what its first n steps spend runs those n steps unchanged, as
    none of their solves is cut short by the cap."""
    steps = []

    def cb(k, x, sd, evals, elapsed):
        inner = sd.iterations + (steps[-1][3] if steps else 0)
        steps.append((evals, x, sd, inner))

    run_double_loop_baseline(quad, SP_UNIT, [1.0], budget,
                             inner_tol=inner_tol, callback=cb)
    return steps


def _baseline_case(name):
    """(problem, schedule, x0, budget, inner_tol) of a budgeted baseline of
    several outer steps whose last solve the budget cuts short."""
    if name == "quadratic":
        return quad, SP_UNIT, [1.0], 3000, 1e-8
    # criterion 07's baseline schedule
    sp = ScheduleParams(alpha0=0.2, beta0=1e-4, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    if name == "synthetic":
        sb = synthetic_problem(5)
        x0 = sb.sample_init(np.random.Generator(np.random.Philox(3)))[0]
        return sb.problem, sp, x0, 6100, 1e-5
    data = generate_hyper_rep(10, 2, 20, 20, 50, 0.1, seed=7)
    x0 = hyper_rep_init(data, np.random.Generator(np.random.Philox(42)))[0]
    return hyper_rep_problem(data), sp, x0, 20000, 1e-5


@pytest.mark.parametrize("name", ["quadratic", "synthetic", "hyper_rep"])
def test_baseline_cost_model_equals_counted_gradient_calls(name):
    # after every outer step the baseline's own count, 3 * (estimate calls
    # + inner iterations + 1) a step, equals the gradient calls counted
    problem, sp, x0, budget, inner_tol = _baseline_case(name)
    counted, cnt = with_gradient_counter(problem)
    seen = []

    def cb(k, x, sd, evals, elapsed):
        seen.append((evals, cnt.count))

    res = run_double_loop_baseline(counted, sp, x0, budget,
                                   inner_tol=inner_tol, callback=cb)
    assert len(seen) == res.outer_iterations >= 3
    assert all(evals == calls for evals, calls in seen), seen
    assert res.grad_evals == cnt.count >= budget
    assert not res.saddle.converged  # a capped solve is counted too


def test_baseline_single_step_example():
    # one outer step from x=1 with alpha_1=0.1 moves to 1 + 1/13
    spent = _outer_steps(inner_tol=1e-12, budget=300)[0][0]
    res = run_double_loop_baseline(quad, SP_UNIT, [1.0], spent,
                                   inner_tol=1e-12)
    np.testing.assert_allclose(res.x, [1.0 + 1.0 / 13.0], atol=1e-9)
    assert res.outer_iterations == 1
    assert res.inner_failures == 0
    assert res.inner_iterations == res.saddle.iterations


def test_baseline_with_loose_tolerance_is_one_sipba_step():
    # the baseline's outer step after a single inner iteration from (y, z)
    # at the step beta_1 is one SiPBA step: one inner iteration of the
    # double loop is the single loop's (y, z) update
    st = initial_state(quad, [1.0], [0.0], [0.0])
    pars = params_at(SP_UNIT, st.k)
    sd = solve_saddle(quad, pars, st.x, tol=1e9,
                      u0=np.concatenate((st.y, st.z)), beta=pars.beta)
    assert sd.iterations == 1
    g = direction_x(quad, pars, st.x, sd.y_star, sd.z_star)
    x = quad.set_X.project(st.x - pars.alpha * g)
    stepped = sipba_step(quad, pars, st)
    np.testing.assert_array_equal(x, stepped.x)
    np.testing.assert_array_equal(sd.y_star, stepped.y)
    np.testing.assert_array_equal(sd.z_star, stepped.z)


def test_baseline_counts_inner_failures(monkeypatch):
    # a budget that leaves the third solve 2 fixed-point iterations: that
    # capped solve is the run's one inner failure and its last, and every
    # estimate after the first is warm (4 operator_T calls)
    calls = []

    def counted(*args):
        est = estimate_T_lipschitz(*args)
        calls.append(est.calls)
        return est

    spent = _outer_steps()[1][0]
    monkeypatch.setattr(solver, "estimate_T_lipschitz", counted)
    res = run_double_loop_baseline(quad, SP_UNIT, [1.0], spent + 6,
                                   inner_tol=1e-8)
    assert res.outer_iterations == 3
    assert res.inner_failures == 1
    assert res.saddle.iterations == 2 and not res.saddle.converged
    assert np.isfinite(res.x).all()
    assert calls == [31, 4, 4]


def test_baseline_callback_and_target():
    ks = []
    spends = []

    def cb(k, x, sd, evals, elapsed):
        ks.append(k)
        spends.append(evals)

    spent = _outer_steps()[3][0]
    res = run_double_loop_baseline(quad, SP_UNIT, [1.0], spent,
                                   inner_tol=1e-8, callback=cb)
    assert ks == [1, 2, 3, 4]
    assert spends == sorted(set(spends))
    assert spends[-1] == res.grad_evals == spent


def test_baseline_budget_overshoot_is_bounded():
    # past the budget by at most one step-size estimate (31 operator
    # evaluations, 93 gradient calls), one outer direction (3) and the
    # one-iteration floor of the inner cap (2)
    worst = 0
    for budget in list(range(1, 400, 7)) + [1000, 2000]:
        counted, cnt = with_gradient_counter(quad)
        res = run_double_loop_baseline(counted, SP_UNIT, [1.0], budget,
                                       inner_tol=1e-8)
        assert budget <= cnt.count <= budget + 98
        assert res.grad_evals == cnt.count
        worst = max(worst, cnt.count - budget)
    assert worst > 90  # the bound is nearly reached


def test_baseline_budget_without_binding_cap_matches_outer_iter():
    # a budget of exactly what 5 outer steps spend: no solve is cut short,
    # and the run stops after the fifth, where the large-budget run was
    spent, x, sd, inner_total = _outer_steps()[4]
    budgeted = run_double_loop_baseline(quad, SP_UNIT, [1.0], spent,
                                        inner_tol=1e-8)
    assert budgeted.inner_failures == 0  # the cap never cut a solve
    assert budgeted.outer_iterations == 5
    np.testing.assert_array_equal(budgeted.x, x)
    np.testing.assert_array_equal(budgeted.saddle.u, sd.u)
    assert budgeted.inner_iterations == inner_total


def test_baseline_capped_final_solve_is_a_failure():
    # the budget leaves the fifth solve one fixed-point iteration
    spent = _outer_steps()[3][0]
    res = run_double_loop_baseline(quad, SP_UNIT, [1.0], spent + 3,
                                   inner_tol=1e-8)
    assert res.outer_iterations == 5
    assert res.inner_failures == 1
    assert res.saddle.iterations == 1
    assert not res.saddle.converged
