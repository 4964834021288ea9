"""Equivalence gates: warm-started diagnostics against cold ones, batched
runs against serial ones, and command line outputs against a reference.

The diagnostics of `sipba run` thread each snapshot into the next (warm
start): the next solve starts at the saddle path extrapolated from the last
three snapshots' saddles, with the step the last solve ended with scaled by
rho_prev / rho_k. A warm solve stops at the same oracle tolerance as a cold
one but from another start, so the values differ in their last digits.
The gate bounds those differences on the README's synthetic experiment:
n=100, the README schedule, 3 seeds x 2000 steps, a snapshot every 100
steps, each compared with a cold snapshot of the same state. The
tolerances were fixed before any candidate was measured; they scale with
the oracle tolerance, which bounds how far either solve can be from the
exact saddle. The same gate holds on the quadratic testbed at
(rho, sigma) = (0.84, 1.07), where the Jacobian of T(x, .) has complex
eigenvalues.

A batch of starts stepped as one block must give every start the run it has
alone: the tolerance, fixed before the batched step was written, is exact
equality of the final blocks, the iteration counts, the target iterations,
the stop reasons and error messages, and every callback state. The same
exact tolerance, fixed before the batch took one schedule per start, holds
for a batch whose rows run under different schedules: every (schedule,
start) row equals the run of that start alone under that schedule. It also
holds for a batch in which, within one stride step, rows stop at their
target, fail in their callback and diverge, after a schedule overflowed;
there the steps each row is called back at, and the row order within the
step, are pinned too, since a serial run shares the batch loop.

The command line forms the relative-error denominator of each command's
seeds' starts once, and ablate's grid rows share it; the tolerance, fixed
before that change, is exact equality with runs whose target, diagnostics
rows and final eps_rel divide by the denominator formed on every call:
iterations, target iterations, stop reasons, final blocks, every eps_rel
cell and the mean final eps_rel.

End-metric gate, for changes that cannot be bit-identical:
end_metric_violations(reference_dir, candidate_dir) compares two command
line output directories column by column: the same CSV files, headers and
row counts, and each cell within its tolerance below. A directory may also
hold the command's printed lines as stdout.txt; their text must match with
the numbers masked, their integers as the columns below; their floats
are seconds or rounded copies of CSV cells, and are skipped. Run as a
script, `python tests/test_equivalence.py REF_DIR CAND_DIR` prints the
violations and exits 1 if there are any. The tolerances were
fixed from the noise floors below before the candidates in this file were
run; a bound reads |d| <= tol * max(1, |ref|).

* Time columns (time_s, mean/std_time_to_target_s): skipped.
* step, grad_evals, k, the iteration and run counts, and the label
  columns: exact.
* compare_*.csv (hyper-representation) and any CSV not named below:
  every float cell within 1e-9.
  A hyper-rep trajectory does not amplify last bits: forming grad_w as
  (X^T H)^T r instead of H^T (X r) moved no metric cell by more than
  2.3e-14 relative at criterion 07's full budget (its four instances and
  data seed 8). A training-split grad_w off by 1e-6 relative moves the
  SiPBA arm's metric cells at a tenth of that budget by up to 1.8e-5
  (about 2e-6 relative), two to three orders above the bound.
* sipba run on the synthetic family (summary.csv, run_*.csv, the printed
  target iteration). A trajectory amplifies last bits on its way in
  (k ~ 300-1300 on the README schedule at n=100): ~1e-15 after one step
  grows to ~6e-4 after 1000 steps. The README step does not then settle
  at a fixed point: it ends in a period-2 cycle. From the start
  sample_init(default_rng(0)) at n=100, after 20000 steps,
  ||x_{k+1} - x_k|| = 3.78e-3 while ||x_{k+2} - x_k|| = 9.9e-9. The two
  phases of the cycle have their own diagnostics, and a stride row samples
  one of them: the phase the run locked into in its transient, which last
  bits decide. The iterate is off the kink of y*(x) at ||x|| = sqrt(n)/2
  (||x|| - sqrt(n)/2 is -8.9e-2 in one phase, -9.3e-2 in the other), so
  the kink is not what flips. Measured over 10
  seeds and 2000 steps, with one ulp more on every lower-level y gradient
  and with grad_F_x formed as (2/n) x - (2/n) e: phi_k moved by up to 5e-6
  relative, eps_rel by 3e-7, merit by 2e-6, tracking_err by 1e-3 and
  stat_residual by 9e-2 (0.0945 against 0.0037 on a run that sampled the
  other phase). So a row is held to one of two bounds:
  - eps_rel in every row, and summary.csv's floats (the final eps_rel):
    1e-5;
  - a row whose eps_rel cell equals the reference's is at the same state,
    and its diagnostics differ only by the oracle: phi_k within 1e-12,
    tracking_err within the oracle tolerance 1e-8, stat_residual within
    1e-7 and merit within 1e-7 (it holds tracking_err^2, ~5 at most), the
    bounds of the warm-against-cold gate above (a run without a known
    optimum has empty eps_rel cells, and every row gets these bounds);
  - a row at another state: phi_k and merit within 1e-4, tracking_err and
    stat_residual within 0.5;
  - each run's target iteration within 1 step: eps_rel falls about 1% a
    step where it crosses 1e-4, inside the amplifying stretch.
  The synthetic gate runs 2000 steps, not the README's 20000, to stay
  within a few seconds.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sipba import benchmarks, cli, solver
from sipba.benchmarks import (
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    quadratic_init,
    quadratic_testbed,
    synthetic_problem,
)
from sipba.diagnostics import (
    relative_error,
    relative_error_denominator,
    snapshot,
)
from sipba.errors import (
    ContractViolation,
    DivergenceError,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from sipba.solver import (
    ScheduleParams,
    initial_state,
    run,
)

from gradcalls import with_gradient_counter

ORACLE_TOL = 1e-8
PHI_REL = 1e-12                   # |d phi| <= PHI_REL * max(1, |phi|)
TRACKING_ABS = ORACLE_TOL         # |d tracking_err|
STAT_ABS = 10.0 * ORACLE_TOL      # |d stat_residual|

README_SCHEDULE = dict(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                       p=0.001, q=0.001, s=0.1)
SEEDS = (0, 1, 2)
STEPS, STRIDE = 2000, 100


def violations(reference, candidate):
    """Every snapshot value of candidate outside the gate, as text."""
    assert len(reference) == len(candidate)
    bad = []
    for i, (r, c) in enumerate(zip(reference, candidate)):
        for name, bound in (("phi", PHI_REL * max(1.0, abs(r.phi))),
                            ("tracking_err", TRACKING_ABS),
                            ("stat_residual", STAT_ABS)):
            d = abs(getattr(c, name) - getattr(r, name))
            if not d <= bound:
                bad.append("snapshot %d: |d %s| = %.3e > %.3e"
                           % (i, name, d, bound))
    return bad


def warm_threaded(problem, sp, states, oracle_tol=ORACLE_TOL, nodes=3):
    """Snapshots as `sipba run` takes them: each warm from the last, its
    start predicted from the last `nodes` saddles of the trail (1: the
    previous saddle itself)."""
    out, warm = [], None
    for st in states:
        sn = snapshot(problem, sp, st, oracle_tol, warm=warm)
        out.append(sn)
        warm = replace(sn, trail=sn.trail[-nodes:])
    return out


def stride_states(problem, sp, init, steps):
    """The states a run from init calls back at, every STRIDE steps."""
    states = []
    run(problem, sp, [init], steps, callback_stride=STRIDE,
        callback=lambda _, st, elapsed: states.append(st))
    return states


@pytest.fixture(scope="module")
def runs():
    """(problem, schedule, per seed: the states at each stride, their cold
    snapshots)."""
    sb = synthetic_problem(100)
    sp = ScheduleParams(**README_SCHEDULE)
    out = []
    for seed in SEEDS:
        init = initial_state(sb.problem, *sb.sample_init(philox(seed)))
        states = stride_states(sb.problem, sp, init, STEPS)
        cold = [snapshot(sb.problem, sp, st, ORACLE_TOL) for st in states]
        out.append((states, cold))
    return sb.problem, sp, out


@contextlib.contextmanager
def counting_estimates():
    """Record the x of every step-size estimate made in the block, from
    solve_saddle (a cold snapshot's solve included) or
    run_double_loop_baseline; yields the list."""
    from sipba import saddle, solver
    real, seen = saddle.estimate_T_lipschitz, []

    def counted(problem, pr, x, *args, **kwargs):
        seen.append(np.array(x))
        return real(problem, pr, x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (saddle, solver):
            mp.setattr(mod, "estimate_T_lipschitz", counted)
        yield seen


def test_warm_snapshots_pass_the_gate(runs):
    problem, sp, per_seed = runs
    for states, cold in per_seed:
        assert len(states) == STEPS // STRIDE
        with counting_estimates() as seen:
            warm = warm_threaded(problem, sp, states)
        assert violations(cold, warm) == []
        # the candidate really is warm: one estimate, at the first row, then
        # each solve takes the step the last one ended with
        assert len(seen) == 1 and np.array_equal(seen[0], states[0].x)


def test_the_predicted_start_pays_on_hyper_rep():
    # fewer oracle iterations than starting at the previous saddle, on a
    # hyper-rep instance under the demo schedule (322 / 589 / 900 against
    # 390 / 700 / 1424 when this test was written). The README's synthetic
    # runs above no longer show it: their snapshots take 56 / 67 / 55
    # iterations in all against 53 / 66 / 53 from the previous saddle
    data = generate_hyper_rep(5, 2, 100, 100, 50, 0.1, seed=7)
    problem = hyper_rep_problem(data)
    sp = ScheduleParams(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    for seed in SEEDS:
        init = initial_state(problem, *hyper_rep_init(data, philox(seed)))
        states = stride_states(problem, sp, init, STEPS)
        predicted = warm_threaded(problem, sp, states)
        previous = warm_threaded(problem, sp, states, nodes=1)
        assert sum(sn.saddle.iterations for sn in predicted) < \
            sum(sn.saddle.iterations for sn in previous)


def test_the_carried_step_follows_a_fast_growing_penalty():
    # p = 0.5: rho grows 14-fold over the 200 rows. A warm solve takes the
    # last solve's step scaled by rho_prev / rho_k, so beta * rho never
    # rises (up to the rounding of that scaling); carried unscaled, the step
    # outgrows T's Lipschitz bound and a solve stalls for thousands of
    # iterations before its halvings catch up
    sb = synthetic_problem(10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # s < 8(p + q)
        sp = ScheduleParams(**{**README_SCHEDULE, "p": 0.5})
    init = initial_state(sb.problem, *sb.sample_init(philox(0)))
    warm = warm_threaded(sb.problem, sp, stride_states(sb.problem, sp, init,
                                                       20000))
    assert len(warm) == 200 and warm[-1].rho / warm[0].rho > 14
    assert all(sn.saddle.converged for sn in warm)
    step = [sn.saddle.beta * sn.rho for sn in warm]
    assert all(b <= a * (1 + 4 * np.finfo(float).eps)
               for a, b in zip(step, step[1:]))
    assert max(sn.saddle.iterations for sn in warm) <= 100


@pytest.fixture(scope="module")
def readme_n10():
    """(problem, schedule, the states of one README-schedule run at n=10
    every STRIDE steps up to 20000)."""
    sb = synthetic_problem(10)
    sp = ScheduleParams(**README_SCHEDULE)
    init = initial_state(sb.problem, *sb.sample_init(philox(0)))
    return sb.problem, sp, stride_states(sb.problem, sp, init, 20000)


def test_the_cold_step_cancels_the_dominant_mode(readme_n10):
    # the first row steps at 1/L_est, and T's dominant mode (along e) is
    # cancelled in one iteration, so warm rows take a few each (at most 6
    # when this test was written, against 34 at 1/(2 L_est))
    problem, sp, states = readme_n10
    warm = warm_threaded(problem, sp, states)
    assert all(sn.saddle.converged for sn in warm)
    assert max(sn.saddle.iterations for sn in warm[1:]) <= 8


def test_an_underestimated_step_is_rescued_by_the_backoff(readme_n10,
                                                          monkeypatch):
    # the estimate forced to a third of its value: the first row's step is
    # 3 / lambda_max, which diverges along e. The stall backoff halves it
    # (241 iterations when this test was written), and later rows carry
    # the halved step (at most 34 iterations each)
    from sipba import saddle
    real, lows = saddle.estimate_T_lipschitz, []

    def low(*args, **kwargs):
        est = real(*args, **kwargs)
        lows.append(est.value / 3.0)
        return est._replace(value=lows[-1])

    monkeypatch.setattr(saddle, "estimate_T_lipschitz", low)
    problem, sp, states = readme_n10
    warm = warm_threaded(problem, sp, states)
    assert len(warm) == 200 and all(sn.saddle.converged for sn in warm)
    # the first row starts at 1 / lows[0] and ends halved
    assert len(lows) == 1 and warm[0].saddle.beta < 1.0 / lows[0]
    assert max(sn.saddle.iterations for sn in warm[1:]) <= 50


def test_the_carried_step_passes_the_gate_on_complex_eigenvalues():
    # the quadratic testbed at (rho, sigma) = (0.84, 1.07): the Jacobian of
    # T(x, .) has complex eigenvalues, so the cold step-size estimate is
    # some ||J v||, and the carried step inherits it (no solve here halves
    # its step; the stall backoff is the guard)
    q = quadratic_testbed()
    sp = ScheduleParams(alpha0=0.01, beta0=1e-3, rho0=0.84, sigma0=1.07,
                        p=0.001, q=0.001, s=0.1)
    for seed in SEEDS:
        init = initial_state(q, *quadratic_init(philox(seed)))
        states = stride_states(q, sp, init, STEPS)
        with counting_estimates() as seen:
            cold = [snapshot(q, sp, st, ORACLE_TOL) for st in states]
        assert len(seen) == len(states)
        with counting_estimates() as seen:
            warm = warm_threaded(q, sp, states)
        assert violations(cold, warm) == []
        assert len(seen) == 1 and np.array_equal(seen[0], states[0].x)


def test_gate_rejects_a_loose_oracle(runs):
    # 1e-1, not 1e-3: a solve that cancels T's dominant mode overshoots its
    # tolerance by orders of magnitude, and at 1e-3 none of its values
    # leaves the gate
    problem, sp, per_seed = runs
    states, cold = per_seed[0]
    assert violations(cold, warm_threaded(problem, sp, states, 1e-1))


def test_gate_rejects_the_parameters_of_the_wrong_step(runs):
    # snapshots at (rho, sigma, alpha) of step k instead of k-1
    problem, sp, per_seed = runs
    states, cold = per_seed[0]
    shifted = [replace(st, k=st.k + 1) for st in states]
    assert violations(cold, warm_threaded(problem, sp, shifted))


# ---------------------------------------------------------------------------
# batched runs against serial runs, exactly

TARGET_EPS = 1e-4


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def synthetic_starts(sb, seeds):
    return [initial_state(sb.problem, *sb.sample_init(philox(s)))
            for s in seeds]


def serial_runs(problem, sp, starts, steps, target=None, hook=None, **kw):
    """Each start run alone, as a list of one, under sp or its own entry of
    a list sp: (RunResult, the states its callback saw). The callback
    passes each state it saw to hook(i, state) for start i, which may
    raise."""
    sps = sp if isinstance(sp, list) else [sp] * len(starts)
    out = []
    for i, (sp, st) in enumerate(zip(sps, starts)):
        seen = []
        (res,) = run(problem, sp, [st], steps,
                     target=None if target is None else row_target(target, i),
                     callback=recorder(seen, hook, i), **kw)
        out.append((res, seen))
    return out


def recorder(seen, hook, i):
    """A callback (row, state, elapsed) that appends the state to seen,
    then calls hook(i, state) for start i, whatever its row."""
    def callback(_, st, elapsed):
        seen.append(st)
        if hook is not None:
            hook(i, st)
    return callback


def row_target(target, i):
    """A batch target (rows, state) -> bools as the target of start i run
    alone, whose one row is 0 and whose state holds vectors."""
    return lambda rows, st: target(np.array([i]), replace(
        st, x=st.x[None], y=st.y[None], z=st.z[None]))


def batched_run(problem, sp, starts, steps, target=None, hook=None, **kw):
    seen = [[] for _ in starts]
    cbs = [recorder(own, hook, i) for i, own in enumerate(seen)]
    results = run(problem, sp, starts, steps, target=target,
                  callback=lambda i, s, t: cbs[i](i, s, t), **kw)
    return list(zip(results, seen))


def same_state(a, b):
    return (a.k == b.k and np.array_equal(a.x, b.x)
            and np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z))


def assert_batch_equals_serial(serial, batched):
    assert len(serial) == len(batched)
    for (want, want_seen), (got, got_seen) in zip(serial, batched):
        assert len(got_seen) == len(want_seen)
        assert all(map(same_state, want_seen, got_seen))
        assert type(got.error) is type(want.error)
        assert str(got.error) == str(want.error)
        if isinstance(want.error, DivergenceError):  # the last good state
            assert same_state(got.error.state, want.error.state)
        assert same_state(got.state, want.state)
        assert (got.iterations, got.target_iteration, got.stop_reason) == (
            want.iterations, want.target_iteration, want.stop_reason)


def eps_target(sb, starts):
    den = relative_error_denominator(np.stack([st.x for st in starts]),
                                     np.stack([st.y for st in starts]),
                                     sb.x_star, sb.y_star)

    def target(rows, st):
        return relative_error(st.x, st.y, sb.x_star, sb.y_star,
                              den[rows]) < TARGET_EPS

    return target


@pytest.fixture(scope="module")
def readme_batch():
    sb = synthetic_problem(100)
    sp = ScheduleParams(**README_SCHEDULE)
    return sb, sp, synthetic_starts(sb, range(1000, 1010))


def test_readme_batch_of_ten_equals_ten_serial_runs(readme_batch):
    # 3000 steps: every start passes eps_rel 1e-4 (near k = 850) on the way
    sb, sp, starts = readme_batch
    target = eps_target(sb, starts)
    serial = serial_runs(sb.problem, sp, starts, 3000, target,
                         callback_stride=STRIDE)
    batched = batched_run(sb.problem, sp, starts, 3000, target,
                          callback_stride=STRIDE)
    assert_batch_equals_serial(serial, batched)
    hits = [res.target_iteration for res, _ in batched]
    assert None not in hits and len(set(hits)) > 1


def test_rows_stop_at_their_own_target(readme_batch):
    sb, sp, starts = readme_batch
    target = eps_target(sb, starts)
    serial = serial_runs(sb.problem, sp, starts, 3000, target,
                         stop_at_target=True, callback_stride=STRIDE)
    batched = batched_run(sb.problem, sp, starts, 3000, target,
                          stop_at_target=True, callback_stride=STRIDE)
    assert_batch_equals_serial(serial, batched)
    stops = [res.iterations for res, _ in batched]
    assert {res.stop_reason for res, _ in batched} == {"target"}
    assert len(set(stops)) > 1
    # the clocks share out the stepping time: each row's is positive
    assert all(res.step_seconds > 0 for res, _ in batched)


def test_diverging_rows_fail_alone_with_the_serial_message():
    # x grows geometrically from any nonzero start and overflows at a k set
    # by its magnitude; a zero start stays at zero
    q = quadratic_testbed()
    sp = ScheduleParams(alpha0=3.0, beta0=0.5, rho0=1.0, sigma0=0.1,
                        p=0.001, q=0.001, s=0.1)
    starts = [initial_state(q, [x], [y]) for x, y in (
        (0.0, 0.0), (1.0, -1.0), (1e-200, 1e-200), (1e150, -1e150),
        (0.0, 0.0))]
    with np.errstate(all="ignore"):
        serial = serial_runs(q, sp, starts, 2000, callback_stride=50)
        batched = batched_run(q, sp, starts, 2000, callback_stride=50)
    assert_batch_equals_serial(serial, batched)
    assert [res.stop_reason for res, _ in batched] == [
        "max_iter", "error", "error", "error", "max_iter"]
    assert len({res.iterations for res, _ in batched[1:4]}) == 3


def test_schedule_overflow_fails_every_row_like_a_serial_run():
    q = quadratic_testbed()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q far outside the regime
        # sigma_k = 0.01 * k^-400 rounds to 0 at k=7
        sp = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=1.0, sigma0=0.01,
                            p=0.001, q=400.0, s=0.1)
    starts = [initial_state(q, [x], [1.0]) for x in (0.5, 2.0)]
    serial = serial_runs(q, sp, starts, 200, callback_stride=10)
    batched = batched_run(q, sp, starts, 200, callback_stride=10)
    assert all(isinstance(res.error, ParameterOverflowError)
               for res, _ in serial)
    assert_batch_equals_serial(serial, batched)
    assert [res.iterations for res, _ in batched] == [6, 6]

    # mixed with a sane schedule and a diverging one, the overflowing
    # schedule ends its own rows only, and the diverging row ends alone
    sane = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=1.0, sigma0=0.01,
                          p=0.001, q=0.001, s=0.1)
    wild = ScheduleParams(alpha0=3.0, beta0=0.5, rho0=1.0, sigma0=0.1,
                          p=0.001, q=0.001, s=0.1)
    sps = [sp, sane, wild, sp, sane]
    starts = [initial_state(q, [x], [y]) for x, y in (
        (0.5, 1.0), (0.5, 1.0), (1.0, -1.0), (2.0, 1.0), (2.0, 1.0))]
    with np.errstate(all="ignore"):
        serial = serial_runs(q, sps, starts, 400, callback_stride=10)
        batched = batched_run(q, sps, starts, 400, callback_stride=10)
    assert_batch_equals_serial(serial, batched)
    assert [type(res.error).__name__ for res, _ in batched] == [
        "ParameterOverflowError", "NoneType", "DivergenceError",
        "ParameterOverflowError", "NoneType"]
    assert batched[2][0].iterations > 6


def test_every_exit_in_one_stride_step():
    # the step to k=9, a stride step at stride 4, ends rows three ways: row
    # 4 stops at its target, row 2's callback raises, row 3 diverges. Row
    # 1's schedule overflowed on the step before; 10 steps, so the last
    # step is no stride step and rows 0 and 5 are called back there
    q = quadratic_testbed()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q far outside the regime
        # sigma_k = 0.01 * k^-400 rounds to 0 at k=7
        ovf = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=1.0, sigma0=0.01,
                             p=0.001, q=400.0, s=0.1)
    sane = ScheduleParams(alpha0=0.1, beta0=0.01, rho0=1.0, sigma0=0.01,
                          p=0.001, q=0.001, s=0.1)
    wild = ScheduleParams(alpha0=3.0, beta0=0.5, rho0=1.0, sigma0=0.1,
                          p=0.001, q=0.001, s=0.1)
    sps = [sane, ovf, sane, wild, sane, sane]
    # x = 1e300 under wild turns non-finite on the step from k=8
    starts = [initial_state(q, [x], [1.0])
              for x in (0.5, 0.5, 1.0, 1e300, 2.0, 3.0)]

    def target(rows, st):
        return (rows == 4) & (st.k - 1 >= 8)

    calls = []

    def hook(i, st):
        calls.append((i, st.k - 1))
        if i == 2 and st.k - 1 == 8:
            raise SaddleConvergenceError("oracle failed at k=%d" % st.k)

    kw = dict(stop_at_target=True, callback_stride=4, hook=hook)
    with np.errstate(all="ignore"):
        serial = serial_runs(q, sps, starts, 10, target, **kw)
        calls.clear()
        batched = batched_run(q, sps, starts, 10, target, **kw)
    assert_batch_equals_serial(serial, batched)
    assert [(res.stop_reason, type(res.error).__name__, res.iterations)
            for res, _ in batched] == [
        ("max_iter", "NoneType", 10), ("error", "ParameterOverflowError", 6),
        ("error", "SaddleConvergenceError", 8), ("error", "DivergenceError", 7),
        ("target", "NoneType", 8), ("max_iter", "NoneType", 10)]
    # each row is called back once at each stride, at its own stop and on
    # the last step; within a step, in row order
    assert [[st.k - 1 for st in seen] for _, seen in batched] == [
        [4, 8, 10], [4], [4, 8], [4], [4, 8], [4, 8, 10]]
    assert [i for i, done in calls if done == 8] == [0, 2, 4, 5]
    assert same_state(batched[2][0].state, batched[2][1][-1])


def test_hyper_rep_batch_equals_its_serial_runs():
    data = generate_hyper_rep(6, 2, 8, 8, 8, 0.1, seed=3)
    prob = hyper_rep_problem(data)
    sp = ScheduleParams(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01,
                        p=0.01, q=0.01, s=0.16)
    starts = [initial_state(prob, *hyper_rep_init(data, philox(s)))
              for s in (42, 43, 44)]
    serial = serial_runs(prob, sp, starts, 300, callback_stride=100)
    batched = batched_run(prob, sp, starts, 300, callback_stride=100)
    assert_batch_equals_serial(serial, batched)


def test_a_row_does_not_depend_on_the_other_rows(readme_batch):
    sb, sp, starts = readme_batch
    alone = run(sb.problem, sp, starts[3:4], 500)[0]
    for batch in ([starts[3], starts[0]], starts[1:6], starts[::-1]):
        row = next(j for j, st in enumerate(batch) if st is starts[3])
        assert same_state(run(sb.problem, sp, batch, 500)[row].state,
                          alone.state)


@pytest.mark.parametrize("problem", ["synthetic", "hyper_rep"])
def test_gradient_counter_counts_six_per_row_and_step(problem):
    if problem == "synthetic":
        sb = synthetic_problem(5)
        prob, starts = sb.problem, synthetic_starts(sb, range(4))
    else:
        data = generate_hyper_rep(3, 2, 4, 4, 4, 0.1, seed=1)
        prob = hyper_rep_problem(data)
        starts = [initial_state(prob, *hyper_rep_init(data, philox(s)))
                  for s in range(4)]
    counted, cnt = with_gradient_counter(prob)
    sp = ScheduleParams(**README_SCHEDULE)
    run(counted, sp, starts, 10)
    assert cnt.count == 6 * 4 * 10
    run(counted, sp, starts[:1], 10)
    assert cnt.count == 6 * 4 * 10 + 6 * 10


# ---------------------------------------------------------------------------
# the command line's time-to-target against the six-argument relative error

# four fast rows of criterion 06's ablation grid
GATE_GRID = ({}, {"alpha0": 1.0}, {"beta0": 0.01}, {"s": 0.016})
GATE_STARTS = 8
GATE_MAX_ITER = 200000


def old_relative_error(x, y, x_star, y_star, x0, y0):
    """The six-argument relative error, its denominator formed per call."""
    dx, dy = x0 - x_star, y0 - y_star
    den = np.vecdot(dx, dx) + np.vecdot(dy, dy)
    dx, dy = x - x_star, y - y_star
    return float((np.vecdot(dx, dx) + np.vecdot(dy, dy)) / den)


@pytest.fixture(scope="module")
def criterion_06():
    bundle = cli.build_problem({"problem": {"kind": "synthetic", "n": 100}})
    seeds = list(range(1000, 1000 + GATE_STARTS))
    return bundle, seeds, synthetic_starts(bundle.closed_form, seeds)


def test_a_batch_of_gate_grid_schedules_equals_every_serial_run(criterion_06):
    # the batch sipba ablate steps: each schedule's starts, schedule after
    # schedule; the rows leave at their targets, so the batch narrows from
    # four schedules (parameter columns) to one (scalar parameters)
    bundle, _, starts = criterion_06
    sb = bundle.closed_form
    sps = [ScheduleParams(**{**README_SCHEDULE, **over}) for over in GATE_GRID]
    kw = dict(stop_at_target=True, callback_stride=STRIDE)
    serial = [r for sp in sps for r in serial_runs(
        sb.problem, sp, starts, GATE_MAX_ITER, eps_target(sb, starts), **kw)]
    batch = starts * len(sps)
    batched = batched_run(sb.problem, [sp for sp in sps for _ in starts],
                          batch, GATE_MAX_ITER, eps_target(sb, batch), **kw)
    assert_batch_equals_serial(serial, batched)
    assert {res.stop_reason for res, _ in batched} == {"target"}
    last = [max(res.iterations for res, _ in batched[i:i + GATE_STARTS])
            for i in range(0, len(batched), GATE_STARTS)]
    # the schedules' last rows leave at different steps, one schedule last
    assert len(set(last)) > 2 and sorted(last)[-2] < sorted(last)[-1]


@pytest.mark.parametrize("over", GATE_GRID, ids=lambda o: str(o) or "{}")
def test_cli_time_to_target_equals_the_six_argument_formula(
        criterion_06, over, monkeypatch, tmp_path):
    bundle, seeds, starts = criterion_06
    sb, sp = bundle.closed_form, ScheduleParams(**{**README_SCHEDULE, **over})

    # reference: each start alone, stopped at its target, its stride rows
    # (k, eps_rel) and its final; the six-argument formula inline
    want = []
    for st in starts:
        def eps(s, st=st):
            return old_relative_error(s.x, s.y, sb.x_star, sb.y_star, st.x,
                                      st.y)

        rows = []
        (res,) = run(sb.problem, sp, [st], GATE_MAX_ITER,
                     stop_at_target=True,
                     target=lambda _, s: [eps(s) < TARGET_EPS],
                     callback_stride=100,
                     callback=lambda _, s, t: rows.append((s.k - 1, eps(s))))
        want.append((res, eps(res.state), rows))

    # candidates: sipba ablate with the one grid row `over`, and sipba run
    # under the same schedule up to the last reference's stop, on the same
    # seeds; the runs' own results are kept
    returned = []

    def run_and_keep(*args, **kwargs):
        returned.append(run(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, "run", run_and_keep)
    monkeypatch.delenv("SIPBA_SEED", raising=False)
    last = max(res.iterations for res, _, _ in want)
    cfg = {"problem": {"kind": "synthetic", "n": 100},
           "schedule": README_SCHEDULE,
           "run": {"seeds": {"base": seeds[0], "count": len(seeds)},
                   "max_iter": last, "stride": 100, "oracle_tol": ORACLE_TOL,
                   "target_eps_rel": TARGET_EPS},
           "ablate": {"grid": [over], "max_iter": GATE_MAX_ITER}}
    ablate_dir = cli_outputs("ablate", cfg, tmp_path / "ablate")
    cfg["schedule"] = {**README_SCHEDULE, **over}
    run_dir = cli_outputs("run", cfg, tmp_path / "run")
    ablated, ran = returned
    assert len(ablated) == len(ran) == len(seeds)

    # ablate: every run stops at its target as its start alone does
    for (ref, _, _), got in zip(want, ablated):
        assert got.stop_reason == ref.stop_reason == "target"
        assert got.error is None
        assert (got.iterations, got.target_iteration) == (
            ref.iterations, ref.target_iteration)
        assert same_state(got.state, ref.state)
    with open(ablate_dir / "ablation.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["valid_runs"] == str(len(seeds))
    assert float(row["mean_final_eps_rel"]) == float(
        np.mean([ref_eps for _, ref_eps, _ in want]))

    # run: no stop; every run hits its target at the reference's stop, and
    # its stride rows up to there read the reference's eps_rel
    with open(run_dir / "stdout.txt", encoding="utf-8") as fh:
        hits = [int(k) for k in re.findall(r"target at k=(\d+)", fh.read())]
    assert hits == [ref.target_iteration for ref, _, _ in want]
    for (ref, _, ref_rows), got, seed in zip(want, ran, seeds):
        assert got.stop_reason == "max_iter" and got.error is None
        assert got.target_iteration == ref.target_iteration == ref.iterations
        with open(run_dir / ("run_%d.csv" % seed), encoding="utf-8") as fh:
            col = [(int(r["k"]), float(r["eps_rel"]))
                   for r in csv.DictReader(fh)]
        assert [r for r in col if r[0] <= ref.iterations] == [
            r for r in ref_rows if r[0] % 100 == 0 or r[0] == last]


def test_a_start_at_the_optimum_is_rejected_once_before_the_first_step(
        monkeypatch, tmp_path):
    # the second seed draws the optimum: ablate, two grid rows over two
    # seeds, forms the seeds' denominator once and takes no step
    calls = {"den": 0, "step": 0}
    den, step, build = (cli.relative_error_denominator, solver.sipba_step,
                        cli.build_problem)

    def counted_den(*args):
        calls["den"] += 1
        return den(*args)

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    def second_at_optimum(cfg):
        bundle = build(cfg)
        draw, cf, draws = bundle.sample_init, bundle.closed_form, []

        def sample_init(rng):
            draws.append(draw(rng))
            x0, y0, z0 = draws[-1]
            return (cf.x_star, cf.y_star, z0) if len(draws) == 2 else (
                x0, y0, z0)

        bundle.sample_init = sample_init
        return bundle

    monkeypatch.setattr(cli, "relative_error_denominator", counted_den)
    monkeypatch.setattr(solver, "sipba_step", counted_step)
    monkeypatch.setattr(cli, "build_problem", second_at_optimum)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"kind": "synthetic", "n": 100},
        "schedule": README_SCHEDULE,
        "run": {"seeds": {"base": 1000, "count": 2},
                "target_eps_rel": TARGET_EPS},
        "ablate": {"grid": [{}, {"alpha0": 1.0}], "max_iter": 100}}),
        encoding="utf-8")
    with pytest.raises(ContractViolation, match="equals the optimum"):
        cli.main(["ablate", "--config", str(cfg_path), "--out",
                  str(tmp_path / "out")])
    assert calls == {"den": 1, "step": 0}


# ---------------------------------------------------------------------------
# end-metric gate: two command line output directories, column by column

TIME_COLUMNS = {"time_s", "mean_time_to_target_s", "std_time_to_target_s"}
EXACT_COLUMNS = {"method", "run_id", "metric_name", "step", "grad_evals", "k",
                 "row_id", "runs", "completed", "valid_runs"}
COMPARE_TOL = 1e-9
EPS_REL_TOL = 1e-5         # run_*.csv eps_rel and summary.csv
SAME_STATE_TOL = {"phi_k": PHI_REL, "tracking_err": TRACKING_ABS,
                  "stat_residual": STAT_ABS, "merit": 1e-7}
MOVED_STATE_TOL = {"phi_k": 1e-4, "merit": 1e-4, "tracking_err": 0.5,
                   "stat_residual": 0.5}
TARGET_STEPS = 1           # |d| of a printed target iteration (k=...)
NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _float_tolerance(name, column, same_state):
    if name == "summary.csv" or column == "eps_rel":
        return EPS_REL_TOL
    if name.startswith("run_"):
        return (SAME_STATE_TOL if same_state else MOVED_STATE_TOL)[column]
    return COMPARE_TOL


def _cell_violation(ref, cand, tol):
    """None if cand is within tol * max(1, |ref|) of ref, else |d| as text."""
    if ref == cand:
        return None
    try:
        r, c = float(ref), float(cand)
    except ValueError:
        return "%r -> %r" % (ref, cand)
    d = abs(c - r)
    bound = tol * max(1.0, abs(r))
    if d <= bound:  # False for any nan or inf that is not the same cell
        return None
    return "%r -> %r (|d| %.3e > %.3e)" % (ref, cand, d, bound)


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _gated_cells(name, ref, cand):
    """(line, row label, column, ref cell, cand cell, tolerance) of every
    non-time cell of two CSVs' rows with the same header and row count."""
    header = ref[0]
    eps = header.index("eps_rel") if "eps_rel" in header else None
    for line, (r, c) in enumerate(zip(ref[1:], cand[1:]), start=2):
        same_state = eps is None or r[eps] == c[eps]
        for column, a, b in zip(header, r, c):
            if column in TIME_COLUMNS:
                continue
            tol = (0.0 if column in EXACT_COLUMNS
                   else _float_tolerance(name, column, same_state))
            yield line, r[0], column, a, b, tol


def _csv_pairs(reference_dir, candidate_dir):
    """(name, reference rows, candidate rows) of each CSV file the two
    directories share, by name."""
    for name in sorted(os.listdir(reference_dir)):
        cand_path = os.path.join(candidate_dir, name)
        if name.endswith(".csv") and os.path.exists(cand_path):
            yield (name, _rows(os.path.join(reference_dir, name)),
                   _rows(cand_path))


def _csv_violations(name, ref, cand):
    if ref[:1] != cand[:1] or len(ref) != len(cand):
        return ["%s: header or row count differs (%d -> %d lines)"
                % (name, len(ref), len(cand))]
    bad = []
    for line, label, column, a, b, tol in _gated_cells(name, ref, cand):
        what = _cell_violation(a, b, tol)
        if what:
            bad.append("%s:%d [%s] %s: %s" % (name, line, label, column,
                                              what))
    return bad


def _printed_violations(ref_path, cand_path):
    with open(ref_path, encoding="utf-8") as fh:
        ref = fh.read().splitlines()
    with open(cand_path, encoding="utf-8") as fh:
        cand = fh.read().splitlines()
    if len(ref) != len(cand):
        return ["stdout.txt: %d -> %d lines" % (len(ref), len(cand))]
    bad = []
    for i, (r, c) in enumerate(zip(ref, cand), start=1):
        if NUMBER.sub("#", r) != NUMBER.sub("#", c):
            bad.append("stdout.txt:%d: %r -> %r" % (i, r, c))
            continue
        for m, n in zip(NUMBER.finditer(r), NUMBER.finditer(c)):
            a, b = m.group(), n.group()
            if not a.isdigit():
                continue  # seconds, or a rounded copy of a CSV cell
            slack = TARGET_STEPS if r.endswith("k=", 0, m.start()) else 0
            if not b.isdigit() or abs(int(b) - int(a)) > slack:
                bad.append("stdout.txt:%d: %s -> %s in %r" % (i, a, b, r))
    return bad


def end_metric_violations(reference_dir, candidate_dir):
    """Every cell of candidate_dir's command line output outside the gate
    of the module docstring, as text; [] when the candidate passes."""
    ref = sorted(f for f in os.listdir(reference_dir) if f.endswith(".csv"))
    cand = sorted(f for f in os.listdir(candidate_dir) if f.endswith(".csv"))
    if ref != cand:
        return ["CSV files differ: %s -> %s" % (ref, cand)]
    bad = []
    for name, ref_rows, cand_rows in _csv_pairs(reference_dir,
                                                candidate_dir):
        bad += _csv_violations(name, ref_rows, cand_rows)
    printed = [os.path.join(d, "stdout.txt")
               for d in (reference_dir, candidate_dir)]
    if any(map(os.path.exists, printed)):
        if not all(map(os.path.exists, printed)):
            return bad + ["stdout.txt is in one directory only"]
        bad += _printed_violations(*printed)
    return bad


def end_metric_margins(reference_dir, candidate_dir):
    """{(column, tolerance): largest |d| / max(1, |ref|)} over the float
    cells of the CSVs both directories hold, each column keyed by the
    tolerance its cells were held to; a cell that is not finite on one side
    only counts as inf. Files whose header or row count differ are left to
    end_metric_violations."""
    margins = {}
    for name, ref, cand in _csv_pairs(reference_dir, candidate_dir):
        if ref[:1] != cand[:1] or len(ref) != len(cand):
            continue
        for _, _, column, a, b, tol in _gated_cells(name, ref, cand):
            if not tol:
                continue
            try:
                r, c = float(a), float(b)
            except ValueError:
                continue  # an empty cell, as eps_rel without an optimum
            d = 0.0 if a == b else abs(c - r) / max(1.0, abs(r))
            margins[column, tol] = max(margins.get((column, tol), 0.0),
                                       d if math.isfinite(d) else math.inf)
    return margins


def cli_outputs(command, cfg, out_dir):
    """Run `sipba command` on cfg through cli.main into out_dir, its printed
    lines kept as out_dir/stdout.txt; returns out_dir."""
    os.makedirs(out_dir)
    cfg_path = str(out_dir) + ".json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main([command, "--config", cfg_path, "--out",
                         str(out_dir)]) == 0
    with open(os.path.join(out_dir, "stdout.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(printed.getvalue())
    return out_dir


def differing_cells(reference_dir, candidate_dir):
    """How many non-time CSV cells differ at all between the directories."""
    count = 0
    for name in os.listdir(reference_dir):
        if name.endswith(".csv"):
            ref = _rows(os.path.join(reference_dir, name))
            cand = _rows(os.path.join(candidate_dir, name))
            count += sum(a != b for r, c in zip(ref, cand)
                         for k, a, b in zip(ref[0], r, c)
                         if k not in TIME_COLUMNS)
    return count


# criterion 07's four hyper-rep instances through sipba compare, at a tenth
# of its 6 * 30000 evaluation budget

HR_INSTANCES = [(n_feat, a) for n_feat in (50, 100) for a in (0.1, 1.0)]


def criterion_07_compare(out_root):
    """sipba compare on each instance into out_root/n<n_feat>_a<a>."""
    dirs = []
    for n_feat, a in HR_INSTANCES:
        cfg = {
            "problem": {"kind": "hyper_rep", "n_feat": n_feat, "p_dim": 5,
                        "m1": 100, "m2": 100, "m_test": 500, "noise_a": a,
                        "data_seed": 7},
            "schedule": {"alpha0": 0.01, "beta0": 1e-4, "rho0": 10.0,
                         "sigma0": 0.01, "p": 0.01, "q": 0.01, "s": 0.16},
            "run": {"seeds": [42], "stride": 100},
            "compare": {"budget": 18000, "inner_tol": 1e-5,
                        "baseline_schedule": {"alpha0": 0.2}},
        }
        dirs.append(cli_outputs("compare", cfg,
                                out_root / ("n%d_a%g" % (n_feat, a))))
    return dirs


def parent_grad_w(self, x, w):
    """_Split.grad_w as H^T (X r), the association before X^T H was kept."""
    _, r, _ = self._residual(x, w)
    H = x.reshape(self.X.shape[0], -1)
    return (2.0 / self.y.shape[0]) * (H.T @ (self.X @ r))


@pytest.fixture(scope="module")
def hyper_rep_reference(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(benchmarks._Split, "grad_w", parent_grad_w)
        return criterion_07_compare(tmp_path_factory.mktemp("hr_reference"))


def test_hyper_rep_grad_w_passes_the_end_metric_gate(hyper_rep_reference,
                                                      tmp_path):
    candidate = criterion_07_compare(tmp_path)
    for ref, cand in zip(hyper_rep_reference, candidate):
        assert end_metric_violations(ref, cand) == []
        assert differing_cells(ref, cand) > 0  # not bit-identical


def test_end_metric_gate_rejects_a_grad_w_off_by_1e_6(hyper_rep_reference,
                                                      tmp_path, monkeypatch):
    build = cli.hyper_rep_problem

    def skewed(data):  # the training split's grad_w scaled by 1 + 1e-6
        prob = build(data)
        return replace(prob, grad_f_y=lambda x, w: (1.0 + 1e-6)
                       * prob.grad_f_y(x, w))

    monkeypatch.setattr(cli, "hyper_rep_problem", skewed)
    for ref, cand in zip(hyper_rep_reference, criterion_07_compare(tmp_path)):
        bad = end_metric_violations(ref, cand)
        assert any("[sipba] metric:" in v for v in bad), bad


# sipba run on the README synthetic config, 10 seeds, cut to 2000 steps

def readme_run(out_dir, oracle_tol=ORACLE_TOL):
    return cli_outputs("run", {
        "problem": {"kind": "synthetic", "n": 100},
        "schedule": README_SCHEDULE,
        "run": {"max_iter": 2000, "seeds": {"base": 1000, "count": 10},
                "stride": STRIDE, "oracle_tol": oracle_tol,
                "target_eps_rel": TARGET_EPS},
    }, out_dir)


@pytest.fixture(scope="module")
def synthetic_reference(tmp_path_factory):
    return readme_run(tmp_path_factory.mktemp("synth") / "reference")


def test_a_reassociated_synthetic_gradient_passes_the_end_metric_gate(
        synthetic_reference, tmp_path, monkeypatch):
    # grad_F_x as (2/n) x - (2/n) e: other last bits on every step
    def reassociated(n, x, y, e=1.0):
        return (2.0 / n) * x - (2.0 / n) * e

    monkeypatch.setattr(benchmarks, "_synthetic_grad_F_x", reassociated)
    candidate = readme_run(tmp_path / "candidate")
    assert end_metric_violations(synthetic_reference, candidate) == []
    assert differing_cells(synthetic_reference, candidate) > 0


def test_end_metric_gate_rejects_a_loose_synthetic_oracle(
        synthetic_reference, tmp_path):
    # 1e-1, not 1e-3: see test_gate_rejects_a_loose_oracle
    candidate = readme_run(tmp_path / "candidate", oracle_tol=1e-1)
    bad = end_metric_violations(synthetic_reference, candidate)
    assert bad and all("run_" in v for v in bad), bad


def test_an_uneven_last_gap_passes_the_end_metric_gate(tmp_path):
    # rows at ..., 1900, 2000, 2050: the last start extrapolates over half a
    # stride; a tighter oracle must agree with it at every row
    def outputs(name, oracle_tol):
        return cli_outputs("run", {
            "problem": {"kind": "synthetic", "n": 10},
            "schedule": README_SCHEDULE,
            "run": {"max_iter": 2050, "seeds": {"base": 1000, "count": 3},
                    "stride": STRIDE, "oracle_tol": oracle_tol,
                    "target_eps_rel": TARGET_EPS},
        }, tmp_path / name)

    default = outputs("default", ORACLE_TOL)
    tight = outputs("tight", 1e-10)
    ks = [int(r[1]) for r in _rows(os.path.join(default, "run_1000.csv"))[1:]]
    assert ks[-3:] == [1900, 2000, 2050]
    assert end_metric_violations(tight, default) == []


@pytest.mark.parametrize("problem, schedule", [
    # the quadratic testbed at (rho, sigma) = (0.84, 1.07): see
    # test_the_carried_step_passes_the_gate_on_complex_eigenvalues
    ({"kind": "quadratic"},
     dict(README_SCHEDULE, alpha0=0.01, rho0=0.84, sigma0=1.07)),
    # hyper-rep under the demo schedule: no other gate runs its diagnostics
    ({"kind": "hyper_rep", "n_feat": 5, "p_dim": 2, "m1": 10, "m2": 10,
      "m_test": 20, "noise_a": 0.1, "data_seed": 3},
     dict(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01, p=0.01, q=0.01,
          s=0.16)),
], ids=["complex_eigenvalues", "hyper_rep"])
def test_rows_at_the_carried_step_pass_the_end_metric_gate(tmp_path, problem,
                                                           schedule):
    # through the command line: every run ends with its 20 rows, each from
    # a solve that starts at the step the last one ended with, and an
    # oracle 100 times tighter agrees with them within the gate
    def outputs(name, oracle_tol):
        return cli_outputs("run", {
            "problem": problem, "schedule": schedule,
            "run": {"max_iter": STEPS, "seeds": [1, 2], "stride": STRIDE,
                    "oracle_tol": oracle_tol},
        }, tmp_path / name)

    default = outputs("default", ORACLE_TOL)
    tight = outputs("tight", 1e-10)
    for seed in (1, 2):
        assert len(_rows(os.path.join(default, "run_%d.csv" % seed))) == 21
    assert end_metric_violations(tight, default) == []


def test_end_metric_gate_reads_printed_integers_and_skips_seconds(tmp_path):
    ref, cand = tmp_path / "ref", tmp_path / "cand"
    for d, text in ((ref, "run 7: 2000 iterations  final eps_rel 2.271e-06"
                          "  target at k=854 (0.008 s)\n"),
                    (cand, "run 7: 2000 iterations  final eps_rel 2.272e-06"
                           "  target at k=855 (0.011 s)\n")):
        d.mkdir()
        (d / "stdout.txt").write_text(text, encoding="utf-8")
    assert end_metric_violations(ref, cand) == []
    (cand / "stdout.txt").write_text(
        "run 7: 2001 iterations  final eps_rel 2.271e-06  target at k=856"
        " (0.008 s)\n", encoding="utf-8")
    assert len(end_metric_violations(ref, cand)) == 2


def test_end_metric_margins_are_the_largest_moves_by_bound(tmp_path):
    # row 2 is at the same state (equal eps_rel), row 3 at another one
    header = "run_id,k,time_s,phi_k,eps_rel,tracking_err,stat_residual,merit"
    for name, rows in (("ref", ["7,100,0.1,2.0,0.5,1e-3,1e-2,4.0",
                                "7,200,0.2,0.5,0.25,1e-3,nan,4.0"]),
                       ("cand", ["7,100,0.3,2.0000000000001,0.5,1.5e-3,1e-2,"
                                 "4.0", "7,200,0.4,0.6,0.26,1e-3,nan,4.0"])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "run_7.csv").write_text(
            "\n".join([header] + rows) + "\n", encoding="utf-8")
    margins = end_metric_margins(tmp_path / "ref", tmp_path / "cand")
    assert margins == {
        ("phi_k", 1e-12): pytest.approx(5e-14, rel=1e-3),
        ("phi_k", 1e-4): pytest.approx(0.1),
        ("eps_rel", 1e-5): pytest.approx(0.01),
        ("tracking_err", 1e-8): pytest.approx(5e-4),
        ("tracking_err", 0.5): 0.0,
        ("stat_residual", 1e-7): 0.0,
        ("stat_residual", 0.5): 0.0,
        ("merit", 1e-7): 0.0,
        ("merit", 1e-4): 0.0,
    }
    # the margins report; the violations decide
    assert len(end_metric_violations(tmp_path / "ref", tmp_path / "cand")) == 3


def test_the_end_metric_gate_runs_as_a_script(tmp_path):
    # PYTHONPATH=src python tests/test_equivalence.py REF_DIR CAND_DIR
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH"))
        if p))

    def gate(*dirs):
        return subprocess.run([sys.executable, os.path.abspath(__file__)]
                              + [str(d) for d in dirs], env=env,
                              capture_output=True, text=True)

    ref = cli_outputs("run", {
        "problem": {"kind": "synthetic", "n": 2}, "schedule": README_SCHEDULE,
        "run": {"max_iter": 300, "seeds": [5], "stride": STRIDE},
    }, tmp_path / "ref")
    cand = tmp_path / "cand"
    shutil.copytree(ref, cand)
    proc = gate(ref, cand)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n0 end-metric violations\n")
    # phi_k of the second row one part in 1e9 off, at an unmoved state
    rows = _rows(cand / "run_5.csv")
    rows[2][3] = repr(float(rows[2][3]) * (1.0 + 1e-9))
    with open(cand / "run_5.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    bad = end_metric_violations(ref, cand)
    assert len(bad) == 1 and bad[0].startswith("run_5.csv:3 [5] phi_k: ")
    proc = gate(ref, cand)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == bad[0] and lines[-1] == "1 end-metric violations"
    proc = gate(ref)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "usage: python tests/test_equivalence.py REF_DIR CAND_DIR\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/test_equivalence.py REF_DIR CAND_DIR")
    found = end_metric_violations(sys.argv[1], sys.argv[2])
    for v in found:
        print(v)
    for (column, tol), d in sorted(end_metric_margins(sys.argv[1],
                                                      sys.argv[2]).items()):
        print("margin %s: largest |d|/max(1, |ref|) %s against %.0e"
              % (column, "%.1e" % d if d else "0 (identical)", tol))
    print("%d end-metric violations" % len(found))
    sys.exit(1 if found else 0)
