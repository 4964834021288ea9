"""Equivalence gates: warm-started diagnostics against cold ones, and
batched runs against serial ones.

The diagnostics of `sipba run` thread each snapshot's saddle into the next
(warm start). A warm solve stops at the same oracle tolerance as a cold one
but from another start, so the values differ in their last digits. The gate
bounds those differences on the README's synthetic experiment: n=100, the
README schedule, 3 seeds x 2000 steps, a snapshot every 100 steps, each
compared with a cold snapshot of the same state. The tolerances were fixed
before any candidate was measured; they scale with the oracle tolerance,
which bounds how far either solve can be from the exact saddle.

A batch of starts stepped as one block must give every start the run it has
alone: the tolerance, fixed before the batched step was written, is exact
equality of the final blocks, the iteration counts, the target iterations,
the stop reasons and error messages, and every callback state.

The command line forms each batch's relative-error denominator once; the
tolerance, fixed before that change, is exact equality with runs whose
target, diagnostics rows and final eps_rel divide by the denominator formed
on every call: iterations, target iterations, stop reasons, final blocks,
every eps_rel cell and final eps_rel.
"""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sipba import cli, solver
from sipba.benchmarks import (
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
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
)
from sipba.solver import (
    ScheduleParams,
    initial_state,
    run,
    with_gradient_counter,
)

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


def warm_threaded(problem, sp, states, oracle_tol=ORACLE_TOL):
    """Snapshots as `sipba run` takes them: each warm from the last."""
    out, warm = [], None
    for st in states:
        sn = snapshot(problem, sp, st, oracle_tol, warm=warm)
        out.append(sn)
        warm = sn.saddle
    return out


@pytest.fixture(scope="module")
def runs():
    """(problem, schedule, per seed: the states at each stride, their cold
    snapshots)."""
    sb = synthetic_problem(100)
    sp = ScheduleParams(**README_SCHEDULE)
    out = []
    for seed in SEEDS:
        states = []
        init = initial_state(sb.problem, *sb.sample_init(
            np.random.Generator(np.random.Philox(seed))))
        run(sb.problem, sp, init, STEPS, callback_stride=STRIDE,
            callback=lambda st, elapsed: states.append(st))
        cold = [snapshot(sb.problem, sp, st, ORACLE_TOL) for st in states]
        out.append((states, cold))
    return sb.problem, sp, out


def test_warm_snapshots_pass_the_gate(runs):
    problem, sp, per_seed = runs
    for states, cold in per_seed:
        assert len(states) == STEPS // STRIDE
        warm = warm_threaded(problem, sp, states)
        assert violations(cold, warm) == []
        # the candidate really is warm: one cold estimate, then 4-call ones
        assert [sn.saddle.estimate_calls for sn in warm] == \
            [31] + [4] * (len(states) - 1)
        assert all(sn.saddle.estimate_calls == 31 for sn in cold)


def test_gate_rejects_a_loose_oracle(runs):
    problem, sp, per_seed = runs
    states, cold = per_seed[0]
    assert violations(cold, warm_threaded(problem, sp, states, 1e-3))


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


def serial_runs(problem, sp, starts, steps, target=None, **kw):
    """Each start run alone: (RunResult or the error it raised, the states
    its callback saw)."""
    out = []
    for i, st in enumerate(starts):
        seen = []
        try:
            res = run(problem, sp, st, steps,
                      target=None if target is None else row_target(
                          target, i),
                      callback=lambda s, t: seen.append(s), **kw)
        except (DivergenceError, ParameterOverflowError) as err:
            res = err
        out.append((res, seen))
    return out


def row_target(target, i):
    """A batch target (rows, state) -> bools as row i's serial target."""
    return lambda st: bool(target(np.array([i]), replace(
        st, x=st.x[None], y=st.y[None], z=st.z[None]))[0])


def batched_run(problem, sp, starts, steps, target=None, **kw):
    seen = [[] for _ in starts]
    results = run(problem, sp, starts, steps, target=target,
                  callback=lambda i, s, t: seen[i].append(s), **kw)
    return list(zip(results, seen))


def same_state(a, b):
    return (a.k == b.k and np.array_equal(a.x, b.x)
            and np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z))


def assert_batch_equals_serial(serial, batched):
    assert len(serial) == len(batched)
    for (want, want_seen), (got, got_seen) in zip(serial, batched):
        assert len(got_seen) == len(want_seen)
        assert all(map(same_state, want_seen, got_seen))
        if isinstance(want, Exception):
            assert got.stop_reason == "error"
            assert type(got.error) is type(want)
            assert str(got.error) == str(want)
            if isinstance(want, DivergenceError):  # it names the last good state
                assert same_state(got.error.state, want.state)
                assert same_state(got.state, want.state)
            continue
        assert got.error is None
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
    assert all(isinstance(res, ParameterOverflowError) for res, _ in serial)
    assert_batch_equals_serial(serial, batched)
    assert [res.iterations for res, _ in batched] == [6, 6]


def test_hyper_rep_batch_loops_the_gradients_over_rows():
    data = generate_hyper_rep(6, 2, 8, 8, 8, 0.1, seed=3)
    prob = hyper_rep_problem(data)
    assert not prob.rowwise
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
    run(counted, sp, starts[0], 10)
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


@pytest.mark.parametrize("over", GATE_GRID, ids=lambda o: str(o) or "{}")
def test_cli_time_to_target_equals_the_six_argument_formula(
        criterion_06, over, monkeypatch, tmp_path):
    bundle, seeds, starts = criterion_06
    sb, sp = bundle.closed_form, ScheduleParams(**{**README_SCHEDULE, **over})

    # reference: each start alone, its target, its stride rows and its final
    # the six-argument formula inline
    want = []
    for st in starts:
        def eps(s, st=st):
            return old_relative_error(s.x, s.y, sb.x_star, sb.y_star, st.x,
                                      st.y)

        rows = []
        res = run(sb.problem, sp, st, GATE_MAX_ITER, stop_at_target=True,
                  target=lambda s: eps(s) < TARGET_EPS, callback_stride=100,
                  callback=lambda s, t: rows.append(eps(s)))
        want.append((res, eps(res.state), rows))

    # candidate: the command line's batch, its results caught on the way out
    caught = []

    def run_and_catch(*args, **kwargs):
        caught.extend(run(*args, **kwargs))
        return caught

    monkeypatch.setattr(cli, "run", run_and_catch)
    outs = cli._run_batch(sp, seeds, starts, bundle, str(tmp_path),
                          GATE_MAX_ITER, 100, ORACLE_TOL, TARGET_EPS, True)

    for (ref, ref_eps, ref_rows), got, out, seed in zip(want, caught, outs,
                                                        seeds):
        assert got.stop_reason == ref.stop_reason == "target"
        assert got.error is None and out["ok"]
        assert (got.iterations, got.target_iteration) == (
            ref.iterations, ref.target_iteration)
        assert out["target_iteration"] == ref.target_iteration
        assert same_state(got.state, ref.state)
        assert out["final_eps_rel"] == ref_eps
        with open(tmp_path / ("run_%d.csv" % seed), encoding="utf-8") as fh:
            col = [float(r["eps_rel"]) for r in csv.DictReader(fh)]
        assert col == ref_rows


def test_a_start_at_the_optimum_is_rejected_once_before_the_first_step(
        criterion_06, monkeypatch):
    bundle, seeds, starts = criterion_06
    sb = bundle.closed_form
    calls = {"den": 0, "step": 0}
    den, step = cli.relative_error_denominator, solver.sipba_step

    def counted_den(*args):
        calls["den"] += 1
        return den(*args)

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    monkeypatch.setattr(cli, "relative_error_denominator", counted_den)
    monkeypatch.setattr(solver, "sipba_step", counted_step)
    at_optimum = initial_state(sb.problem, sb.x_star, sb.y_star)
    with pytest.raises(ContractViolation, match="equals the optimum"):
        cli._run_batch(ScheduleParams(**README_SCHEDULE), seeds[:2],
                       [starts[0], at_optimum], bundle, None, 100, 100,
                       ORACLE_TOL, TARGET_EPS, True, write_rows=False)
    assert calls == {"den": 1, "step": 0}
