"""Acceptance suite: end-to-end checks of the documented guarantees.

Each test prints one PASS/FAIL line with the measured quantities next to the
thresholds. Wall-clock times are reported, never asserted; orderings between
configurations are asserted where the guarantee is about relative speed.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from sipba import (
    PenaltyReg,
    ScheduleParams,
    eval_phi,
    eval_psi,
    generate_hyper_rep,
    grad_phi,
    hyper_rep_init,
    hyper_rep_problem,
    hyper_rep_test_loss,
    initial_state,
    lemma_step_bound,
    operator_T,
    params_at,
    quadratic_testbed,
    relative_error,
    relative_error_denominator,
    run,
    run_double_loop_baseline,
    sandwich_check,
    sipba_step,
    solve_saddle,
    synthetic_problem,
)
from sipba.benchmarks import analytic_saddle
from sipba.cli import main as cli_main
from sipba.problem import _sample_interior
from sipba.smoothing import direction_x

REF_SCHEDULE = dict(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                p=0.001, q=0.001, s=0.1)


def report(num, ok, detail):
    print("criterion %d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_criterion_01_synthetic_convergence():
    # n=100, reference hyperparameters, 10 seeds, 20000 iterations:
    # at least 9/10 runs get below eps_rel 1e-4 and the best final value
    # is at most 1e-4. The 10 starts run as one batch, which gives each the
    # run it has alone bit for bit (tests/test_equivalence.py).
    t0 = time.perf_counter()
    sb = synthetic_problem(100)
    sp = ScheduleParams(**REF_SCHEDULE)
    inits = [initial_state(sb.problem, *sb.sample_init(philox(1000 + i)))
             for i in range(10)]
    den = relative_error_denominator(np.stack([st.x for st in inits]),
                                     np.stack([st.y for st in inits]),
                                     sb.x_star, sb.y_star)

    def eps(x, y, rows):
        return relative_error(x, y, sb.x_star, sb.y_star, den[rows])

    results = run(sb.problem, sp, inits, max_iter=20000,
                  target=lambda rows, st: eps(st.x, st.y, rows) < 1e-4)
    hits = sum(res.target_iteration is not None for res in results)
    finals = [eps(res.state.x, res.state.y, i) for i, res in enumerate(results)]
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and min(finals) <= 1e-4
    report(1, ok,
           "%d/10 runs reached eps_rel<1e-4, best final %.2e, "
           "worst final %.2e, %.1f s" % (hits, min(finals), max(finals),
                                         elapsed))


def test_criterion_02_gradient_formula_fidelity():
    # grad_phi against central differences of eval_phi: <=1e-6 on the
    # quadratic testbed, <=1e-4 on the synthetic family (n=4 and n=10)
    t0 = time.perf_counter()
    pr = PenaltyReg(10.0, 0.1)
    h = 1e-5
    tol = 1e-10
    worst = {}

    def fd_error(prob, x):
        g = grad_phi(prob, pr, x, tol=tol)
        fd = np.empty(prob.n_x)
        for i in range(prob.n_x):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (eval_phi(prob, pr, xp, tol=tol)
                     - eval_phi(prob, pr, xm, tol=tol)) / (2 * h)
        return float(np.linalg.norm(g - fd)
                     / max(float(np.linalg.norm(fd)), 1e-12))

    rng = np.random.default_rng(0)
    quad = quadratic_testbed()
    worst["testbed"] = max(fd_error(quad, np.array([rng.uniform(-3, 3)]))
                           for _ in range(20))
    for n in (4, 10):
        prob = synthetic_problem(n).problem
        worst["synthetic n=%d" % n] = max(
            fd_error(prob, _sample_interior(prob.set_X, rng))
            for _ in range(20))
    ok = (worst["testbed"] <= 1e-6
          and worst["synthetic n=4"] <= 1e-4
          and worst["synthetic n=10"] <= 1e-4)
    report(2, ok, "max rel err: testbed %.2e (<=1e-6), synthetic %.2e/%.2e "
                  "(<=1e-4), %.1f s"
           % (worst["testbed"], worst["synthetic n=4"],
              worst["synthetic n=10"], time.perf_counter() - t0))


def test_criterion_03_certified_contraction():
    # one projected fixed-point step below the certified bound contracts the
    # squared distance to the saddle by (1 - sig_bar*beta), 100 random draws
    quad = quadratic_testbed()
    rng = np.random.default_rng(3)
    worst_slack = np.inf
    for _ in range(100):
        rho = rng.uniform(0.2, 8.0)
        sigma = rng.uniform(0.05, 2.0)
        pr = PenaltyReg(rho, sigma)
        beta = rng.uniform(0.1, 0.999) * lemma_step_bound(quad, pr)
        x = np.array([rng.normal(scale=2.0)])
        u = rng.normal(scale=3.0, size=2)
        ys, zs = analytic_saddle(float(x[0]), rho, sigma)
        ustar = np.concatenate((ys, zs))
        u_next = u - beta * operator_T(quad, pr, x, u)
        sig_bar = min(sigma, quad.mu)
        lhs = float(np.dot(u_next - ustar, u_next - ustar))
        rhs = (1 - sig_bar * beta) * float(np.dot(u - ustar, u - ustar))
        worst_slack = min(worst_slack, rhs + 1e-12 - lhs)
    ok = worst_slack >= 0.0
    report(3, ok, "100/100 contraction inequalities hold, tightest margin "
                  "%.2e" % worst_slack)


def test_criterion_04_saddle_limit_and_sandwich():
    # at rho=1e4, sigma=1e-4 the oracle saddle collapses onto the worst-case
    # response (y*(x), y*(x)) and the smoothed value is close to the true one;
    # the approximation gap shrinks monotonically along the schedule diagonal
    t0 = time.perf_counter()
    sb = synthetic_problem(4)
    prob = sb.problem
    pr = PenaltyReg(1e4, 1e-4)
    rng = np.random.default_rng(4)
    worst_dev = 0.0
    worst_gap = 0.0
    for _ in range(20):
        x = _sample_interior(prob.set_X, rng)
        ys = sb.closed_form_y_star(x)
        sd = solve_saddle(prob, pr, x, tol=1e-6)
        dev = float(np.linalg.norm(sd.u - np.concatenate((ys, ys))))
        gap = abs(eval_psi(prob, pr, x, sd.y_star, sd.z_star)
                  - sb.closed_form_phi(x))
        worst_dev = max(worst_dev, dev)
        worst_gap = max(worst_gap, gap)
    rep = sandwich_check(sb, np.ones(4),
                         rho_list=[1e1, 1e2, 1e3, 1e4],
                         sigma_list=[1e-1, 1e-2, 1e-3, 1e-4],
                         oracle_tol=1e-8)
    ok = worst_dev < 1e-3 and worst_gap < 5e-2 and rep.diagonal_monotone
    report(4, ok,
           "saddle dev %.2e (<1e-3), value gap %.2e (<5e-2), diagonal gaps "
           "%s monotone, %.1f s"
           % (worst_dev, worst_gap,
              "/".join("%.1e" % abs(r.gap) for r in rep.diagonal),
              time.perf_counter() - t0))


def test_criterion_05_rate_shape():
    # in the valid schedule regime the running minima of tracking error and
    # stationarity residual keep decreasing across decades of iterations;
    # fitted decay exponents are reported, not asserted
    quad = quadratic_testbed()
    sp = ScheduleParams(alpha0=5e-5, beta0=5e-4, rho0=1.0, sigma0=1e-4,
                        p=0.025, q=0.025, s=0.4)
    marks = (list(range(10, 101, 10)) + list(range(200, 1001, 100))
             + list(range(2000, 10001, 1000)))
    st = initial_state(quad, [2.0], [-1.0], [-1.0])
    te, sr = {}, {}
    for _ in range(10000):
        st = sipba_step(quad, params_at(sp, st.k), st)
        done = st.k - 1
        if done in marks:
            pars = params_at(sp, done)
            pr = PenaltyReg(pars.rho, pars.sigma)
            sd = solve_saddle(quad, pr, st.x, tol=1e-10)
            te[done] = float(np.linalg.norm(
                np.concatenate((st.y, st.z)) - sd.u))
            g = direction_x(quad, pr, st.x, sd.y_star, sd.z_star)
            moved = quad.set_X.project(st.x - pars.alpha * g)
            sr[done] = float(np.linalg.norm(st.x - moved)) / pars.alpha

    def running_min(series, upto):
        return min(v for k, v in series.items() if k <= upto)

    ks = [100, 1000, 10000]
    te_mins = [running_min(te, k) for k in ks]
    sr_mins = [running_min(sr, k) for k in ks]
    ok = all(b < a for a, b in zip(te_mins, te_mins[1:]))
    ok = ok and all(b < a for a, b in zip(sr_mins, sr_mins[1:]))
    slope = lambda vals: np.polyfit(np.log10(ks), np.log10(vals), 1)[0]
    report(5, ok,
           "running minima strictly decrease: tracking %s, residual %s; "
           "fitted exponents %.2f / %.2f"
           % ("/".join("%.2e" % v for v in te_mins),
              "/".join("%.2e" % v for v in sr_mins),
              slope(te_mins), slope(sr_mins)))


ABLATION_ROWS = [
    {},
    {"alpha0": 1.0}, {"alpha0": 0.01},
    {"beta0": 0.01}, {"beta0": 0.0001},
    {"p": 0.01}, {"p": 0.0001},
    {"q": 0.01}, {"q": 0.0001},
    {"s": 0.3}, {"s": 0.016},
    {"p": 0.01, "q": 0.01, "s": 0.16},
]


def test_criterion_06_ablation_robustness():
    # all 12 schedule variants still reach eps_rel < 1e-4 on n=100 within
    # 2e5 iterations; halving-by-10 of beta0 must cost wall time. The 36
    # (variant, start) runs step as one batch with one schedule per row, as
    # sipba ablate runs them, each row bit-identical to its serial run
    # (tests/test_equivalence.py); a row's time-to-target is its share of
    # the batch's stepping clock, which grows with its target iteration.
    t0 = time.perf_counter()
    sb = synthetic_problem(100)
    draws = [sb.sample_init(philox(1000 + i)) for i in range(3)]
    schedules = [ScheduleParams(**{**REF_SCHEDULE, **over})
                 for over in ABLATION_ROWS]
    inits = [initial_state(sb.problem, *draw)
             for _ in schedules for draw in draws]
    den = relative_error_denominator(np.stack([st.x for st in inits]),
                                     np.stack([st.y for st in inits]),
                                     sb.x_star, sb.y_star)
    results = run(
        sb.problem, [sp for sp in schedules for _ in draws], inits,
        max_iter=200000,
        target=lambda rows, st: relative_error(
            st.x, st.y, sb.x_star, sb.y_star, den[rows]) < 1e-4,
        stop_at_target=True)
    hit = [res for res in results if res.target_iteration is not None]
    all_hit = len(hit) == len(results)
    worst_iters = max((res.target_iteration for res in hit), default=0)
    mean_times = []
    for i in range(len(schedules)):
        times = [res.target_seconds for res in results[3 * i:3 * i + 3]
                 if res.target_iteration is not None]
        mean_times.append(np.mean(times) if times else np.inf)
    slow, fast = mean_times[4], mean_times[0]  # beta0=1e-4 vs beta0=1e-3
    ok = all_hit and slow > fast
    report(6, ok,
           "36/36 runs hit target: %s; worst case %d iterations; "
           "beta0=1e-4 time %.3f s > beta0=1e-3 time %.3f s; total %.1f s"
           % (all_hit, worst_iters, slow, fast, time.perf_counter() - t0))


HR_SP = dict(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01,
             p=0.01, q=0.01, s=0.16)
HR_STEPS = 30000  # 6 gradient evaluations per step


def _hyper_rep_pair(n_feat, noise_a):
    data = generate_hyper_rep(n_feat, 5, 100, 100, 500, noise_a, seed=7)
    prob = hyper_rep_problem(data)
    x0, y0, z0 = hyper_rep_init(data, philox(42))
    init_loss = hyper_rep_test_loss(data, x0, y0)

    sp = ScheduleParams(**HR_SP)
    (res,) = run(prob, sp, [initial_state(prob, x0, y0, z0)], HR_STEPS)
    s_loss = hyper_rep_test_loss(data, res.state.x, res.state.y)

    # the baseline as sipba compare runs it: its first inner solve starts at
    # the oracle's default start, not at (y0, z0)
    sp_base = ScheduleParams(**{**HR_SP, "alpha0": 0.2})
    base = run_double_loop_baseline(prob, sp_base, x0, 6 * HR_STEPS,
                                    inner_tol=1e-5)
    b_loss = hyper_rep_test_loss(data, base.x, base.saddle.y_star)
    return init_loss, s_loss, b_loss


def test_criterion_07_hyper_representation_parity():
    # with matched gradient budgets the single-loop method lands within 10%
    # of the double-loop baseline's test loss, both at least halving the
    # initial loss; the noise-free instance is solved to near optimality
    t0 = time.perf_counter()
    details = []
    ok = True
    for n_feat in (50, 100):
        for a in (0.1, 1.0):
            init_loss, s_loss, b_loss = _hyper_rep_pair(n_feat, a)
            within = abs(s_loss - b_loss) <= 0.10 * b_loss
            halved = s_loss <= 0.5 * init_loss and b_loss <= 0.5 * init_loss
            ok = ok and within and halved
            details.append("n%d/a%g ratio %.3f red %.0e"
                           % (n_feat, a, s_loss / b_loss, s_loss / init_loss))

    # a=0: the upper objective itself must be driven (nearly) to zero
    data = generate_hyper_rep(50, 5, 100, 100, 500, 0.0, seed=7)
    prob = hyper_rep_problem(data)
    x0, y0, z0 = hyper_rep_init(data, philox(42))
    f_init = prob.F(x0, y0)
    (res,) = run(prob, ScheduleParams(**HR_SP),
                 [initial_state(prob, x0, y0, z0)], max_iter=HR_STEPS)
    f_ratio = prob.F(res.state.x, res.state.y) / f_init
    ok = ok and f_ratio < 1e-3
    report(7, ok, "%s; a=0 upper objective ratio %.1e (<1e-3); %.0f s"
           % ("; ".join(details), f_ratio, time.perf_counter() - t0))


def test_criterion_08_run_determinism(tmp_path):
    # same config and seed twice: every CSV cell outside the wall-clock
    # column is bit-identical
    cfg = {
        "problem": {"kind": "synthetic", "n": 10},
        "schedule": REF_SCHEDULE,
        "run": {"max_iter": 2000, "seeds": [1234], "stride": 500,
                "oracle_tol": 1e-8, "target_eps_rel": 1e-4},
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg), encoding="utf-8")
    tables = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        with open(out / "run_1234.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        ti = rows[0].index("time_s")
        tables.append([tuple(v for i, v in enumerate(r) if i != ti)
                       for r in rows])
    ok = tables[0] == tables[1]
    report(8, ok, "%d rows x %d columns bit-identical across two runs "
                  "(wall-clock column excluded)"
           % (len(tables[0]), len(tables[0][0])))


def test_criterion_09_scope_declaration():
    # the experiments this library does not reproduce must be called out in
    # the README rather than silently dropped
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().lower()
    ok = ("spam" in text and "deep" in text
          and ("not reproduced" in text or "out of scope" in text))
    report(9, ok, "README documents the spam-classification and deep "
                  "hyper-representation studies as out of scope")
