"""Command-line benchmark harness.

    sipba run|ablate|gradcheck|compare|asymptotics --config cfg.json [--jobs N] [--out DIR]

All commands share one JSON configuration document; each reads the common
``problem``/``schedule``/``run`` blocks plus its own section:

    run          one SiPBA run per seed; per-run diagnostics CSV + summary CSV
    ablate       grid of schedule overrides; time-to-target table
    gradcheck    finite-difference validation of the problem gradients and of
                 the smoothed-value gradient; nonzero exit above threshold
    compare      SiPBA vs the double-loop baseline at an equal budget of
                 gradient evaluations; aligned convergence-curve CSVs
    asymptotics  smoothed-vs-exact value sandwich and saddle-limit tables on
                 the closed-form synthetic family

CSV files are UTF-8 with LF line endings and 17-significant-digit floats, so
reruns with the same config and seed reproduce every numerical column
bit-for-bit (wall-time columns excepted). The environment variable SIPBA_SEED
overrides the configured seed base. Each command reads and checks its config
once, before any run starts (also under --jobs): a bad value is reported as
``cfg:line: message`` with exit code 1. Exit codes: 0 success, 1 config
error, 2 nothing completed (numerical failure), 3 acceptance violation.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .benchmarks import (
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    hyper_rep_test_loss,
    quadratic_testbed,
    save_hyper_rep,
    synthetic_problem,
)
from .diagnostics import merit_value, relative_error, sandwich_check, snapshot
from .errors import (
    DivergenceError,
    ParameterOverflowError,
    SaddleConvergenceError,
)
from .problem import _fd_error, _sample_interior, check_gradients
from .saddle import eval_phi, grad_phi
from .smoothing import PenaltyReg
from .solver import (
    ScheduleParams,
    initial_state,
    run,
    run_double_loop_baseline,
    with_gradient_counter,
)

_MISSING = object()

RUN_COLUMNS = ["run_id", "k", "time_s", "phi_k", "eps_rel", "tracking_err",
               "stat_residual", "merit"]
SUMMARY_COLUMNS = ["runs", "completed", "valid_runs", "target_eps_rel",
                   "min_final_eps_rel", "max_final_eps_rel",
                   "mean_time_to_target_s"]
ABLATE_COLUMNS = ["row_id", "alpha0", "beta0", "rho0", "sigma0", "p", "q", "s",
                  "runs", "valid_runs", "mean_time_to_target_s",
                  "std_time_to_target_s", "mean_final_eps_rel"]
COMPARE_COLUMNS = ["method", "run_id", "step", "grad_evals", "time_s",
                   "metric_name", "metric"]
SCHEDULE_FIELDS = ("alpha0", "beta0", "rho0", "sigma0", "p", "q", "s",
                   "t_exp", "rho_cap")


class ConfigError(Exception):
    """Invalid configuration; carries the offending key or line."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line


def _line_of(raw, key):
    # best-effort line lookup for semantic errors: the first occurrence of
    # the key; for a dotted key "a.b", the first "b" from the first "a" on
    if not (raw and key):
        return 1
    lines = raw.splitlines()
    found, start = 1, 0
    for part in key.split("."):
        needle = '"%s"' % part
        hit = next((i for i in range(start, len(lines)) if needle in lines[i]),
                   None)
        if hit is None:
            break
        found, start = hit + 1, hit
    return found


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e, line=1)
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError("JSON parse error: %s" % e.msg, line=e.lineno)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object", line=1)
    return cfg, raw


_KINDS = {"num": (int, float), "int": int, "str": str, "bool": bool,
          "list": list, "dict": dict}


def _is(v, kind):
    # a JSON true/false is a Python int, but only a "bool" in a config
    return isinstance(v, _KINDS[kind]) and (kind == "bool"
                                            or not isinstance(v, bool))


def _get(d, key, kind, default=_MISSING):
    if key not in d:
        if default is _MISSING:
            raise ConfigError("missing required key '%s'" % key, key=key)
        return default
    v = d[key]
    if not _is(v, kind):
        raise ConfigError("key '%s' must be a %s" % (key, kind), key=key)
    return v


def _get_count(d, section, key, low, default=_MISSING):
    """Integer d[key] that must be >= low; errors name section.key."""
    v = _get(d, key, "int", default)
    if v is not None and v < low:
        name = "%s.%s" % (section, key)
        raise ConfigError("%s must be >= %d, got %d" % (name, low, v), key=name)
    return v


def _get_positive(d, section, key, default):
    """Positive finite float d[key], or a nonempty list of them when the
    default is a list; errors name section.key."""
    v = _get(d, key, "list" if isinstance(default, list) else "num", default)
    vals = v if isinstance(v, list) else [v]
    if not (vals and all(_is(u, "num") and 0 < u < math.inf for u in vals)):
        name = "%s.%s" % (section, key)
        raise ConfigError("%s must be %s, got %r" % (
            name, "a nonempty list of positive finite numbers" if vals is v
            else "positive and finite", v), key=name)
    return [float(u) for u in v] if vals is v else float(v)


# ---------------------------------------------------------------------------
# config -> objects


def build_schedule(cfg, overrides=None):
    sd = dict(_get(cfg, "schedule", "dict", default={}))
    if overrides:
        for k in overrides:
            if k not in SCHEDULE_FIELDS:
                raise ConfigError("unknown schedule override '%s'" % k, key="grid")
        sd.update(overrides)
    guideline = bool(sd.pop("guideline", False))
    for k in sd:
        if k not in SCHEDULE_FIELDS:
            raise ConfigError("unknown schedule key '%s'" % k, key=k)
        _get(sd, k, "num")
    if guideline:
        if "s" in sd:
            raise ConfigError("'s' cannot be set with guideline, which forces "
                              "s = 8(p+q)", key="s")
        required, make = ("alpha0", "beta0", "sigma0"), ScheduleParams.guideline
    else:
        required = ("alpha0", "beta0", "rho0", "sigma0", "p", "q", "s")
        make = ScheduleParams
    for k in required:
        _get(sd, k, "num")
    try:
        return make(**{k: float(v) for k, v in sd.items()})
    except ValueError as e:
        raise ConfigError("invalid schedule: %s" % e, key="schedule")


class ProblemBundle:
    """Problem plus the bookkeeping the harness needs around it."""

    def __init__(self, problem, sample_init, optimum=None, closed_form=None,
                 metric_name="upper_objective", metric=None):
        self.problem = problem
        self.sample_init = sample_init
        self.optimum = optimum          # (x_star, y_star) or None
        self.closed_form = closed_form  # object with closed_form_phi/y_star
        self.metric_name = metric_name
        self.metric = metric            # callable(x, y) -> float

    def eps_rel(self, x, y, x0, y0):
        """Relative error of (x, y) to the known optimum; None without one."""
        if self.optimum is None:
            return None
        return relative_error(x, y, *self.optimum, x0, y0)


def build_problem(cfg, out_dir=None):
    pd = _get(cfg, "problem", "dict")
    kind = _get(pd, "kind", "str")
    if kind == "synthetic":
        n = _get_count(pd, "problem", "n", 2)
        sbench = synthetic_problem(n)
        return ProblemBundle(
            sbench.problem, sbench.sample_init,
            optimum=(sbench.x_star, sbench.y_star), closed_form=sbench,
            metric_name="eps_rel",
        )
    if kind == "quadratic":
        prob = quadratic_testbed()

        def sample(rng):
            x0 = rng.uniform(-3.0, 3.0, 1)
            y0 = rng.uniform(-3.0, 3.0, 1)
            return x0, y0, y0.copy()

        return ProblemBundle(prob, sample,
                             metric=lambda x, y: prob.F(x, y))
    if kind == "hyper_rep":
        data = generate_hyper_rep(
            n_feat=_get_count(pd, "problem", "n_feat", 1),
            p_dim=_get_count(pd, "problem", "p_dim", 1),
            m1=_get_count(pd, "problem", "m1", 1),
            m2=_get_count(pd, "problem", "m2", 1),
            m_test=_get_count(pd, "problem", "m_test", 1),
            noise_a=float(_get(pd, "noise_a", "num")),
            seed=_get(pd, "data_seed", "int"),
        )
        save_as = _get(pd, "save_data", "str", default=None)
        if save_as:
            path = save_as if os.path.isabs(save_as) or out_dir is None \
                else os.path.join(out_dir, save_as)
            save_hyper_rep(data, path)
        prob = hyper_rep_problem(data)
        return ProblemBundle(
            prob, lambda rng: hyper_rep_init(data, rng),
            metric_name="test_loss",
            metric=lambda x, y: hyper_rep_test_loss(data, x, y),
        )
    raise ConfigError("unknown problem kind '%s'" % kind, key="kind")


def resolve_seeds(cfg):
    rc = _get(cfg, "run", "dict", default={})
    spec = rc.get("seeds", {"base": 0, "count": 1})
    if isinstance(spec, list):
        if not spec or not all(_is(s, "int") for s in spec):
            raise ConfigError("'seeds' list must be nonempty integers", key="seeds")
        seeds = [int(s) for s in spec]
    elif isinstance(spec, dict):
        base = _get(spec, "base", "int")
        count = _get(spec, "count", "int")
        if count < 1:
            raise ConfigError("seed count must be >= 1", key="count")
        seeds = [base + i for i in range(count)]
    else:
        raise ConfigError("'seeds' must be a list or {base, count}", key="seeds")
    env = os.environ.get("SIPBA_SEED")
    if env is not None:
        try:
            base = int(env)
        except ValueError:
            raise ConfigError("SIPBA_SEED must be an integer, got %r" % env,
                              key="seeds")
        seeds = [base + i for i in range(len(seeds))]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be unique (one output file per run)",
                          key="seeds")
    return seeds


def _problem_and_init(cfg, out_dir):
    """(problem bundle, checked explicit run.init (x0, y0, z0) or None)."""
    bundle = build_problem(cfg, out_dir)
    rc = _get(cfg, "run", "dict", default={})
    init = _get(rc, "init", "dict", default=None)
    if init is None:
        return bundle, None
    x0 = np.asarray(_get(init, "x0", "list"), dtype=float)
    y0 = np.asarray(_get(init, "y0", "list"), dtype=float)
    z0 = init.get("z0")
    z0 = y0.copy() if z0 is None else np.asarray(z0, dtype=float)
    prob = bundle.problem
    for key, v, n in zip(("x0", "y0", "z0"), (x0, y0, z0),
                         (prob.n_x, prob.n_y, prob.n_y)):
        if v.shape != (n,):
            raise ConfigError("run.init.%s must have %d entries, got shape %s"
                              % (key, n, v.shape), key=key)
    return bundle, (x0, y0, z0)


def _run_settings(cfg, out_dir, max_iter=None, stop_at_target=None):
    """Checked problem, run.init and run block, as _run_single keywords
    (the parent's problem is not kept: each task builds its own)."""
    bundle, start = _problem_and_init(cfg, out_dir)
    rc = _get(cfg, "run", "dict", default={})
    if max_iter is None:
        max_iter = _get_count(rc, "run", "max_iter", 0)
    stride = _get_count(rc, "run", "stride", 1, default=100)
    oracle_tol = float(_get(rc, "oracle_tol", "num", default=1e-8))
    target_eps = _get(rc, "target_eps_rel", "num", default=None)
    if stop_at_target is None:
        stop_at_target = _get(rc, "stop_at_target", "bool", default=False)
    if target_eps is not None and bundle.optimum is None:
        raise ConfigError("target_eps_rel needs a problem with a known optimum",
                          key="target_eps_rel")
    return dict(start=start, max_iter=max_iter, stride=stride,
                oracle_tol=oracle_tol, target_eps=target_eps,
                stop_at_target=stop_at_target)


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) for v in r])


# ---------------------------------------------------------------------------
# tasks, worker-safe: each gets values the parent checked before fan-out and
# rebuilds only the problem, whose closures do not pickle


def _run_single(cfg, out_dir, sp, seed, start, max_iter, stride, oracle_tol,
                target_eps, stop_at_target, write_rows=True):
    bundle = build_problem(cfg, out_dir)
    prob = bundle.problem
    init = initial_state(prob, *(start or bundle.sample_init(
        np.random.Generator(np.random.Philox(seed)))))
    x_init, y_init = init.x.copy(), init.y.copy()

    target = None
    if target_eps is not None:
        def target(st):
            return bundle.eps_rel(st.x, st.y, x_init, y_init) < target_eps

    rows = []
    phi_min = [np.inf]

    def cb(st, elapsed):
        done = st.k - 1
        sn = snapshot(prob, sp, st, oracle_tol)
        phi_min[0] = min(phi_min[0], sn.phi)
        merit = merit_value(done, sp.s, sp.t_exp, sn.phi - (phi_min[0] - 1.0),
                            sn.tracking_err)
        eps = bundle.eps_rel(st.x, st.y, x_init, y_init)
        rows.append((seed, done, elapsed, sn.phi, eps, sn.tracking_err,
                     sn.stat_residual, merit))

    try:
        res = run(prob, sp, init, max_iter, target=target,
                  stop_at_target=stop_at_target,
                  callback=cb if write_rows else None, callback_stride=stride)
    except (DivergenceError, ParameterOverflowError,
            SaddleConvergenceError) as e:
        out = {"ok": False, "error": str(e)}
    else:
        out = {"ok": True, "iterations": res.iterations,
               "target_iteration": res.target_iteration,
               "target_seconds": res.target_seconds,
               "final_eps_rel": bundle.eps_rel(res.state.x, res.state.y,
                                               x_init, y_init)}
    if write_rows:
        _write_csv(os.path.join(out_dir, "run_%d.csv" % seed), RUN_COLUMNS,
                   rows)
    return out


def _fan_out(tasks, jobs):
    """Results of picklable callables, in order, run inline or in workers."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn() for fn in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        futs = [ex.submit(fn) for fn in tasks]
        return [f.result() for f in futs]


def _tally(runs):
    """(completed runs, runs that hit the target, their seconds, final eps_rel)."""
    completed = [r for r in runs if r["ok"]]
    valid = [r for r in completed if r["target_iteration"] is not None]
    times = [r["target_seconds"] for r in valid]
    finals = [r["final_eps_rel"] for r in completed
              if r["final_eps_rel"] is not None]
    return completed, valid, times, finals


# ---------------------------------------------------------------------------
# commands


def cmd_run(cfg, jobs, out_dir):
    seeds = resolve_seeds(cfg)
    kw = _run_settings(cfg, out_dir)
    sp = build_schedule(cfg)
    target_eps = kw["target_eps"]
    ordered = _fan_out([partial(_run_single, cfg, out_dir, sp, s, **kw)
                        for s in seeds], jobs)

    for s, r in zip(seeds, ordered):
        if r["ok"]:
            hit = ("target at k=%d (%.3f s)" % (r["target_iteration"],
                                                r["target_seconds"])
                   if r["target_iteration"] is not None else "no target hit"
                   if target_eps is not None else "")
            eps_txt = ("final eps_rel %.3e" % r["final_eps_rel"]
                       if r["final_eps_rel"] is not None else "")
            print("run %d: %d iterations  %s  %s"
                  % (s, r["iterations"], eps_txt, hit))
        else:
            print("run %d: FAILED (%s)" % (s, r["error"]))

    completed, valid, times, finals = _tally(ordered)
    summary = (len(ordered), len(completed),
               len(valid) if target_eps is not None else None, target_eps,
               min(finals, default=None), max(finals, default=None),
               float(np.mean(times)) if times else None)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, [summary])
    if finals:
        print("summary: %d/%d completed, final eps_rel in [%.3e, %.3e]"
              % (len(completed), len(ordered), min(finals), max(finals)))
    if target_eps is not None:
        print("valid runs (eps_rel < %g): %d/%d%s"
              % (target_eps, len(valid), len(ordered),
                 ", mean time-to-target %.3f s" % float(np.mean(times))
                 if times else ""))
    return 0 if completed else 2


def cmd_ablate(cfg, jobs, out_dir):
    ab = _get(cfg, "ablate", "dict", default=None)
    if not ab:
        raise ConfigError("ablate needs an 'ablate' section with a grid",
                          key="ablate")
    grid = _get(ab, "grid", "list")
    if not grid or not all(isinstance(g, dict) for g in grid):
        raise ConfigError("'grid' must be a nonempty list of override objects",
                          key="grid")
    max_iter = _get_count(ab, "ablate", "max_iter", 0, default=None)
    seeds = resolve_seeds(cfg)
    schedules = [build_schedule(cfg, ov) for ov in grid]
    kw = _run_settings(cfg, out_dir, max_iter, stop_at_target=True)

    results = _fan_out([
        partial(_run_single, cfg, out_dir, sp, s, write_rows=False, **kw)
        for sp in schedules for s in seeds], jobs)

    table = []
    for i, sp in enumerate(schedules):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        completed, valid, times, finals = _tally(runs)
        table.append((
            i, sp.alpha0, sp.beta0, sp.rho0, sp.sigma0, sp.p, sp.q, sp.s,
            len(runs), len(valid),
            float(np.mean(times)) if times else None,
            float(np.std(times)) if times else None,
            float(np.mean(finals)) if finals else None,
        ))
        print("row %2d: alpha0=%-8g beta0=%-8g p=%-8g q=%-8g s=%-8g  "
              "valid %d/%d%s"
              % (i, sp.alpha0, sp.beta0, sp.p, sp.q, sp.s, len(valid),
                 len(runs),
                 "  time-to-target %.3f +- %.3f s"
                 % (float(np.mean(times)), float(np.std(times)))
                 if times else ""))
    _write_csv(os.path.join(out_dir, "ablation.csv"), ABLATE_COLUMNS, table)
    return 0 if any(r["ok"] for r in results) else 2


def cmd_gradcheck(cfg, jobs, out_dir):
    gc = _get(cfg, "gradcheck", "dict", default={})
    threshold = float(_get(gc, "threshold", "num", default=1e-4))
    n_points = _get_count(gc, "gradcheck", "n_points", 1, default=20)
    fd_step = _get_positive(gc, "gradcheck", "fd_step", 1e-5)
    oracle_tol = float(_get(gc, "oracle_tol", "num", default=1e-10))
    rho = _get_positive(gc, "gradcheck", "rho", 10.0)
    sigma = _get_positive(gc, "gradcheck", "sigma", 0.1)
    prob = build_problem(cfg, out_dir).problem

    report = check_gradients(prob, n_points=n_points, fd_step=fd_step,
                             rng=np.random.default_rng(0))
    print(report)

    pr = PenaltyReg(rho, sigma)
    rng = np.random.default_rng(1)
    worst_phi = 0.0
    try:
        for _ in range(n_points):
            x = _sample_interior(prob.set_X, rng)
            g = grad_phi(prob, pr, x, tol=oracle_tol)
            phi = partial(eval_phi, prob, pr, tol=oracle_tol)
            worst_phi = max(worst_phi, _fd_error(phi, g, x, fd_step))
    except SaddleConvergenceError as e:
        print("gradcheck: oracle failure: %s" % e, file=sys.stderr)
        return 2
    print("grad_phi   max rel err %.3e  (rho=%g, sigma=%g)"
          % (worst_phi, rho, sigma))

    errs = sorted(report.errors.items()) + [("grad_phi", worst_phi)]
    _write_csv(os.path.join(out_dir, "gradcheck.csv"),
               ["gradient", "max_rel_err", "threshold", "passed"],
               [(n, e, threshold, str(e <= threshold)) for n, e in errs])
    failed = [n for n, e in errs if not e <= threshold]
    if failed:
        print("gradcheck FAILED above threshold %g: %s"
              % (threshold, ", ".join(failed)), file=sys.stderr)
        return 3
    print("gradcheck passed (threshold %g)" % threshold)
    return 0


def _baseline_under_budget(prob, sp, x0, u0, budget, inner_tol,
                           max_outer=None, callback=None):
    """Double-loop baseline driven to a gradient-evaluation budget.

    Returns (x, last saddle, outer iterations, inner failures, seconds).
    prob should come from with_gradient_counter so its counter is reused.
    """
    res = run_double_loop_baseline(
        prob, sp, x0, max_outer, inner_tol=inner_tol,
        inner_max_iter=budget,  # only the remaining budget caps a solve
        u0=u0, callback=callback, grad_budget=budget)
    return (res.x, res.saddle, res.outer_iterations, res.inner_failures,
            res.step_seconds)


def _compare_single(cfg, out_dir, start, sp, seed, sp_base, stride, budget,
                    inner_tol, max_outer):
    bundle = build_problem(cfg, out_dir)
    x0, y0, z0 = start or bundle.sample_init(
        np.random.Generator(np.random.Philox(seed)))
    rows = []
    out = {"ok": True, "baseline_final": None, "metric_name": bundle.metric_name}

    # single-loop arm
    prob_s, cnt_s = with_gradient_counter(bundle.problem)
    init = initial_state(prob_s, x0, y0, z0)
    x_init, y_init = init.x.copy(), init.y.copy()

    def metric_fn(x, y):
        eps = bundle.eps_rel(x, y, x_init, y_init)
        return bundle.metric(x, y) if eps is None else eps

    def cb(st, elapsed):
        rows.append(("sipba", seed, st.k - 1, cnt_s.count, elapsed,
                     bundle.metric_name, metric_fn(st.x, st.y)))

    try:
        res = run(prob_s, sp, init, budget // 6, callback=cb,
                  callback_stride=stride)
        out.update(sipba_final=metric_fn(res.state.x, res.state.y),
                   sipba_evals=cnt_s.count)
    except (DivergenceError, ParameterOverflowError,
            SaddleConvergenceError) as e:
        out.update(ok=False, error="sipba: %s" % e)

    # double-loop arm
    if out["ok"] and (max_outer is None or max_outer > 0):
        prob_b, cnt_b = with_gradient_counter(bundle.problem)
        u0 = np.concatenate((init.y, init.z))

        def bl_cb(k, x, sd, inner_total, elapsed):
            rows.append(("baseline", seed, k, cnt_b.count, elapsed,
                         bundle.metric_name, metric_fn(x, sd.y_star)))

        try:
            bx, bsd, _, _, _ = _baseline_under_budget(
                prob_b, sp_base, x0, u0, budget, inner_tol,
                max_outer=max_outer, callback=bl_cb)
            if bsd is not None:
                out["baseline_final"] = metric_fn(bx, bsd.y_star)
            out["baseline_evals"] = cnt_b.count
        except (DivergenceError, ParameterOverflowError) as e:
            out.update(ok=False, error="baseline: %s" % e)

    _write_csv(os.path.join(out_dir, "compare_%d.csv" % seed),
               COMPARE_COLUMNS, rows)
    return out


def cmd_compare(cfg, jobs, out_dir):
    seeds = resolve_seeds(cfg)
    start = _problem_and_init(cfg, out_dir)[1]  # tasks build their own problem
    cc = _get(cfg, "compare", "dict", default={})
    rc = _get(cfg, "run", "dict", default={})
    stride = _get_count(rc, "run", "stride", 1, default=100)
    # one single-loop step costs 6 gradient evaluations
    budget = _get_count(cc, "compare", "budget", 6, default=None)
    if budget is None:
        # only needed as the budget default; an explicit budget stands alone
        budget = 6 * _get_count(rc, "run", "max_iter", 0)
    inner_tol = float(_get(cc, "inner_tol", "num", default=1e-5))
    max_outer = _get(cc, "baseline_max_outer", "int", default=None)
    sp = build_schedule(cfg)
    sp_base = build_schedule(cfg, cc.get("baseline_schedule") or {})
    ordered = _fan_out([partial(_compare_single, cfg, out_dir, start, sp, s,
                                sp_base, stride, budget, inner_tol, max_outer)
                        for s in seeds], jobs)
    for s, r in zip(seeds, ordered):
        if r["ok"]:
            base_txt = ("%.6e (%d evals)" % (r["baseline_final"],
                                             r["baseline_evals"])
                        if r["baseline_final"] is not None else "skipped")
            print("run %d: %s  sipba %.6e (%d evals)  baseline %s"
                  % (s, r["metric_name"], r["sipba_final"],
                     r["sipba_evals"], base_txt))
        else:
            print("run %d: FAILED (%s)" % (s, r["error"]))
    return 0 if any(r["ok"] for r in ordered) else 2


def cmd_asymptotics(cfg, jobs, out_dir):
    bundle = build_problem(cfg, out_dir)
    if bundle.closed_form is None:
        raise ConfigError(
            "asymptotics needs the closed-form synthetic problem", key="kind")
    ac = _get(cfg, "asymptotics", "dict", default={})
    rho_list = _get_positive(ac, "asymptotics", "rho_list",
                             [1e1, 1e2, 1e3, 1e4])
    sigma_list = _get_positive(ac, "asymptotics", "sigma_list",
                               [1e-1, 1e-2, 1e-3, 1e-4])
    oracle_tol = float(_get(ac, "oracle_tol", "num", default=1e-8))
    saddle_tol = float(_get(ac, "saddle_tol", "num", default=1e-3))
    diag_slack = float(_get(ac, "diag_slack", "num", default=1e-8))
    slack = _get(ac, "slack", "num", default=None)

    cf = bundle.closed_form
    xsel = ac.get("x", "ones")
    n = bundle.problem.n_x
    if isinstance(xsel, list):
        x = np.asarray(xsel, dtype=float)
        if x.shape != (n,):
            raise ConfigError("asymptotics x must have length %d" % n, key="x")
    elif xsel == "ones":
        x = np.ones(n)
    elif xsel == "optimum":
        x = cf.x_star.copy()
    else:
        raise ConfigError("asymptotics x must be a list, 'ones' or 'optimum'",
                          key="x")

    try:
        rep = sandwich_check(cf, x, rho_list, sigma_list,
                             oracle_tol=oracle_tol, slack=slack,
                             diag_slack=diag_slack)
    except SaddleConvergenceError as e:
        print("asymptotics: oracle failure: %s" % e, file=sys.stderr)
        return 2
    saddle_rows = [(r.rho, r.sigma, r.saddle_dev) for r in rep.diagonal]

    print(rep)
    for rho, sig, dev in saddle_rows:
        print("saddle deviation at rho=%8.1e sigma=%8.1e: %.3e"
              % (rho, sig, dev))
    _write_csv(os.path.join(out_dir, "asymptotics.csv"),
               ["rho", "sigma", "phi_smoothed", "phi_exact", "gap",
                "lower_slack"],
               [(r.rho, r.sigma, r.phi_smoothed, r.phi_exact, r.gap,
                 r.lower_slack) for r in rep.records])
    _write_csv(os.path.join(out_dir, "saddle_limits.csv"),
               ["rho", "sigma", "saddle_dev"], saddle_rows)

    bad = []
    if not rep.lower_bounds_ok:
        bad.append("lower bound violated by %.3e" % rep.max_lower_violation)
    if not rep.diagonal_monotone:
        bad.append("diagonal gaps not monotone")
    final_dev = saddle_rows[-1][2]  # the lists are nonempty
    if final_dev > saddle_tol:
        bad.append("saddle deviation %.3e > %g" % (final_dev, saddle_tol))
    if bad:
        print("asymptotics FAILED: %s" % "; ".join(bad), file=sys.stderr)
        return 3
    print("asymptotics passed")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sipba",
        description="Benchmark harness for the smoothed pessimistic bilevel "
                    "solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in (
        ("run", "multi-seed runs with diagnostics CSVs and a summary"),
        ("ablate", "schedule-override grid, time-to-target table"),
        ("gradcheck", "finite-difference gradient validation"),
        ("compare", "single-loop vs double-loop at equal gradient budget"),
        ("asymptotics", "value sandwich and saddle-limit tables"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel runs (default 1)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1

    raw = ""
    try:
        cfg, raw = load_config(args.config)
        out_dir = args.out or _get(cfg, "out_dir", "str", default=".")
        os.makedirs(out_dir, exist_ok=True)
        handler = {"run": cmd_run, "ablate": cmd_ablate,
                   "gradcheck": cmd_gradcheck, "compare": cmd_compare,
                   "asymptotics": cmd_asymptotics}[args.command]
        return handler(cfg, args.jobs, out_dir)
    except ConfigError as e:
        line = e.line if e.line is not None else _line_of(raw, e.key)
        print("%s:%d: %s" % (args.config, line, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
