"""Command-line benchmark harness.

    sipba run|ablate|compare --config cfg.json [--jobs N] [--out DIR]
    sipba gradcheck|asymptotics --config cfg.json [--out DIR]

All commands share one JSON configuration document. The table CONFIG_KEYS
defines its keys (kind, default, lower bound); each command reads the common
``problem``/``schedule``/``run`` blocks plus its own section. Command X is
the function cmd_X below, whose docstring is its line in ``sipba --help``.

CSV files are UTF-8 with LF line endings and 17-significant-digit floats, so
reruns with the same config and seed reproduce every numerical column
bit-for-bit (wall-time columns excepted). The environment variable SIPBA_SEED
overrides the configured seed base. Each command checks its config once,
before any run starts: a key the table lacks, in any block, is reported as
``cfg:line: unknown <block> key 'k'``, a bad value (read by the one getter,
_get) as ``cfg:line: section.key must be ..., got ...``. The problem and
each run's start are built once too, and every run task gets them. A task
of run or ablate steps a batch of starts together (solver.run): run cuts
its seeds into --jobs contiguous batches, ablate makes one batch per grid
row; outputs do not depend on the batching apart from time columns. Exit
codes: 0 success, 1 config or usage error, 2 nothing completed (numerical
failure), 3 acceptance violation.
"""

import argparse
import csv
import json
import os
import re
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .benchmarks import (
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    hyper_rep_test_loss,
    quadratic_init,
    quadratic_testbed,
    synthetic_problem,
)
from .diagnostics import (merit_value, relative_error,
                          relative_error_denominator, sandwich_check, snapshot)
from .errors import (
    ContractViolation,
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

# Every config key, as _get reads it: dotted key -> (kind, default, inclusive
# lower bound); _MISSING makes a key required. The README lists the same keys.
CONFIG_KEYS = {
    "out_dir": ("str", ".", None),
    "problem": ("dict", _MISSING, None),
    "problem.kind": ("str", _MISSING, None),
    "problem.n": ("int", _MISSING, 2),
    **{"problem." + k: ("int", _MISSING, 1)
       for k in ("n_feat", "p_dim", "m1", "m2", "m_test")},
    "problem.noise_a": ("num", _MISSING, 0),
    "problem.data_seed": ("int", _MISSING, 0),
    "schedule": ("dict", {}, None),
    "schedule.guideline": ("bool", False, None),
    **{"schedule." + k: ("num", None, None) for k in SCHEDULE_FIELDS},
    "schedule.rho_cap": ("num", 1e12, None),
    "run": ("dict", {}, None),
    "run.seeds": ("dict", {"base": 0, "count": 1}, None),
    "run.seeds.base": ("int", _MISSING, 0),
    "run.seeds.count": ("int", _MISSING, 1),
    "run.max_iter": ("int", _MISSING, 0),
    "run.stride": ("int", 100, 1),
    "run.oracle_tol": ("pos", 1e-8, None),
    "run.target_eps_rel": ("pos", None, None),
    "run.stop_at_target": ("bool", False, None),
    "run.init": ("dict", None, None),
    **{"run.init." + k: ("num[]", _MISSING, None) for k in ("x0", "y0")},
    "run.init.z0": ("num[]", None, None),
    "ablate": ("dict", _MISSING, None),
    "ablate.grid": ("dict[]", _MISSING, None),
    "ablate.max_iter": ("int", None, 0),
    "compare": ("dict", {}, None),
    "compare.budget": ("int", None, 6),
    "compare.inner_tol": ("pos", 1e-5, None),
    "compare.baseline_schedule": ("dict", {}, None),
    "gradcheck": ("dict", {}, None),
    "gradcheck.threshold": ("pos", 1e-4, None),
    "gradcheck.n_points": ("int", 20, 1),
    "gradcheck.fd_step": ("pos", 1e-5, None),
    "gradcheck.oracle_tol": ("pos", 1e-10, None),
    "gradcheck.rho": ("pos", 10.0, None),
    "gradcheck.sigma": ("pos", 0.1, None),
    "asymptotics": ("dict", {}, None),
    "asymptotics.rho_list": ("pos[]", [1e1, 1e2, 1e3, 1e4], None),
    "asymptotics.sigma_list": ("pos[]", [1e-1, 1e-2, 1e-3, 1e-4], None),
    "asymptotics.x": ("str", "ones", None),
    "asymptotics.oracle_tol": ("pos", 1e-8, None),
    "asymptotics.saddle_tol": ("pos", 1e-3, None),
    "asymptotics.slack": ("num", None, 0),
    "asymptotics.diag_slack": ("num", 1e-8, 0),
}
_SECTIONS = {k.rpartition(".")[0] for k in CONFIG_KEYS}  # the nested blocks


class ConfigError(Exception):
    """Invalid configuration; carries the offending key or line."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line


# an object key, another JSON string, a bracket or a line break: what
# _line_of reads of the text
_JSON_TOKEN = re.compile(
    r'(?P<key>"(?:[^"\\]|\\.)*")(?=\s*:)|"(?:[^"\\]|\\.)*"|[{}\[\]\n]')


def _line_of(raw, key):
    # best-effort line lookup for semantic errors: the key's first part is
    # found among the top-level keys (nesting depth 1), then for a dotted key
    # "a.b" the first "b" from that line on
    if not (raw and key):
        return 1
    first, *rest = key.split(".")
    depth, line, found = 0, 1, None
    for tok in _JSON_TOKEN.finditer(raw):
        c = tok.group()
        if c == "\n":
            line += 1
        elif c in "{[":
            depth += 1
        elif c in "}]":
            depth -= 1
        elif depth == 1 and tok["key"] and json.loads(c) == first:
            found = line
            break
    if found is None:
        return 1
    lines = raw.splitlines()
    start = found - 1
    for part in rest:
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


def _is_num(v):
    # a JSON true/false is a Python int but no number here; the bound rejects
    # NaN, +-Infinity and integers too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


_KINDS = {  # kind: (test, what a value must be)
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool),
            "an integer"),
    "num": (_is_num, "a finite number"),
    "pos": (lambda v: _is_num(v) and v > 0, "a positive finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _get(d, key, *spec):
    """The config value d[k] for the dotted key "section.k", checked.

    spec is (kind, default, low), CONFIG_KEYS[key] unless given. kind is
    one of _KINDS, or "T[]" for a nonempty list of T; low is an inclusive
    lower bound for a number, or for each item of a list. An absent key or
    a JSON null gives the default. Numbers come back as floats. Every error
    names the dotted key, so its line is found in its section.
    """
    kind, default, low = spec or CONFIG_KEYS[key]
    v = d.get(key.rpartition(".")[2])
    if v is None:
        if default is _MISSING:
            raise ConfigError("missing required key '%s'" % key, key=key)
        return default
    item = kind[:-2] if kind.endswith("[]") else None
    test, what = _KINDS[item or kind]
    if item:  # "an integer" -> "a nonempty list of integers"
        what = "a nonempty list of %ss" % what.split(" ", 1)[1]
        ok = isinstance(v, list) and v != [] and all(map(test, v))
    else:
        ok = test(v)
    if not ok:
        raise ConfigError("%s must be %s, got %r" % (key, what, v), key=key)
    if low is not None and (min(v) if item else v) < low:
        raise ConfigError("%s must be >= %g, got %r" % (key, low, v), key=key)
    if item in ("num", "pos"):
        return [float(u) for u in v]
    return float(v) if kind in ("num", "pos") else v


def _vector(d, key, n, *spec):
    """A list of n finite numbers (floats) from the config."""
    v = _get(d, key, *spec)
    if len(v) != n:
        raise ConfigError("%s must have %d entries, got shape (%d,)"
                          % (key, n, len(v)), key=key)
    return v


def _check_keys(d, section=""):
    """Rejects the first key CONFIG_KEYS lacks, at the top level or in a block
    it lists keys of (_schedule checks ablate.grid and baseline_schedule)."""
    for k, v in d.items():
        key = section + "." + k if section else k
        if "." in k or key not in CONFIG_KEYS:
            raise ConfigError("unknown %s key %r" % (section or "top-level", k),
                              key=key)
        if isinstance(v, dict) and key in _SECTIONS:
            _check_keys(v, key)


# ---------------------------------------------------------------------------
# config -> objects


def build_schedule(cfg):
    """ScheduleParams from the schedule block."""
    return _schedule(cfg, {}, None)


def _schedule(cfg, overrides, where):
    """ScheduleParams from the schedule block updated by overrides, the
    object at the dotted key `where` (an ablate.grid row or
    compare.baseline_schedule), which its errors name."""
    sd = _get(cfg, "schedule")
    guideline = _get(sd, "schedule.guideline")
    vals = {k: _get(sd, "schedule." + k) for k in SCHEDULE_FIELDS}
    for k in overrides:
        if k not in SCHEDULE_FIELDS:
            raise ConfigError("unknown schedule override %r" % k, key=where)
        # a null field keeps the schedule value
        vals[k] = _get(overrides, "%s.%s" % (where, k), "num", vals[k], None)
    vals = {k: v for k, v in vals.items() if v is not None}
    if guideline:
        if "s" in vals:
            block = where if overrides.get("s") is not None else "schedule"
            raise ConfigError("'s' cannot be set with guideline, which forces "
                              "s = 8(p+q)", key=block + ".s")
        required, make = ("alpha0", "beta0", "sigma0"), ScheduleParams.guideline
    else:
        required = ("alpha0", "beta0", "rho0", "sigma0", "p", "q", "s")
        make = ScheduleParams
    for k in required:  # which fields are required depends on guideline
        _get(vals, "schedule." + k, "num", _MISSING, None)
    try:
        return make(**vals)
    except ValueError as e:
        raise ConfigError("invalid schedule: %s" % e, key="schedule")


class ProblemBundle:
    """Problem plus the bookkeeping the harness needs around it (picklable)."""

    def __init__(self, problem, sample_init, closed_form=None,
                 metric_name="upper_objective", metric=None):
        self.problem = problem
        self.sample_init = sample_init  # rng -> (x0, y0, z0)
        # object with x_star, y_star and closed_form_phi/y_star, or None
        self.closed_form = closed_form
        self.metric_name = metric_name
        self.metric = metric            # callable(x, y) -> float

    def eps_den(self, x0, y0):
        """The relative-error denominator of the start (x0, y0), or of a
        block of starts, to the known optimum; None without one. Raises
        ContractViolation for a start at the optimum."""
        cf = self.closed_form
        if cf is None:
            return None
        return relative_error_denominator(x0, y0, cf.x_star, cf.y_star)

    def eps_rel(self, x, y, den):
        """Relative error of (x, y) to the known optimum, den from eps_den;
        None without one."""
        cf = self.closed_form
        if cf is None:
            return None
        return relative_error(x, y, cf.x_star, cf.y_star, den)


def build_problem(cfg):
    pd = _get(cfg, "problem")
    kind = _get(pd, "problem.kind")
    if kind == "synthetic":
        sbench = synthetic_problem(_get(pd, "problem.n"))
        return ProblemBundle(sbench.problem, sbench.sample_init,
                             closed_form=sbench, metric_name="eps_rel")
    if kind == "quadratic":
        prob = quadratic_testbed()
        return ProblemBundle(prob, quadratic_init, metric=prob.F)
    if kind == "hyper_rep":
        data = generate_hyper_rep(
            *(_get(pd, "problem." + k)
              for k in ("n_feat", "p_dim", "m1", "m2", "m_test")),
            noise_a=_get(pd, "problem.noise_a"),
            seed=_get(pd, "problem.data_seed"))
        return ProblemBundle(
            hyper_rep_problem(data), partial(hyper_rep_init, data),
            metric_name="test_loss", metric=partial(hyper_rep_test_loss, data))
    raise ConfigError("unknown problem kind %r" % kind, key="problem.kind")


def resolve_seeds(cfg):
    rc = _get(cfg, "run")
    if isinstance(rc.get("seeds"), list):  # else a {"base", "count"} range
        seeds = _get(rc, "run.seeds", "int[]", _MISSING, 0)
    else:
        sd = _get(rc, "run.seeds")
        base = _get(sd, "run.seeds.base")
        seeds = [base + i for i in range(_get(sd, "run.seeds.count"))]
    env = os.environ.get("SIPBA_SEED")
    if env is not None:
        try:
            base = int(env)
        except ValueError:
            base = None
        if base is None or base < 0:
            raise ConfigError("SIPBA_SEED must be an integer >= 0, got %r"
                              % env, key="run.seeds")
        seeds = [base + i for i in range(len(seeds))]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be unique (one output file per run)",
                          key="run.seeds")
    return seeds


def _runs(cfg):
    """The prologue of run, ablate and compare: (seeds, each seed's projected
    first state, the run block, the built problem, run.stride). A start is
    run.init, which then may name one run only, or else the seed's Philox
    draw; the tasks take these states as is."""
    rc = _get(cfg, "run")
    seeds = resolve_seeds(cfg)
    bundle = build_problem(cfg)
    prob = bundle.problem
    init = _get(rc, "run.init")
    if init is None:
        starts = [initial_state(prob, *bundle.sample_init(
            np.random.Generator(np.random.Philox(s)))) for s in seeds]
    else:
        x0 = _vector(init, "run.init.x0", prob.n_x)
        y0 = _vector(init, "run.init.y0", prob.n_y)
        st = initial_state(prob, x0, y0, _vector(init, "run.init.z0",
                                                 prob.n_y, "num[]", y0, None))
        try:
            bundle.eps_den(st.x, st.y)
        except ContractViolation:  # eps_rel divides by the start's distance
            raise ConfigError("run.init projects onto the known optimum "
                              "(x*, y*)", key="run.init") from None
        if len(seeds) > 1:
            raise ConfigError("run.init fixes the start, so run.seeds must "
                              "name one run, got %d" % len(seeds),
                              key="run.init")
        starts = [st]
    return seeds, starts, rc, bundle, _get(rc, "run.stride")


def _run_settings(cfg, max_iter=None, stop_at_target=False):
    """_runs(cfg) for run and ablate: the seeds, their starts and the
    _run_batch keywords, the rest of the run block among them."""
    seeds, starts, rc, bundle, stride = _runs(cfg)
    max_iter = _get(rc, "run.max_iter") if max_iter is None else max_iter
    oracle_tol = _get(rc, "run.oracle_tol")
    target_eps = _get(rc, "run.target_eps_rel")
    stop_at_target = stop_at_target or _get(rc, "run.stop_at_target")
    if target_eps is not None and bundle.closed_form is None:
        raise ConfigError("target_eps_rel needs a problem with a known optimum",
                          key="run.target_eps_rel")
    return seeds, starts, dict(
        bundle=bundle, max_iter=max_iter, stride=stride, oracle_tol=oracle_tol,
        target_eps=target_eps, stop_at_target=stop_at_target)


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
# tasks, worker-safe: each gets the problem the parent built and values it
# checked before fan-out. Each runs with numpy's floating-point warnings off:
# a run that leaves the float range is caught by the finiteness checks and
# reported as its one FAILED line.

_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def _run_batch(sp, seeds, inits, bundle, out_dir, max_iter, stride,
               oracle_tol, target_eps, stop_at_target, write_rows=True):
    """The runs of seeds from their starts inits, stepped as one batch:
    one result dict per seed, and with write_rows its run_<seed>.csv. The
    relative-error denominator of the starts is formed once, here, and
    serves the target, the stride rows and the finals."""
    prob = bundle.problem
    den = bundle.eps_den(np.stack([st.x for st in inits]),
                         np.stack([st.y for st in inits]))
    if den is None:  # no known optimum: every eps_rel is None
        den = [None] * len(inits)

    target = None
    if target_eps is not None:
        xs, ys = bundle.closed_form.x_star, bundle.closed_form.y_star

        def target(rows, st):
            return relative_error(st.x, st.y, xs, ys, den[rows]) < target_eps

    # each run's CSV rows, 7 floats a row (k, time_s, phi_k, ..., merit) in
    # one flat array: a batch holds all its runs' rows until it ends, and as
    # tuples of float objects they would take 4 times the memory
    records = [array("d") for _ in seeds]
    phi_min = [np.inf] * len(seeds)
    saddle = [None] * len(seeds)  # each run's last, warm start of its next

    def cb(i, st, elapsed):
        done = st.k - 1
        sn = snapshot(prob, sp, st, oracle_tol, warm=saddle[i])
        saddle[i] = sn.saddle
        phi_min[i] = min(phi_min[i], sn.phi)
        merit = merit_value(done, sp.s, sp.t_exp, sn.phi - (phi_min[i] - 1.0),
                            sn.tracking_err)
        eps = bundle.eps_rel(st.x, st.y, den[i])
        records[i].extend((done, elapsed, sn.phi, np.nan if eps is None else eps,
                           sn.tracking_err, sn.stat_residual, merit))

    results = run(prob, sp, inits, max_iter, target=target,
                  stop_at_target=stop_at_target,
                  callback=cb if write_rows else None, callback_stride=stride)
    outs = []
    for i, (seed, res, own) in enumerate(zip(seeds, results, records)):
        if res.error is not None:
            outs.append({"ok": False, "error": str(res.error)})
        else:
            outs.append({"ok": True, "iterations": res.iterations,
                         "target_iteration": res.target_iteration,
                         "target_seconds": res.target_seconds,
                         "final_eps_rel": bundle.eps_rel(
                             res.state.x, res.state.y, den[i])})
        if write_rows:
            known = bundle.closed_form is not None  # else eps_rel stays empty
            _write_csv(os.path.join(out_dir, "run_%d.csv" % seed), RUN_COLUMNS,
                       [(seed, int(k), t, phi, eps if known else None, te, sr,
                         merit) for k, t, phi, eps, te, sr, merit
                        in np.reshape(own, (-1, 7)).tolist()])
    return outs


def _fan_out(tasks, jobs):
    """Results of picklable callables, in order, run inline or in workers."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn() for fn in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        futs = [ex.submit(fn) for fn in tasks]
        return [f.result() for f in futs]


def _batches(seeds, starts, jobs):
    """seeds and their starts cut into min(jobs, len(seeds)) contiguous
    batches of near-equal size, as (seeds, starts) pairs."""
    n = min(jobs, len(seeds))
    cuts = [len(seeds) * i // n for i in range(n + 1)]
    return [(seeds[a:b], starts[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


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


def cmd_run(cfg, out_dir, jobs):
    """One SiPBA run per seed: a diagnostics CSV per run and a summary CSV."""
    seeds, starts, kw = _run_settings(cfg)
    sp = build_schedule(cfg)
    target_eps = kw["target_eps"]
    batches = _fan_out([partial(_run_batch, sp, ss, sts, out_dir=out_dir, **kw)
                        for ss, sts in _batches(seeds, starts, jobs)], jobs)
    ordered = [r for batch in batches for r in batch]

    for s, r in zip(seeds, ordered):
        if r["ok"]:
            hit = ("target at k=%d (%.3f s)" % (r["target_iteration"],
                                                r["target_seconds"])
                   if r["target_iteration"] is not None else "no target hit"
                   if target_eps is not None else "")
            eps_txt = ("final eps_rel %.3e" % r["final_eps_rel"]
                       if r["final_eps_rel"] is not None else "")
            print("  ".join(filter(None, ("run %d: %d iterations" % (
                s, r["iterations"]), eps_txt, hit))))
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


def cmd_ablate(cfg, out_dir, jobs):
    """Grid of schedule overrides: a time-to-target table."""
    ab = _get(cfg, "ablate")
    grid = _get(ab, "ablate.grid")
    max_iter = _get(ab, "ablate.max_iter")
    schedules = [_schedule(cfg, ov, "ablate.grid") for ov in grid]
    seeds, starts, kw = _run_settings(cfg, max_iter, stop_at_target=True)
    if kw["target_eps"] is None:
        raise ConfigError("ablate needs run.target_eps_rel, the eps_rel its "
                          "runs are timed to", key="run.target_eps_rel")

    results = _fan_out([
        partial(_run_batch, sp, seeds, starts, out_dir=out_dir,
                write_rows=False, **kw)
        for sp in schedules], jobs)

    table = []
    for i, (sp, runs) in enumerate(zip(schedules, results)):
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
    return 0 if any(r["ok"] for rs in results for r in rs) else 2


def cmd_gradcheck(cfg, out_dir):
    """Finite-difference check of the problem gradients and of grad phi."""
    gc = _get(cfg, "gradcheck")
    threshold, n_points, fd_step, oracle_tol, rho, sigma = (
        _get(gc, "gradcheck." + k) for k in
        ("threshold", "n_points", "fd_step", "oracle_tol", "rho", "sigma"))
    prob = build_problem(cfg).problem

    report = check_gradients(prob, n_points=n_points, fd_step=fd_step)
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
                           callback=None):
    """Double-loop baseline driven to a gradient-evaluation budget: (x, last
    saddle, outer iterations, inner failures, seconds). prob should come from
    with_gradient_counter so its counter is reused."""
    res = run_double_loop_baseline(
        prob, sp, x0, None, inner_tol=inner_tol,
        inner_max_iter=budget,  # only the remaining budget caps a solve
        u0=u0, callback=callback, grad_budget=budget)
    return (res.x, res.saddle, res.outer_iterations, res.inner_failures,
            res.step_seconds)


@_quiet
def _compare_single(sp, seed, init, bundle, out_dir, sp_base, stride, budget,
                    inner_tol):
    rows = []
    out = {"ok": True}

    # single-loop arm
    prob_s, cnt_s = with_gradient_counter(bundle.problem)
    den = bundle.eps_den(init.x, init.y)

    def metric_fn(x, y):
        eps = bundle.eps_rel(x, y, den)
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
    if out["ok"]:
        prob_b, cnt_b = with_gradient_counter(bundle.problem)
        u0 = np.concatenate((init.y, init.z))

        def bl_cb(k, x, sd, inner_total, elapsed):
            rows.append(("baseline", seed, k, cnt_b.count, elapsed,
                         bundle.metric_name, metric_fn(x, sd.y_star)))

        try:
            bx, bsd, _, _, _ = _baseline_under_budget(
                prob_b, sp_base, init.x, u0, budget, inner_tol, callback=bl_cb)
            out.update(baseline_final=metric_fn(bx, bsd.y_star),
                       baseline_evals=cnt_b.count)
        except (DivergenceError, ParameterOverflowError) as e:
            out.update(ok=False, error="baseline: %s" % e)

    _write_csv(os.path.join(out_dir, "compare_%d.csv" % seed),
               COMPARE_COLUMNS, rows)
    return out


def cmd_compare(cfg, out_dir, jobs):
    """SiPBA vs the double-loop baseline at an equal gradient budget."""
    seeds, starts, rc, bundle, stride = _runs(cfg)
    cc = _get(cfg, "compare")
    # one single-loop step costs 6 gradient evaluations; the default budget
    # (run.max_iter is read only for it) buys one step at least for each arm
    budget = (_get(cc, "compare.budget")
              or 6 * _get(rc, "run.max_iter", "int", _MISSING, 1))
    inner_tol = _get(cc, "compare.inner_tol")
    sp = build_schedule(cfg)
    sp_base = _schedule(cfg, _get(cc, "compare.baseline_schedule"),
                        "compare.baseline_schedule")
    ordered = _fan_out([partial(_compare_single, sp, s, st, bundle, out_dir,
                                sp_base, stride, budget, inner_tol)
                        for s, st in zip(seeds, starts)], jobs)
    for s, r in zip(seeds, ordered):
        if r["ok"]:
            print("run %d: %s  sipba %.6e (%d evals)  baseline %.6e (%d evals)"
                  % (s, bundle.metric_name, r["sipba_final"], r["sipba_evals"],
                     r["baseline_final"], r["baseline_evals"]))
        else:
            print("run %d: FAILED (%s)" % (s, r["error"]))
    return 0 if any(r["ok"] for r in ordered) else 2


def cmd_asymptotics(cfg, out_dir):
    """Smoothed-vs-exact value sandwich and saddle-limit tables (synthetic)."""
    bundle = build_problem(cfg)
    if bundle.closed_form is None:
        raise ConfigError("asymptotics needs the closed-form synthetic "
                          "problem", key="problem.kind")
    ac = _get(cfg, "asymptotics")
    rho_list, sigma_list, oracle_tol, saddle_tol, diag_slack, slack = (
        _get(ac, "asymptotics." + k) for k in
        "rho_list sigma_list oracle_tol saddle_tol diag_slack slack".split())

    cf = bundle.closed_form
    n = bundle.problem.n_x
    if isinstance(ac.get("x"), list):  # else "ones" or "optimum"
        x = _vector(ac, "asymptotics.x", n, "num[]", _MISSING, None)
    else:
        xsel = _get(ac, "asymptotics.x")
        if xsel not in ("ones", "optimum"):
            raise ConfigError("asymptotics.x must be a list, 'ones' or "
                              "'optimum', got %r" % xsel, key="asymptotics.x")
        x = np.ones(n) if xsel == "ones" else cf.x_star.copy()

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


def _jobs(text):
    """The --jobs value: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sipba",
        description="Benchmark harness for the smoothed pessimistic bilevel "
                    "solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for handler in (cmd_run, cmd_ablate, cmd_gradcheck, cmd_compare,
                    cmd_asymptotics):
        name = handler.__name__[len("cmd_"):]
        p = sub.add_parser(name, help=handler.__doc__)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON config path")
        if name in ("run", "ablate", "compare"):  # the commands that fan out
            p.add_argument("--jobs", type=_jobs, default=1,
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
        _check_keys(cfg)
        out_dir = args.out or _get(cfg, "out_dir")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            what = "must name a directory, got %r (%s)" % (out_dir, e.strerror)
            if not args.out:
                raise ConfigError("out_dir " + what, key="out_dir") from None
            print("sipba %s: error: --out %s" % (args.command, what),
                  file=sys.stderr)
            return 1
        jobs = {"jobs": args.jobs} if "jobs" in args else {}
        return args.handler(cfg, out_dir, **jobs)
    except ConfigError as e:
        line = e.line if e.line is not None else _line_of(raw, e.key)
        print("%s:%d: %s" % (args.config, line, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
