"""Command-line benchmark harness.

    sipba run|ablate|compare|gradcheck|asymptotics --config cfg.json [--out DIR]

All commands share one JSON configuration document. The table CONFIG_KEYS
defines its keys (kind, default, lower bound); each command reads the common
``problem``/``schedule``/``run`` blocks plus its own section, if it has one
(gradcheck has none: its settings are fixed). Every key is set by a demo, a
benchmark or an example config; a value nothing sets is a constant. Command
X is the function cmd_X below, whose docstring is its line in ``sipba
--help``.

CSV files are UTF-8 with LF line endings and 17-significant-digit floats, so
reruns with the same config and seed reproduce every numerical column
bit-for-bit (wall-time columns excepted). The environment variable SIPBA_SEED
overrides the configured seed base. Each command checks its config once,
before any run starts: a key the table lacks, in any block, is reported as
``cfg:line: unknown <block> key 'k'``, a bad value (read by the one getter,
_get) as ``cfg:line: section.key must be ..., got ...``, and a schedule
outside the guaranteed regime as one ``cfg:line: warning: ...`` line. The
problem and each run's start are built once too. Every command runs in one
process: run steps all its seeds as one batch (solver.run), ablate all its
(grid row, seed) runs, each row under its own schedule, and compare the
single-loop arms of all its seeds, then runs each seed's double-loop
baseline in turn. A batch of one start is stepped as vectors; compare's
baseline starts its first inner solve at the oracle's default start. Exit
codes: 0 success, 1 config or usage error, 2 nothing completed (numerical
failure), 3 acceptance violation.
"""

import argparse
import csv
import json
import os
import re
import sys
import warnings
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .benchmarks import (
    SyntheticProblem,
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
from .problem import (BilevelProblem, _fd_error, _sample_interior,
                      check_gradients)
from .saddle import eval_phi, grad_phi
from .smoothing import PenaltyReg
from .solver import (
    ScheduleParams,
    initial_state,
    run,
    run_double_loop_baseline,
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
    **{"schedule." + k: ("pos", _MISSING, None)
       for k in ("alpha0", "beta0", "rho0", "sigma0")},
    **{"schedule." + k: ("num", _MISSING, 0) for k in ("p", "q", "s")},
    "run": ("dict", {}, None),
    "run.seeds": ("dict", {"base": 0, "count": 1}, None),
    "run.seeds.base": ("int", _MISSING, 0),
    "run.seeds.count": ("int", _MISSING, 1),
    "run.max_iter": ("int", _MISSING, 0),
    "run.stride": ("int", 100, 1),
    "run.oracle_tol": ("pos", 1e-8, None),
    "run.target_eps_rel": ("pos", None, None),
    "ablate": ("dict", _MISSING, None),
    "ablate.grid": ("dict[]", _MISSING, None),
    "ablate.max_iter": ("int", None, 0),
    "compare": ("dict", {}, None),
    "compare.budget": ("int", None, 6),
    "compare.inner_tol": ("pos", 1e-5, None),
    "compare.baseline_schedule": ("dict", {}, None),
    "asymptotics": ("dict", {}, None),
    "asymptotics.rho_list": ("pos[]", [1e1, 1e2, 1e3, 1e4], None),
    "asymptotics.sigma_list": ("pos[]", [1e-1, 1e-2, 1e-3, 1e-4], None),
    "asymptotics.oracle_tol": ("pos", 1e-8, None),
}
_SECTIONS = {k.rpartition(".")[0] for k in CONFIG_KEYS}  # the nested blocks
# the ScheduleParams fields, in its order: the keys of the schedule block
SCHEDULE_FIELDS = tuple(k[len("schedule."):] for k in CONFIG_KEYS
                        if k.startswith("schedule."))


class ConfigError(Exception):
    """Invalid configuration, found on the config's line `line`."""

    def __init__(self, message, line):
        super().__init__(message)
        self.line = line


class _Obj(dict):
    """A config object: line, where it opens, and lines, each key's line."""

    def __init__(self, pairs, line, lines):  # a repeated key: its last line
        super().__init__(pairs)
        self.line, self.lines = line, dict(zip((k for k, _ in pairs), lines))


def _line(d, k=None):
    """The line of key k of the config object d, or of d itself where d
    lacks k; 1 for an object the file did not give."""
    return getattr(d, "lines", {}).get(k, getattr(d, "line", 1))


# an object key, another JSON string, a brace or a line break: what
# load_config reads of the text for the lines of the objects and their keys
_JSON_TOKEN = re.compile(
    r'(?P<key>"(?:[^"\\]|\\.)*")(?=\s*:)|"(?:[^"\\]|\\.)*"|[{}\n]')


def load_config(path):
    """(the config, as _Obj objects that know their lines; its text)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e, line=1)
    except UnicodeDecodeError as e:  # at the line of the byte
        raise ConfigError("config is not UTF-8: byte 0x%02x (%s)" % (
            e.object[e.start], e.reason),
            line=e.object.count(b"\n", 0, e.start) + 1) from None
    # each object's line and key lines, in the order its closing brace
    # comes, which is the order json.loads builds the objects in
    opened, closed, line = [], [], 1
    for tok in _JSON_TOKEN.finditer(raw):
        c = tok.group()
        if c == "\n":
            line += 1
        elif c == "{":
            opened.append((line, []))
        elif opened and c == "}":
            closed.append(opened.pop())
        elif opened and tok["key"]:
            opened[-1][1].append(line)
    lines = iter(closed)  # text that is no JSON may miscount; loads fails
    try:
        cfg = json.loads(raw, object_pairs_hook=lambda pairs: _Obj(
            pairs, *next(lines, (1, []))))
    except json.JSONDecodeError as e:
        raise ConfigError("JSON parse error: %s" % e.msg, line=e.lineno)
    except RecursionError:
        raise ConfigError("JSON nested too deeply", line=1) from None
    except ValueError:  # an integer longer than int() converts
        limit = sys.get_int_max_str_digits()
        at = next((m.start() for m in re.finditer(
            r'"(?:[^"\\]|\\.)*"|\d{%d,}' % (limit + 1), raw)
            if m[0][0] != '"'), 0)  # a string's digits are no integer
        raise ConfigError("integer longer than %d digits" % limit,
                          line=raw.count("\n", 0, at) + 1) from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object", line=1)
    cfg.path, cfg.warned = path, set()  # its file, the warnings it got
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
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _get(d, key, *spec):
    """The config value d[k] for the dotted key "section.k", checked.

    spec is (kind, default, low), CONFIG_KEYS[key] unless given. kind is
    one of _KINDS, or "T[]" for a nonempty list of T; low is an inclusive
    lower bound for a number, or for each item of a list. An absent key or
    a JSON null gives the default. Numbers come back as floats. Every error
    names the dotted key and the line of its value, or of d for a missing
    key.
    """
    kind, default, low = spec or CONFIG_KEYS[key]
    v = d.get(k := key.rpartition(".")[2])
    if v is None:
        if default is _MISSING:
            raise ConfigError("missing required key '%s'" % key, _line(d))
        if isinstance(default, dict):  # a block left out or null: at k's line
            return _Obj(default.items(), _line(d, k), ())
        return default
    item = kind[:-2] if kind.endswith("[]") else None
    test, what = _KINDS[item or kind]
    if item:  # "an integer" -> "a nonempty list of integers"
        what = "a nonempty list of %ss" % what.split(" ", 1)[1]
        ok = isinstance(v, list) and v != [] and all(map(test, v))
    else:
        ok = test(v)
    if ok and low is not None and (min(v) if item else v) < low:
        ok, what = False, ">= %g" % low
    if not ok:
        raise ConfigError("%s must be %s, got %r" % (key, what, v),
                          _line(d, k))
    if item in ("num", "pos"):
        return [float(u) for u in v]
    return float(v) if kind in ("num", "pos") else v


def _check_keys(d, section=""):
    """Rejects the first key CONFIG_KEYS lacks, at the top level or in a block
    it lists keys of (_schedule checks ablate.grid and baseline_schedule)."""
    for k, v in d.items():
        key = section + "." + k if section else k
        if "." in k or key not in CONFIG_KEYS:
            raise ConfigError("unknown %s key %r" % (section or "top-level", k),
                              _line(d, k))
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
    vals = {k: _get(sd, "schedule." + k) for k in SCHEDULE_FIELDS}
    for k in overrides:
        if k not in SCHEDULE_FIELDS:
            raise ConfigError("unknown schedule override %r" % k,
                              _line(overrides, k))
        # a null field keeps the schedule value
        kind, _, low = CONFIG_KEYS["schedule." + k]
        vals[k] = _get(overrides, "%s.%s" % (where, k), kind, vals[k], low)
    # the table checked each field, so the constructor only warns
    with warnings.catch_warnings(record=True) as regime:
        warnings.simplefilter("always")
        sp = ScheduleParams(**vals)
    # on the overrides' line if they set an exponent; once per line and text
    ov = [k for k in ("p", "q", "s") if overrides.get(k) is not None]
    line = _line(overrides, ov[0]) if ov else _line(cfg, "schedule")
    for w in regime:
        text = "%s:%d: warning: %s" % (cfg.path, line, w.message)
        if text not in cfg.warned:
            print(text, file=sys.stderr)
        cfg.warned.add(text)
    return sp


@dataclass
class ProblemBundle:
    """Problem plus the bookkeeping the harness needs around it; _runs forms
    the starts' relative error from closed_form."""

    problem: BilevelProblem
    sample_init: Callable  # rng -> (x0, y0, z0)
    closed_form: Optional[SyntheticProblem] = None  # known optimum, or None
    metric_name: str = "upper_objective"
    metric: Optional[Callable] = None  # (x, y) -> float


def build_problem(cfg):
    pd = _get(cfg, "problem")
    kind = _get(pd, "problem.kind")
    try:
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
                metric_name="test_loss",
                metric=partial(hyper_rep_test_loss, data))
    except ContractViolation:
        raise
    except (ValueError, MemoryError) as e:  # numpy's, for an array too large
        raise ConfigError("problem too large to allocate: %s" % e,
                          _line(cfg, "problem")) from None
    raise ConfigError("unknown problem kind %r" % kind, _line(pd, "kind"))


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
        try:  # int() takes "+3", "5_0" and " 7" too
            base = int(env) if re.fullmatch("[0-9]+", env) else -1
        except ValueError:  # more digits than int() converts
            base = -1
        if base < 0:
            raise ConfigError("SIPBA_SEED must be an integer >= 0, got %r"
                              % env, _line(rc, "seeds"))
        seeds = [base + i for i in range(len(seeds))]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be unique (one output file per run)",
                          _line(rc, "seeds"))
    return seeds


def _runs(cfg):
    """The one prologue of run, ablate and compare: (seeds, each seed's first
    state (its Philox draw, projected), the run block, the built problem,
    eps). eps(x, y, rows) is the relative error to the known optimum from
    the starts that rows picks, run i's from seed i % n's start (ablate
    tiles the n seeds' starts once per grid row); None without a known
    optimum. Its denominator is formed once, here: a start at the optimum
    raises ContractViolation."""
    rc = _get(cfg, "run")
    seeds = resolve_seeds(cfg)
    bundle = build_problem(cfg)
    starts = [initial_state(bundle.problem, *bundle.sample_init(
        np.random.Generator(np.random.Philox(s)))) for s in seeds]
    eps, cf = None, bundle.closed_form
    if cf is not None:
        den = relative_error_denominator(np.stack([st.x for st in starts]),
                                         np.stack([st.y for st in starts]),
                                         cf.x_star, cf.y_star)

        def eps(x, y, rows):
            return relative_error(x, y, cf.x_star, cf.y_star,
                                  den[rows % len(seeds)])
    return seeds, starts, rc, bundle, eps


def _target(rc, eps):
    """(run.target_eps_rel, the target hook that run and ablate pass to
    solver.run: which of rows are below it), or (None, None) when it is
    not set. A target needs eps, a known optimum."""
    target_eps = _get(rc, "run.target_eps_rel")
    if target_eps is None:
        return None, None
    if eps is None:
        raise ConfigError("target_eps_rel needs a problem with a known optimum",
                          _line(rc, "target_eps_rel"))
    return target_eps, lambda rows, st: eps(st.x, st.y, rows) < target_eps


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
        w.writerows([_fmt(v) for v in r] for r in rows)


# ---------------------------------------------------------------------------
# runs


def _tally(results, eps):
    """(each run's final eps_rel, run i's from seed i's start, None for a
    failed run or without eps; the completed runs; those that hit the
    target; their seconds)."""
    finals = [eps(r.state.x, r.state.y, i)
              if eps is not None and r.error is None else None
              for i, r in enumerate(results)]
    completed = [r for r in results if r.error is None]
    valid = [r for r in completed if r.target_iteration is not None]
    return finals, completed, valid, [r.target_seconds for r in valid]


# ---------------------------------------------------------------------------
# commands


def cmd_run(cfg, out_dir):
    """One SiPBA run per seed: a diagnostics CSV per run and a summary CSV."""
    seeds, starts, rc, bundle, eps = _runs(cfg)
    stride, max_iter, oracle_tol = (
        _get(rc, "run." + k) for k in ("stride", "max_iter", "oracle_tol"))
    target_eps, target = _target(rc, eps)
    sp = build_schedule(cfg)
    prob = bundle.problem

    # each run's CSV rows, 7 floats a row (k, time_s, phi_k, ..., merit) in
    # one flat array: a batch holds all its runs' rows until it ends, and as
    # tuples of float objects they would take 4 times the memory
    records = [array("d") for _ in seeds]
    phi_min = [np.inf] * len(seeds)
    last = [None] * len(seeds)  # each run's last Snapshot, warm for its next

    def cb(i, st, elapsed):
        done = st.k - 1
        sn = last[i] = snapshot(prob, sp, st, oracle_tol, warm=last[i])
        phi_min[i] = min(phi_min[i], sn.phi)
        merit = merit_value(done, sp.s, sp.t_exp,
                            sn.phi - (phi_min[i] - 1.0), sn.tracking_err)
        records[i].extend((done, elapsed, sn.phi,
                           np.nan if eps is None else eps(st.x, st.y, i),
                           sn.tracking_err, sn.stat_residual, merit))

    results = run(prob, sp, starts, max_iter, target=target, callback=cb,
                  callback_stride=stride)
    finals, completed, valid, times = _tally(results, eps)
    for seed, own in zip(seeds, records):
        _write_csv(os.path.join(out_dir, "run_%d.csv" % seed), RUN_COLUMNS,
                   [(seed, int(k), t, phi, None if eps is None else e, te,
                     sr, merit) for k, t, phi, e, te, sr, merit
                    in np.reshape(own, (-1, 7)).tolist()])

    for s, r, e in zip(seeds, results, finals):
        if r.error is None:
            hit = ("target at k=%d (%.3f s)" % (r.target_iteration,
                                                r.target_seconds)
                   if r.target_iteration is not None else "no target hit"
                   if target_eps is not None else "")
            eps_txt = "final eps_rel %.3e" % e if e is not None else ""
            print("  ".join(filter(None, ("run %d: %d iterations" % (
                s, r.iterations), eps_txt, hit))))
        else:
            print("run %d: FAILED (%s)" % (s, r.error))

    finals = [e for e in finals if e is not None]
    summary = (len(results), len(completed),
               len(valid) if target_eps is not None else None, target_eps,
               min(finals, default=None), max(finals, default=None),
               float(np.mean(times)) if times else None)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, [summary])
    if finals:
        print("summary: %d/%d completed, final eps_rel in [%.3e, %.3e]"
              % (len(completed), len(results), min(finals), max(finals)))
    if target_eps is not None:
        print("valid runs (eps_rel < %g): %d/%d%s"
              % (target_eps, len(valid), len(results),
                 ", mean time-to-target %.3f s" % float(np.mean(times))
                 if times else ""))
    return 0 if completed else 2


def cmd_ablate(cfg, out_dir):
    """Grid of schedule overrides: a time-to-target table."""
    ab = _get(cfg, "ablate")
    grid = _get(ab, "ablate.grid")
    max_iter = _get(ab, "ablate.max_iter")
    schedules = [_schedule(cfg, ov, "ablate.grid") for ov in grid]
    seeds, starts, rc, bundle, eps = _runs(cfg)
    if max_iter is None:
        max_iter = _get(rc, "run.max_iter")
    target_eps, target = _target(rc, eps)
    if target_eps is None:
        raise ConfigError("ablate needs run.target_eps_rel, the eps_rel its "
                          "runs are timed to", _line(rc, "target_eps_rel"))

    # every (grid row, seed) run, grid row after grid row, as one batch: run
    # i starts from seed i % n's start
    n = len(seeds)
    results = run(bundle.problem, [sp for sp in schedules for _ in seeds],
                  starts * len(grid), max_iter, target=target,
                  stop_at_target=True)

    table = []
    for i, sp in enumerate(schedules):
        runs = results[i * n:(i + 1) * n]
        finals, completed, valid, times = _tally(runs, eps)
        finals = [e for e in finals if e is not None]
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
        for s, r in zip(seeds, runs):
            if r.error is not None:
                print("row %d seed %d: FAILED (%s)" % (i, s, r.error))
    _write_csv(os.path.join(out_dir, "ablation.csv"), ABLATE_COLUMNS, table)
    return 0 if any(r.error is None for r in results) else 2


def cmd_gradcheck(cfg, out_dir):
    """Finite-difference check of the problem gradients and of grad phi."""
    # 20 points at the step 1e-5 against the threshold 1e-4; grad phi at
    # (rho, sigma) = (10, 0.1), from oracle solves at tol 1e-10
    threshold, n_points, fd_step, oracle_tol = 1e-4, 20, 1e-5, 1e-10
    rho, sigma = 10.0, 0.1
    prob = build_problem(cfg).problem

    report = check_gradients(prob, n_points=n_points, fd_step=fd_step)
    print(report)

    pr = PenaltyReg(rho, sigma)
    rng = np.random.default_rng(1)
    worst_phi = 0.0
    for _ in range(n_points):
        x = _sample_interior(prob.set_X, rng)
        g = grad_phi(prob, pr, x, tol=oracle_tol)
        phi = partial(eval_phi, prob, pr, tol=oracle_tol)
        worst_phi = max(worst_phi, _fd_error(phi, g, x, fd_step))
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


def _baseline_under_budget(prob, sp, x0, budget, inner_tol, callback=None):
    """compare's double-loop arm: run_double_loop_baseline's one budgeted
    call, kept by name as the span the benchmark traces (bench/layers.py)."""
    return run_double_loop_baseline(prob, sp, x0, budget, inner_tol, callback)


def cmd_compare(cfg, out_dir):
    """SiPBA vs the double-loop baseline at an equal gradient budget."""
    seeds, starts, rc, bundle, eps = _runs(cfg)
    stride = _get(rc, "run.stride")
    cc = _get(cfg, "compare")
    # one single-loop step costs 6 gradient evaluations; the default budget
    # (run.max_iter is read only for it) buys one step at least for each arm
    budget = (_get(cc, "compare.budget")
              or 6 * _get(rc, "run.max_iter", "int", _MISSING, 1))
    inner_tol = _get(cc, "compare.inner_tol")
    sp = build_schedule(cfg)
    sp_base = _schedule(cfg, _get(cc, "compare.baseline_schedule"),
                        "compare.baseline_schedule")

    def metric(i, x, y):  # seed i's metric at (x, y)
        return bundle.metric(x, y) if eps is None else eps(x, y, i)

    # the single-loop arms of all seeds as one batch; a row's gradient
    # count is the cost model's 6 per step it took. An arm's printed line
    # reads its last row: the single loop calls back after its last step,
    # the baseline after every outer step, and budget >= 6 buys each arm
    # one step at least
    rows = [[] for _ in seeds]  # each seed's compare_<seed>.csv rows

    def cb(i, st, elapsed):
        done = st.k - 1
        rows[i].append(("sipba", seeds[i], done, 6 * done, elapsed,
                        bundle.metric_name, metric(i, st.x, st.y)))

    def last(i):  # the value and evaluation count of seed i's last row
        return "%.6e (%d evals)" % (rows[i][-1][6], rows[i][-1][3])

    results = run(bundle.problem, sp, starts, budget // 6, callback=cb,
                  callback_stride=stride)
    code = 2  # 0 once a seed completes both arms
    for i, (seed, st, res) in enumerate(zip(seeds, starts, results)):
        if res.error is not None:
            line = "run %d: FAILED (sipba: %s)" % (seed, res.error)
        else:  # the seed's double-loop arm
            line = "run %d: %s  sipba %s" % (seed, bundle.metric_name, last(i))

            def bl_cb(k, x, sd, evals, elapsed):
                rows[i].append(("baseline", seed, k, evals, elapsed,
                                bundle.metric_name, metric(i, x, sd.y_star)))

            try:
                _baseline_under_budget(bundle.problem, sp_base, st.x, budget,
                                       inner_tol, callback=bl_cb)
                line += "  baseline " + last(i)
                code = 0
            except (DivergenceError, ParameterOverflowError) as e:
                line = "run %d: FAILED (baseline: %s)" % (seed, e)
        _write_csv(os.path.join(out_dir, "compare_%d.csv" % seed),
                   COMPARE_COLUMNS, rows[i])
        print(line)
    return code


def cmd_asymptotics(cfg, out_dir):
    """Smoothed-vs-exact value sandwich and saddle-limit tables (synthetic)."""
    bundle = build_problem(cfg)
    if bundle.closed_form is None:
        raise ConfigError("asymptotics needs the closed-form synthetic "
                          "problem", _line(_get(cfg, "problem"), "kind"))
    ac = _get(cfg, "asymptotics")
    rho_list, sigma_list, oracle_tol = (
        _get(ac, "asymptotics." + k) for k in
        ("rho_list", "sigma_list", "oracle_tol"))

    rep = sandwich_check(bundle.closed_form, np.ones(bundle.problem.n_x),
                         rho_list, sigma_list, oracle_tol=oracle_tol)
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
    if final_dev > 1e-3:
        bad.append("saddle deviation %.3e > 0.001" % final_dev)
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
    for handler in (cmd_run, cmd_ablate, cmd_gradcheck, cmd_compare,
                    cmd_asymptotics):
        name = handler.__name__[len("cmd_"):]
        p = sub.add_parser(name, help=handler.__doc__)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON config path")
        if name in ("run", "ablate", "compare"):  # callers may pass --jobs 1
            p.add_argument("--jobs", default="1", help=argparse.SUPPRESS)
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if getattr(args, "jobs", "1") != "1":
        print("sipba %s: error: --jobs must be 1, got %r: every command runs "
              "in one process" % (args.command, args.jobs), file=sys.stderr)
        return 1

    try:
        cfg, _ = load_config(args.config)
        _check_keys(cfg)
        out_dir = args.out or _get(cfg, "out_dir")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            what = "must name a directory, got %r (%s)" % (out_dir, e.strerror)
            if not args.out:
                raise ConfigError("out_dir " + what,
                                  _line(cfg, "out_dir")) from None
            print("sipba %s: error: --out %s" % (args.command, what),
                  file=sys.stderr)
            return 1
        # numpy's floating-point warnings off: a run that leaves the float
        # range is caught by the finiteness checks and reported as its one
        # FAILED line, and an oracle solve that does is caught by its
        # convergence check; a solve that fails outside a run (gradcheck's,
        # asymptotics') ends the command at the one handler below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(cfg, out_dir)
    except ConfigError as e:
        print("%s:%d: %s" % (args.config, e.line, e), file=sys.stderr)
        return 1
    except SaddleConvergenceError as e:  # the one "oracle failure" line
        print("%s: oracle failure: %s" % (args.command, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
