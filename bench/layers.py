"""Per-layer metrics: which package attributes are traced, and what the spans say.

The layers are the package modules. ``install`` wraps the public entry
points of each module from outside; ``layer_metrics`` turns the recorded
spans into the per-layer numbers the benchmark reports. Span names follow
``<module>.<function>``.
"""

import dataclasses
import inspect
import os

import numpy as np

from tracer import self_times, within

GRADS = ("grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y")

# (metric, unit); the order is the order of the report
METRICS = [
    ("solver.step.calls", "count"),
    ("solver.step.us", "us"),
    ("solver.step.self_us", "us"),
    ("solver.params_at.us", "us"),
    ("solver.run.callback_share", "ratio"),
    ("solver.run.target_share", "ratio"),
    ("smoothing.direction_y.self_us", "us"),
    ("smoothing.direction_z.self_us", "us"),
    ("smoothing.direction_x.self_us", "us"),
    ("smoothing.operator_T.calls", "count"),
    ("smoothing.operator_T.self_us", "us"),
    ("problem.project.calls", "count"),
    ("problem.project.us", "us"),
    ("problem.project.calls_per_step", "count"),
    ("benchmarks.grad.calls_per_step", "count"),
] + [("benchmarks.grad.%s.us" % g, "us") for g in GRADS] + [
    ("benchmarks.grad.oracle_calls", "count"),
    ("benchmarks.build.s", "s"),
    ("saddle.solve.calls", "count"),
    ("saddle.solve.self_us", "us"),
    ("saddle.solve.iters_per_call", "count"),
    ("saddle.solve.converged_frac", "ratio"),
    ("saddle.solve.failures", "count"),
    ("saddle.lipschitz.us", "us"),
    ("saddle.lipschitz.share", "ratio"),
    ("diagnostics.relative_error.calls", "count"),
    ("diagnostics.relative_error.us", "us"),
    ("cli.callback.calls", "count"),
    ("cli.callback.us", "us"),
    ("cli.build_problem.calls", "count"),
    ("cli.csv.s", "s"),
    ("cli.csv.bytes", "bytes"),
    ("cli.baseline.outer_iters", "count"),
    ("cli.baseline.inner_iters", "count"),
    ("cli.baseline.s", "s"),
]

# counts that must repeat exactly between two traced runs of one workload
EXACT = ("benchmarks.grad.calls_per_step", "saddle.solve.iters_per_call",
         "diagnostics.relative_error.calls", "solver.step.calls")


class Recorder:
    """Values the wrappers see besides time: oracle effort, bytes, iterations."""

    def __init__(self):
        self.solve_iters = []
        self.solve_converged = []
        self.failures = 0
        self.csv_bytes = 0
        self.outer_iters = 0

    def solved(self, sd):
        self.solve_iters.append(sd.iterations)
        self.solve_converged.append(bool(sd.converged))

    def oracle_failed(self, err):
        # the error carries the last iterate; count its iterations, then the
        # wrapper re-raises so the caller handles the failure as usual
        self.failures += 1
        self.solve_iters.append(err.saddle.iterations if err.saddle else 0)
        self.solve_converged.append(False)

    def baseline_done(self, result):
        self.outer_iters += result[2]


def install(tracer, rec):
    """Wrap the package's layer entry points; tracer.restore() undoes it."""
    from sipba import (benchmarks, cli, diagnostics, problem, saddle, smoothing,
                       solver)
    from sipba.errors import SaddleConvergenceError

    mods = (cli, solver, smoothing, saddle, diagnostics, problem, benchmarks)

    def everywhere(fn, name, **hooks):
        tracer.patch_everywhere(fn, name, mods, **hooks)

    everywhere(solver.sipba_step, "solver.step")
    everywhere(solver.params_at, "solver.params_at")
    for name in ("direction_y", "direction_z", "direction_x", "operator_T"):
        everywhere(getattr(smoothing, name), "smoothing." + name)
    everywhere(saddle.solve_saddle, "saddle.solve", on_result=rec.solved,
               on_error=rec.oracle_failed, errors=(SaddleConvergenceError,))
    everywhere(saddle.estimate_T_lipschitz, "saddle.lipschitz")
    everywhere(diagnostics.relative_error, "diagnostics.relative_error")
    for name in ("synthetic_problem", "quadratic_testbed", "generate_hyper_rep",
                 "hyper_rep_problem"):
        everywhere(getattr(benchmarks, name), "benchmarks.build")
    for cls in (problem.FullSpace, problem.Box, problem.Ball):
        tracer.patch(cls, "project",
                     tracer.wrap(cls.project, "problem.project"))

    # run: its callback and target are closures built inside the CLI, so
    # they are wrapped per call, on their way in
    run = solver.run
    run_sig = inspect.signature(run)
    wrap_callback = {"callback": "cli.callback", "target": "solver.run.target"}

    def run_with_traced_hooks(*args, **kwargs):
        bound = run_sig.bind(*args, **kwargs)
        for arg, name in wrap_callback.items():
            if bound.arguments.get(arg) is not None:
                bound.arguments[arg] = tracer.wrap(bound.arguments[arg], name)
        return traced_run(*bound.args, **bound.kwargs)

    traced_run = tracer.wrap(run, "solver.run")
    tracer.patch(cli, "run", run_with_traced_hooks)

    # build_problem: the gradient callables live on each problem instance
    build = tracer.wrap(cli.build_problem, "cli.build_problem")

    def build_with_traced_grads(*args, **kwargs):
        bundle = build(*args, **kwargs)
        p = bundle.problem
        bundle.problem = dataclasses.replace(p, **{
            g: tracer.wrap(getattr(p, g), "benchmarks.grad." + g)
            for g in GRADS})
        return bundle

    tracer.patch(cli, "build_problem", build_with_traced_grads)

    write = tracer.wrap(cli._write_csv, "cli.csv")

    def write_counting_bytes(path, *args, **kwargs):
        write(path, *args, **kwargs)
        rec.csv_bytes += os.path.getsize(path)

    tracer.patch(cli, "_write_csv", write_counting_bytes)
    tracer.patch(cli, "_baseline_under_budget",
                 tracer.wrap(cli._baseline_under_budget, "cli.baseline",
                             on_result=rec.baseline_done))


def layer_metrics(names, spans, rec):
    """Per-layer metrics (dict name -> value) from recorded spans."""
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, spans["start"], spans["end"])
    ids = {n: i for i, n in enumerate(names)}

    def is_(*wanted):
        return np.isin(name_id, [ids[n] for n in wanted if n in ids])

    def calls(name):
        return int(is_(name).sum())

    def mean_us(values, name):
        m = is_(name)
        return float(values[m].mean() * 1e6) if m.any() else 0.0

    def total(name):
        return float(dur[is_(name)].sum())

    def share(part, whole):
        w = total(whole)
        return total(part) / w if w else 0.0

    steps = calls("solver.step")
    in_step = within(parent, is_("solver.step"))
    grads = is_(*["benchmarks.grad." + g for g in GRADS])
    solves = is_("saddle.solve")
    iters = np.asarray(rec.solve_iters, dtype=float)
    if iters.size != solves.sum():
        raise RuntimeError("oracle results and oracle spans disagree")
    in_baseline = within(parent, is_("cli.baseline"))[solves]

    out = {
        "solver.step.calls": steps,
        "solver.step.us": mean_us(dur, "solver.step"),
        "solver.step.self_us": mean_us(own, "solver.step"),
        "solver.params_at.us": mean_us(dur, "solver.params_at"),
        "solver.run.callback_share": share("cli.callback", "solver.run"),
        "solver.run.target_share": share("solver.run.target", "solver.run"),
        "smoothing.direction_y.self_us": mean_us(own, "smoothing.direction_y"),
        "smoothing.direction_z.self_us": mean_us(own, "smoothing.direction_z"),
        "smoothing.direction_x.self_us": mean_us(own, "smoothing.direction_x"),
        "smoothing.operator_T.calls": calls("smoothing.operator_T"),
        "smoothing.operator_T.self_us": mean_us(own, "smoothing.operator_T"),
        "problem.project.calls": calls("problem.project"),
        "problem.project.us": mean_us(dur, "problem.project"),
        "problem.project.calls_per_step":
            float((is_("problem.project") & in_step).sum()) / steps if steps else 0.0,
        "benchmarks.grad.calls_per_step":
            float((grads & in_step).sum()) / steps if steps else 0.0,
        "benchmarks.grad.oracle_calls":
            int((grads & within(parent, solves)).sum()),
        "benchmarks.build.s": total("benchmarks.build"),
        "saddle.solve.calls": int(solves.sum()),
        "saddle.solve.self_us": mean_us(own, "saddle.solve"),
        "saddle.solve.iters_per_call": float(iters.mean()) if iters.size else 0.0,
        "saddle.solve.converged_frac":
            float(np.mean(rec.solve_converged)) if iters.size else 0.0,
        "saddle.solve.failures": rec.failures,
        "saddle.lipschitz.us": mean_us(dur, "saddle.lipschitz"),
        "saddle.lipschitz.share": share("saddle.lipschitz", "saddle.solve"),
        "diagnostics.relative_error.calls": calls("diagnostics.relative_error"),
        "diagnostics.relative_error.us": mean_us(dur, "diagnostics.relative_error"),
        "cli.callback.calls": calls("cli.callback"),
        "cli.callback.us": mean_us(dur, "cli.callback"),
        "cli.build_problem.calls": calls("cli.build_problem"),
        "cli.csv.s": total("cli.csv"),
        "cli.csv.bytes": rec.csv_bytes,
        "cli.baseline.outer_iters": rec.outer_iters,
        "cli.baseline.inner_iters": int(iters[in_baseline].sum()),
        "cli.baseline.s": total("cli.baseline"),
    }
    for g in GRADS:
        out["benchmarks.grad.%s.us" % g] = mean_us(dur, "benchmarks.grad." + g)
    return out
