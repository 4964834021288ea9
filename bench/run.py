"""SiPBA benchmark: one ``sipba`` CLI workload, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``. Workloads (see workloads.py and
README.md): ``synth-run``, ``synth-ablate``, ``hyperrep-compare``.

``--trace 0`` repeats the CLI command, one process at ``--jobs 1``, a fixed
number of times per workload scaled to ``--seconds``, checks every command's
outputs, and reports the end-to-end metrics as medians over the commands.
Set-up time is measured by separate probe processes. Times are rescaled for
the machine's speed, sampled with a reference loop in the command's own
thread (sampled_cli.py, reference.py).

``--trace 1`` runs the command once untraced and twice traced, checks that
the traced runs wrote the same numbers as the untraced one and repeated the
exact counts, and reports the per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, 2 on a usage error.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# children use one core: no BLAS or OpenMP thread pools
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
PROBES_PER_GAP = 4
CHILD_TIMEOUT_S = 150

# the end-to-end metrics in the final JSON line (BENCHMARK.json end_to_end)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "stepping_s": "s"}
# every end-to-end metric printed by name; each workload has a subset
REPORTED = dict(END_TO_END, raw_setup_s="s", raw_wall_s="s",
                raw_stepping_s="s", speed_scale="ratio",
                failed_frac="ratio", steps_per_s="1/s",
                time_to_target_s="s", target_hit_frac="ratio",
                final_eps_rel_max="1", sipba_test_loss="1",
                baseline_test_loss="1", grad_evals_per_step="count",
                baseline_grad_evals_per_s="1/s")
PER_LAYER = dict(layers.METRICS, **{"trace.overhead": "ratio"})


def child_env(sipba_seed):
    return dict(os.environ, PYTHONPATH=SRC, SIPBA_SEED=str(sipba_seed),
                **THREADS)


def spawn(argv, env, log_path):
    """Run argv to completion; (start, wall seconds, peak RSS MB, exit code).

    The start is a CLOCK_MONOTONIC reading taken just before the spawn.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(cfg_path, env):
    """(raw, rescaled) spawn-to-first-step seconds of one set-up probe.

    The probe times the reference loop right after its set-up; that speed
    rescales the set-up time.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), cfg_path],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0 or len(rest) != 2:
        raise workloads.CheckFailed("set-up probe failed (exit code %d)" % code)
    iterations, ref_s = int(rest[0]), float(rest[1])
    return elapsed, elapsed * reference.scale([ref_s], iterations)


def environment():
    """What produced the numbers: machine, interpreter, numpy, BLAS, source."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    rev = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_rev": rev,
        "git_dirty": None if rev is None else bool(
            _git("status", "--porcelain", "--untracked-files=no")),
        "child_env": THREADS,
        "cli_jobs": 1,
    }


def _git(*args):
    # the ceiling stops git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


class Run:
    """One benchmark run: a workload at a seed, its commands and checks."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.command, self.cfg, self.sipba_seed = workloads.config(workload, seed)
        self.dir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cfg_path = os.path.join(self.dir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=1)
        self.env = child_env(self.sipba_seed)
        self.initial_loss = None
        if workload == "hyperrep-compare":
            self.initial_loss = workloads.hyperrep_initial_loss(
                self.cfg, self.sipba_seed)
        self.attempted = self.failed = 0
        self.problems = []
        self.commands = []

    def cli_args(self, out_dir):
        return [self.command, "--config", self.cfg_path, "--out", out_dir,
                "--jobs", "1"]

    def command_once(self, tag, traced=False):
        """Run the CLI once; returns (command record, metrics or None)."""
        out_dir = os.path.join(self.dir, tag)
        if traced:
            trace_dir = os.path.join(OUT, "trace", self.workload, tag)
            shutil.rmtree(trace_dir, ignore_errors=True)
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"),
                    "%s-seed%d" % (self.workload, self.seed), trace_dir,
                    "--", *self.cli_args(out_dir)]
        else:
            samples_path = out_dir + ".samples.json"
            argv = [sys.executable, os.path.join(BENCH, "sampled_cli.py"),
                    samples_path, "--", *self.cli_args(out_dir)]
        t0, wall, rss, code = spawn(argv, self.env, out_dir + ".log")
        rec = {"tag": tag, "traced": traced, "exit_code": code,
               "raw_wall_s": wall, "peak_rss_mb": rss, "out_dir": out_dir}
        metrics = None
        try:
            if code != 0:
                raise workloads.CheckFailed("CLI exit code %d" % code)
            metrics, att, fail, checks = workloads.extract(
                self.workload, self.seed, self.cfg, self.sipba_seed, out_dir,
                self.initial_loss)
            rec["checks"] = checks
            if not traced:
                with open(samples_path, encoding="utf-8") as fh:
                    smp = json.load(fh)
                if not smp["samples"]:
                    raise workloads.CheckFailed("no speed samples")
                # the sampler's own time comes off the wall clock and, in
                # proportion, off the program's stepping clock
                rec["work_s"] = wall - sum(smp["samples"])
                rec["speed_scale"] = reference.scale(smp["samples"],
                                                     smp["iterations"])
                metrics["raw_stepping_s"] = metrics["stepping_s"]
                metrics["stepping_s"] *= rec["work_s"] / wall * rec["speed_scale"]
                metrics["raw_wall_s"] = wall
                metrics["wall_s"] = rec["work_s"] * rec["speed_scale"]
                metrics["speed_scale"] = rec["speed_scale"]
            else:
                with open(os.path.join(trace_dir, "layers.json"),
                          encoding="utf-8") as fh:
                    trace = json.load(fh)
                rec["raw_wall_s"] = trace["main_done"] - t0
                rec["spans"] = trace["spans"]
                rec["layers"] = trace["metrics"]
        except (workloads.CheckFailed, OSError, KeyError, ValueError,
                ZeroDivisionError) as exc:
            att = fail = workloads.runs_per_command(self.workload, self.cfg)
            self.problems.append("%s: %s: %s" % (tag, type(exc).__name__, exc))
            metrics = None
        self.attempted += att
        self.failed += fail
        self.commands.append(rec)
        return rec, metrics

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)

    def same_numbers(self, rec, ref):
        """Numeric CSV cells of rec's outputs equal ref's, bit for bit."""
        self.require(workloads.numeric_cells(rec["out_dir"])
                     == workloads.numeric_cells(ref["out_dir"]),
                     "%s: numeric CSV cells differ from %s"
                     % (rec["tag"], ref["tag"]))


def measure(run, seconds):
    """End-to-end metrics: repeat the command, take medians.

    Times in the result line are rescaled to a machine that runs the
    reference loop at reference.NOMINAL_US: each command by the samples
    taken inside it, each set-up probe by the loop it times after set-up.
    The raw times are printed and stored as ``raw_*``. Probes run before
    every command and after the last, so they sample the whole run.
    """
    setups, results = [], []
    n = workloads.commands_per_run(run.workload, seconds)
    for i in range(n + 1):
        try:
            setups += [probe(run.cfg_path, run.env)
                       for _ in range(PROBES_PER_GAP)]
        except workloads.CheckFailed as exc:
            run.problems.append(str(exc))
            return {}
        if i == n:
            break
        rec, metrics = run.command_once("cmd%d" % i)
        if metrics is None:
            return {}
        results.append(dict(metrics, peak_rss_mb=rec["peak_rss_mb"]))
        run.same_numbers(rec, run.commands[0])
    out = {"raw_setup_s": statistics.median(raw for raw, _ in setups),
           "setup_s": statistics.median(scaled for _, scaled in setups),
           "failed_frac": run.failed / run.attempted}
    for key in results[0]:
        out[key] = statistics.median(r[key] for r in results)
    return out


def trace(run):
    """Per-layer metrics from two traced commands against one untraced."""
    plain, metrics = run.command_once("plain")
    traced = [run.command_once("traced%d" % i, traced=True)[0] for i in (1, 2)]
    if metrics is None or any("layers" not in t for t in traced):
        return {}
    for t in traced:
        run.same_numbers(t, plain)
    first, second = (t["layers"] for t in traced)
    for key in layers.EXACT:
        run.require(first[key] == second[key],
                    "%s differs between traced runs: %r vs %r"
                    % (key, first[key], second[key]))
    run.require(first["benchmarks.grad.calls_per_step"] == 6,
                "gradient calls per step %r (need exactly 6)"
                % first["benchmarks.grad.calls_per_step"])
    out = {k: v if v == second[k] else statistics.median([v, second[k]])
           for k, v in first.items()}
    out["trace.overhead"] = (statistics.median(t["raw_wall_s"] for t in traced)
                             / plain["work_s"] - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sipba", "cli.py")):
        print("bench: no package source at %s; run inside a checkout of the "
              "repository" % os.path.join(SRC, "sipba"), file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed)
    env = environment()
    print("workload %s seed %d (SIPBA_SEED=%d), %s, trace %d"
          % (run.workload, run.seed, run.sipba_seed, run.command, args.trace))
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        values = trace(run)
        units = PER_LAYER
    else:
        values = measure(run, args.seconds)
        units = END_TO_END
        for name, unit in REPORTED.items():
            if name in values:
                print("metric %-26s %.6g %s" % (name, values[name], unit))
    for rec in run.commands:
        print("command %-8s exit %d  %.3f s%s" % (
            rec["tag"], rec["exit_code"], rec["raw_wall_s"],
            "".join("\n  check: " + c for c in rec.get("checks", []))))
    for p in run.problems:
        print("FAILED " + p)
    correct = not run.problems and run.failed == 0 and bool(values)

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                           % (run.workload, run.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": run.workload, "seed": run.seed,
                   "sipba_seed": run.sipba_seed, "environment": env,
                   "correct": correct, "problems": run.problems,
                   "values": values, "commands": run.commands}, fh, indent=1)
    for rec in run.commands:
        shutil.rmtree(rec["out_dir"], ignore_errors=True)

    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": values.get(k), "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
