"""The three benchmark workloads: generated configs, output metrics, checks.

Each workload is one ``sipba`` CLI command on a config generated from the
workload seed. The seed shifts every init seed through ``SIPBA_SEED`` and,
for hyper-representation, the data seed; seed 0 reproduces the instances of
acceptance criteria 01, 06 and 07. ``extract`` reads the CLI's own output
files and returns the end-to-end metrics plus the verdict of the output
checks.
"""

import csv
import os

REF_SCHEDULE = {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0, "sigma0": 0.01,
                "p": 0.001, "q": 0.001, "s": 0.1}
ABLATION_GRID = [
    {},
    {"alpha0": 1.0}, {"alpha0": 0.01},
    {"beta0": 0.01}, {"beta0": 0.0001},
    {"p": 0.01}, {"p": 0.0001},
    {"q": 0.01}, {"q": 0.0001},
    {"s": 0.3}, {"s": 0.016},
    {"p": 0.01, "q": 0.01, "s": 0.16},
]
# eight starts per schedule variant, not criterion 06's three: the summed
# time-to-target varies with the starts (about 7% per start), and more starts
# narrow its spread across workload seeds
ABLATE_STARTS = 8
HR_SCHEDULE = {"alpha0": 0.01, "beta0": 1e-4, "rho0": 10.0, "sigma0": 0.01,
               "p": 0.01, "q": 0.01, "s": 0.16}
HR_BUDGET = 180000
TARGET_EPS = 1e-4

# CSV columns that hold wall-clock readings; every other cell is
# deterministic and must match bit for bit between runs
TIME_COLUMNS = {"time_s", "mean_time_to_target_s", "std_time_to_target_s"}


class CheckFailed(Exception):
    """An output of the program is outside its acceptance bound."""


def config(workload, seed):
    """(CLI subcommand, config dict, SIPBA_SEED value) for a workload seed."""
    if workload == "synth-run":
        return "run", {
            "problem": {"kind": "synthetic", "n": 100},
            "schedule": REF_SCHEDULE,
            "run": {"max_iter": 20000, "seeds": {"base": 1000, "count": 10},
                    "stride": 100, "oracle_tol": 1e-8,
                    "target_eps_rel": TARGET_EPS},
        }, 1000 + 10 * seed
    if workload == "synth-ablate":
        return "ablate", {
            "problem": {"kind": "synthetic", "n": 100},
            "schedule": REF_SCHEDULE,
            "run": {"seeds": {"base": 1000, "count": ABLATE_STARTS},
                    "target_eps_rel": TARGET_EPS},
            "ablate": {"max_iter": 200000, "grid": ABLATION_GRID},
        }, 1000 + 10 * seed
    if workload == "hyperrep-compare":
        return "compare", {
            "problem": {"kind": "hyper_rep", "n_feat": 100, "p_dim": 5,
                        "m1": 100, "m2": 100, "m_test": 500, "noise_a": 0.1,
                        "data_seed": 7 + seed},
            "schedule": HR_SCHEDULE,
            "run": {"max_iter": HR_BUDGET // 6, "seeds": [42], "stride": 100},
            "compare": {"budget": HR_BUDGET, "inner_tol": 1e-5,
                        "baseline_schedule": {"alpha0": 0.2}},
        }, 42 + seed
    raise ValueError("unknown workload %r" % workload)


NAMES = ("synth-run", "synth-ablate", "hyperrep-compare")

# identical commands per run at --seconds 30, scaled with --seconds; on a
# 2-core box each workload's commands then take 25-45 s
COMMANDS_AT_30S = {"synth-run": 2, "synth-ablate": 1, "hyperrep-compare": 3}


def commands_per_run(workload, seconds):
    return max(1, round(COMMANDS_AT_30S[workload] * seconds / 30.0))


def runs_per_command(workload, cfg):
    """Solver runs one command attempts (a compare run is both arms)."""
    if workload == "synth-run":
        return cfg["run"]["seeds"]["count"]
    if workload == "synth-ablate":
        return len(cfg["ablate"]["grid"]) * cfg["run"]["seeds"]["count"]
    return 1


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def numeric_cells(out_dir):
    """{file: rows of non-time cells} for every CSV in out_dir."""
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            tables[name] = [{k: v for k, v in row.items()
                             if k not in TIME_COLUMNS}
                            for row in read_csv(os.path.join(out_dir, name))]
    return tables


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def extract(workload, seed, cfg, sipba_seed, out_dir, initial_loss=None):
    """(metrics, runs attempted, runs failed, check messages) from CLI outputs.

    Raises CheckFailed when an output breaks its acceptance bound; runs that
    did not complete count as failed either way.
    """
    if workload == "synth-run":
        return _synth_run(cfg, sipba_seed, out_dir)
    if workload == "synth-ablate":
        return _synth_ablate(cfg, out_dir)
    return _hyperrep(cfg, seed, sipba_seed, out_dir, initial_loss)


def _synth_run(cfg, sipba_seed, out_dir):
    count = cfg["run"]["seeds"]["count"]
    max_iter = cfg["run"]["max_iter"]
    (summary,) = read_csv(os.path.join(out_dir, "summary.csv"))
    steps = stepping = 0.0
    completed = 0
    for s in range(sipba_seed, sipba_seed + count):
        rows = read_csv(os.path.join(out_dir, "run_%d.csv" % s))
        last = rows[-1]
        completed += int(last["k"]) == max_iter
        steps += int(last["k"])
        stepping += float(last["time_s"])
    valid = int(summary["valid_runs"])
    failed = count - min(completed, int(summary["completed"]))
    metrics = {
        "stepping_s": stepping,
        "steps_per_s": steps / stepping,
        "time_to_target_s": float(summary["mean_time_to_target_s"]) * valid,
        "target_hit_frac": valid / count,
        "final_eps_rel_max": float(summary["max_final_eps_rel"]),
    }
    best = float(summary["min_final_eps_rel"])
    checks = ["%d/%d runs completed %d steps" % (completed, count, max_iter),
              "%d/%d runs reached eps_rel < %g (need >= %d)"
              % (valid, count, TARGET_EPS, count - 1),
              "best final eps_rel %.3e (need <= %g)" % (best, TARGET_EPS)]
    _require(completed == count, checks[0])
    _require(valid >= count - 1, checks[1])
    _require(best <= TARGET_EPS, checks[2])
    return metrics, count, failed, checks


def _synth_ablate(cfg, out_dir):
    rows = read_csv(os.path.join(out_dir, "ablation.csv"))
    runs = sum(int(r["runs"]) for r in rows)
    valid = sum(int(r["valid_runs"]) for r in rows)
    ttt = sum(float(r["mean_time_to_target_s"]) * int(r["valid_runs"])
              for r in rows if int(r["valid_runs"]))
    metrics = {
        # every run stops at the target, so its stepping clock is its
        # time-to-target
        "stepping_s": ttt,
        "time_to_target_s": ttt,
        "target_hit_frac": valid / runs,
    }
    expected = runs_per_command("synth-ablate", cfg)
    checks = ["%d/%d runs reached eps_rel < %g (need all %d)"
              % (valid, runs, TARGET_EPS, expected)]
    _require(runs == expected and valid == expected, checks[0])
    return metrics, expected, expected - valid, checks


def _hyperrep(cfg, seed, sipba_seed, out_dir, initial_loss):
    budget = cfg["compare"]["budget"]
    rows = read_csv(os.path.join(out_dir, "compare_%d.csv" % sipba_seed))
    last = {}
    for r in rows:
        last[r["method"]] = r
    _require(set(last) == {"sipba", "baseline"},
             "both arms report a final row (got %s)" % sorted(last))
    s, b = last["sipba"], last["baseline"]
    s_loss, b_loss = float(s["metric"]), float(b["metric"])
    per_step = int(s["grad_evals"]) / int(s["step"])
    metrics = {
        "stepping_s": float(s["time_s"]) + float(b["time_s"]),
        "steps_per_s": int(s["step"]) / float(s["time_s"]),
        "sipba_test_loss": s_loss,
        "baseline_test_loss": b_loss,
        "grad_evals_per_step": per_step,
        "baseline_grad_evals_per_s": int(b["grad_evals"]) / float(b["time_s"]),
    }
    checks = [
        "single-loop arm: %d gradient evaluations over %s steps, %g per step "
        "(need exactly 6, %d in all)"
        % (int(s["grad_evals"]), s["step"], per_step, budget),
        "test loss from %.4g: single-loop %.4g, double-loop %.4g "
        "(both need <= half)" % (initial_loss, s_loss, b_loss),
    ]
    _require(per_step == 6 and int(s["grad_evals"]) == budget, checks[0])
    _require(s_loss <= 0.5 * initial_loss and b_loss <= 0.5 * initial_loss,
             checks[1])
    if seed == 0:
        # parity is criterion 07's claim for its own instance (data seed 7,
        # init seed 42); on other data seeds the ratio ranges 0.8-1.9
        checks.append("criterion 07 instance: loss ratio %.4f (need within "
                      "10%%)" % (s_loss / b_loss))
        _require(abs(s_loss - b_loss) <= 0.10 * b_loss, checks[-1])
    return metrics, 1, 0, checks


def hyperrep_initial_loss(cfg, sipba_seed):
    """Test loss at the start point the CLI draws for this config and seed."""
    import numpy as np
    from sipba import generate_hyper_rep, hyper_rep_init, hyper_rep_test_loss

    pd = cfg["problem"]
    data = generate_hyper_rep(pd["n_feat"], pd["p_dim"], pd["m1"], pd["m2"],
                              pd["m_test"], pd["noise_a"], pd["data_seed"])
    x0, y0, _ = hyper_rep_init(data, np.random.Generator(np.random.Philox(sipba_seed)))
    return hyper_rep_test_loss(data, x0, y0)
