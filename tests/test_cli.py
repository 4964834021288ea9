import csv
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from sipba import cli


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def key_line(cfgp, dotted):
    """Line of "section.key": the key's first line from its section on."""
    lines = open(cfgp).read().splitlines()
    found = 0
    for part in dotted.split("."):
        found = next(i for i in range(found, len(lines))
                     if '"%s"' % part in lines[i])
    return found + 1


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def synthetic_cfg(**over):
    cfg = {
        "problem": {"kind": "synthetic", "n": 2},
        "schedule": {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0,
                     "sigma0": 0.01, "p": 0.001, "q": 0.001, "s": 0.1},
        "run": {"max_iter": 300, "seeds": {"base": 5, "count": 2},
                "stride": 100, "oracle_tol": 1e-6, "target_eps_rel": 0.5},
    }
    cfg.update(over)
    return cfg


def test_run_writes_per_seed_csv_and_summary(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
    for seed in (5, 6):
        header, rows = read_csv(out / ("run_%d.csv" % seed))
        assert header == cli.RUN_COLUMNS
        assert [int(r[1]) for r in rows] == [100, 200, 300]
        assert all(r[0] == str(seed) for r in rows)
        for r in rows:
            float(r[3])  # phi_k
            assert 0.0 <= float(r[4])  # eps_rel known here
            float(r[5]), float(r[6]), float(r[7])
    header, rows = read_csv(out / "summary.csv")
    assert header == cli.SUMMARY_COLUMNS
    assert len(rows) == 1
    assert rows[0][0] == "2" and rows[0][1] == "2"
    assert "run 5:" in capsys.readouterr().out


def test_run_line_endings_and_encoding(tmp_path):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    cli.main(["run", "--config", cfgp, "--out", str(out)])
    blob = (out / "run_5.csv").read_bytes()
    assert b"\r" not in blob
    blob.decode("utf-8")


def test_run_emits_exactly_one_row_for_single_iteration(tmp_path):
    cfg = synthetic_cfg()
    cfg["run"] = {"max_iter": 1, "seeds": [9], "stride": 100, "oracle_tol": 1e-6}
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = read_csv(out / "run_9.csv")
    assert len(rows) == 1 and rows[0][1] == "1"


def test_run_quadratic_leaves_eps_rel_empty(tmp_path):
    cfg = synthetic_cfg(problem={"kind": "quadratic"})
    del cfg["run"]["target_eps_rel"]
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = read_csv(out / "run_5.csv")
    assert rows and all(r[4] == "" for r in rows)
    float(rows[-1][3])


def test_run_rejects_target_without_known_optimum(tmp_path, capsys):
    cfg = synthetic_cfg(problem={"kind": "quadratic"})
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "target_eps_rel" in err
    assert cfgp + ":" in err  # path:line: message shape


def test_run_explicit_init_overrides_sampling(tmp_path):
    cfg = synthetic_cfg()
    cfg["run"]["init"] = {"x0": [2.0, 2.0], "y0": [1.0, 1.0]}
    cfg["run"]["seeds"] = [5]
    cfg["run"]["max_iter"] = 1
    cfgp = write_cfg(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfgp, "--out", str(out1)])
    cfg["run"]["seeds"] = [77]  # different seed, same explicit init
    cfgp = write_cfg(tmp_path, cfg, name="cfg2.json")
    cli.main(["run", "--config", cfgp, "--out", str(out2)])
    _, rows1 = read_csv(out1 / "run_5.csv")
    _, rows2 = read_csv(out2 / "run_77.csv")
    assert rows1[0][3:] == rows2[0][3:]  # identical trajectory columns


def test_run_determinism_across_invocations(tmp_path):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
        header, rows = read_csv(out / "run_6.csv")
        ti = header.index("time_s")
        outs.append([tuple(v for i, v in enumerate(r) if i != ti) for r in rows])
    assert outs[0] == outs[1]


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SIPBA_SEED", "40")
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "run_40.csv").exists()
    assert (out / "run_41.csv").exists()
    assert not (out / "run_5.csv").exists()


def test_seed_env_must_be_integer(tmp_path, monkeypatch, capsys):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    for env in ("pi", "-5"):
        monkeypatch.setenv("SIPBA_SEED", env)
        assert cli.main(["run", "--config", cfgp,
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "%s:%d: SIPBA_SEED must be an integer >= 0, got %r\n"
            % (cfgp, key_line(cfgp, "run.seeds"), env))


def test_resolve_seeds_variants(monkeypatch):
    monkeypatch.delenv("SIPBA_SEED", raising=False)
    assert cli.resolve_seeds({"run": {"seeds": [3, 1, 2]}}) == [3, 1, 2]
    assert cli.resolve_seeds({"run": {"seeds": {"base": 10, "count": 3}}}) == [10, 11, 12]
    assert cli.resolve_seeds({}) == [0]
    with pytest.raises(cli.ConfigError):
        cli.resolve_seeds({"run": {"seeds": [1, 1]}})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seeds({"run": {"seeds": "nope"}})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seeds({"run": {"seeds": {"base": 0, "count": 0}}})


def test_config_error_reporting(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", "--config", missing]) == 1
    assert ":1:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "problem": {"kind": }\n}\n', encoding="utf-8")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert ":2:" in capsys.readouterr().err

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(arr)]) == 1
    capsys.readouterr()

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{\n "problem": {\n  "kind": "nosuch"\n }\n}\n',
                       encoding="utf-8")
    assert cli.main(["run", "--config", str(unknown)]) == 1
    err = capsys.readouterr().err
    assert "nosuch" in err and ":3:" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_init_length_error_exits_cleanly(tmp_path, jobs):
    cfg = synthetic_cfg()
    cfg["run"]["init"] = {"x0": [2.0, 2.0, 2.0], "y0": [1.0, 1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    line = next(i for i, text in enumerate(open(cfgp), 1) if '"x0"' in text)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "run", "--config", cfgp,
         "--jobs", jobs, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("%s:%d: " % (cfgp, line)), proc.stderr
    assert "x0" in proc.stderr and "Traceback" not in proc.stderr


def test_init_length_checked_for_every_block(tmp_path, capsys):
    cfg = synthetic_cfg()
    cfg["run"]["init"] = {"x0": [2.0, 2.0], "y0": [1.0, 1.0], "z0": [1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "compare"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / "o")]) == 1
        assert "run.init.z0" in capsys.readouterr().err


def test_argparse_exit_codes(capsys):
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0
    assert cli.main(["frobnicate", "--config", "x"]) == 1
    capsys.readouterr()
    for jobs in ("0", "-3"):  # --jobs counts worker processes
        assert cli.main(["run", "--config", "x", "--jobs", jobs]) == 1
        assert "--jobs: must be an integer >= 1" in capsys.readouterr().err


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for v in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(cli._fmt(float(v))) == v
    assert cli._fmt(None) == ""
    assert cli._fmt(3) == "3"
    assert cli._fmt("x") == "x"


def test_ablate_table(tmp_path, capsys):
    cfg = synthetic_cfg()
    cfg["ablate"] = {"grid": [{}, {"alpha0": 0.05}], "max_iter": 2000}
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["ablate", "--config", cfgp, "--out", str(out)]) == 0
    header, rows = read_csv(out / "ablation.csv")
    assert header == cli.ABLATE_COLUMNS
    assert [r[0] for r in rows] == ["0", "1"]
    assert float(rows[0][1]) == 0.1 and float(rows[1][1]) == 0.05
    assert all(r[8] == "2" for r in rows)  # two seeds per row
    assert "row  0" in capsys.readouterr().out


def test_ablate_rejects_unknown_override(tmp_path):
    cfg = synthetic_cfg()
    cfg["ablate"] = {"grid": [{"gamma": 1.0}]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["ablate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_guideline_rejects_explicit_s(tmp_path, capsys):
    # the guideline forces s = 8(p+q); a configured s is an error, not
    # silently replaced
    guide = {"guideline": True, "alpha0": 0.1, "beta0": 0.001, "sigma0": 0.01}
    sp = cli.build_schedule({"schedule": guide})
    assert (sp.p, sp.q, sp.rho0, sp.s) == (0.01, 0.01, 10.0, 8.0 * 0.02)
    with pytest.raises(cli.ConfigError):
        cli.build_schedule({"schedule": dict(guide, s=0.4)})
    for schedule, grid in ((dict(guide, s=0.4), [{}]),
                           (guide, [{}, {"s": 0.3}])):
        cfg = synthetic_cfg(schedule=schedule)
        cfg["ablate"] = {"grid": grid, "max_iter": 10}
        cfgp = write_cfg(tmp_path, cfg)
        line = next(i for i, text in enumerate(open(cfgp), 1) if '"s"' in text)
        for cmd in ("run", "ablate") if len(grid) == 1 else ("ablate",):
            assert cli.main([cmd, "--config", cfgp,
                             "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("%s:%d: " % (cfgp, line)), err
            assert "guideline" in err


def test_null_schedule_fields_take_their_defaults(tmp_path):
    # optional fields and override fields given as null behave as absent
    base = synthetic_cfg()["schedule"]
    want = cli.build_schedule({"schedule": base})
    nulls = dict(base, t_exp=None, rho_cap=None)
    assert cli.build_schedule({"schedule": nulls}) == want
    cfg = {"schedule": nulls}
    assert cli._schedule(cfg, {"alpha0": None, "t_exp": None},
                         "ablate.grid") == want
    cfg = synthetic_cfg(schedule=nulls,
                        compare={"budget": 60,
                                 "baseline_schedule": {"rho_cap": None}})
    cfg["ablate"] = {"grid": [{"s": None}], "max_iter": 10}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "ablate", "compare"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / cmd)]) == 0
    with pytest.raises(cli.ConfigError, match="'schedule.alpha0'"):
        cli.build_schedule({"schedule": dict(base, alpha0=None)})


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    cfg = synthetic_cfg()
    cfg["gradcheck"] = {"n_points": 5, "threshold": 1e-4, "rho": 10.0,
                        "sigma": 0.1, "oracle_tol": 1e-10}
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["gradcheck", "--config", cfgp, "--out", str(out)]) == 0
    header, rows = read_csv(out / "gradcheck.csv")
    assert header == ["gradient", "max_rel_err", "threshold", "passed"]
    names = [r[0] for r in rows]
    assert names == ["grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y", "grad_phi"]
    assert all(r[3] == "True" for r in rows)
    assert "gradcheck passed" in capsys.readouterr().out


def test_gradcheck_threshold_violation_exit_code(tmp_path, capsys):
    cfg = synthetic_cfg()
    cfg["gradcheck"] = {"n_points": 3, "threshold": 1e-15}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["gradcheck", "--config", cfgp,
                     "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_compare_respects_gradient_budget(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic"},
        "schedule": {"alpha0": 0.1, "beta0": 0.01, "rho0": 1.0, "sigma0": 0.1,
                     "p": 0.001, "q": 0.001, "s": 0.1},
        "run": {"max_iter": 500, "seeds": [5], "stride": 100},
        "compare": {"budget": 3000, "inner_tol": 1e-6},
    }
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfgp, "--out", str(out)]) == 0
    header, rows = read_csv(out / "compare_5.csv")
    assert header == cli.COMPARE_COLUMNS
    methods = {r[0] for r in rows}
    assert methods == {"sipba", "baseline"}
    for r in rows:
        assert r[5] == "upper_objective"
        evals = int(r[3])
        assert evals <= 3000 + 200, "budget overshoot: %d" % evals
    assert "run 5:" in capsys.readouterr().out


# alpha0 = 1e150 sends the baseline's x out of the float range within a few
# outer steps
DIVERGING_BASELINE = {
    "problem": {"kind": "hyper_rep", "n_feat": 10, "p_dim": 2, "m1": 20,
                "m2": 20, "m_test": 50, "noise_a": 0.1, "data_seed": 3},
    "schedule": {"alpha0": 0.01, "beta0": 1e-4, "rho0": 10.0,
                 "sigma0": 0.01, "p": 0.01, "q": 0.01, "s": 0.16},
    "run": {"max_iter": 500, "seeds": [42], "stride": 50},
    "compare": {"budget": 3000, "baseline_schedule": {"alpha0": 1e150}},
}


def test_compare_diverged_baseline_is_a_failed_run(tmp_path, capsys):
    # the run must fail by name, not report NaN
    cfgp = write_cfg(tmp_path, DIVERGING_BASELINE)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = cli.main(["compare", "--config", cfgp, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "run 42: FAILED (baseline: non-finite baseline iterate at outer "
        "iteration k=")
    _, rows = read_csv(out / "compare_42.csv")
    assert all(r[6] != "nan" for r in rows)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_stderr_has_no_numpy_warnings(tmp_path, jobs):
    # in a fresh interpreter with numpy's default error handling, the
    # FAILED line is the whole report
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "compare", "--config",
         write_cfg(tmp_path, DIVERGING_BASELINE), "--jobs", jobs, "--out",
         str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout.startswith("run 42: FAILED (baseline: ")
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_asymptotics_tables_and_monotone_gaps(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "synthetic", "n": 2},
        "schedule": {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0,
                     "sigma0": 0.01, "p": 0.001, "q": 0.001, "s": 0.1},
        "asymptotics": {"x": "ones",
                        "rho_list": [10.0, 100.0, 1000.0, 10000.0],
                        "sigma_list": [0.1, 0.01, 0.001, 0.0001],
                        "oracle_tol": 1e-9, "saddle_tol": 1e-3},
    }
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["asymptotics", "--config", cfgp, "--out", str(out)]) == 0
    header, rows = read_csv(out / "asymptotics.csv")
    assert header[:2] == ["rho", "sigma"]
    assert len(rows) == 16  # full grid
    _, limits = read_csv(out / "saddle_limits.csv")
    devs = [float(r[2]) for r in limits]
    assert len(devs) == 4
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 1e-3
    assert "asymptotics passed" in capsys.readouterr().out


def test_asymptotics_needs_closed_form(tmp_path):
    cfg = {"problem": {"kind": "quadratic"}, "asymptotics": {}}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["asymptotics", "--config", cfgp,
                     "--out", str(tmp_path / "o")]) == 1


def test_console_script_entry_point(tmp_path):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "run", "--config", cfgp,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "run_5.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cmd, case, value", [
    ("run", "run.stride", 0), ("run", "run.max_iter", -1),
    ("ablate", "ablate.max_iter", -1), ("compare", "compare.budget", 5),
    ("run", "problem.n", 1)])
def test_out_of_range_counts_exit_cleanly(tmp_path, cmd, case, value, jobs):
    cfg = synthetic_cfg(ablate={"grid": [{}]})
    section, key = case.split(".")
    cfg.setdefault(section, {})[key] = value
    cfgp = write_cfg(tmp_path, cfg)
    line = key_line(cfgp, case)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
         "--jobs", jobs, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("%s:%d: %s must be >= " % (cfgp, line, case)), \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_schedule_underflow_fails_the_run(tmp_path, capsys):
    # sigma_k = 0.01 * k^-400 rounds to 0 at k=7
    cfg = synthetic_cfg()
    cfg["schedule"]["q"] = 400.0
    cfg["run"]["max_iter"] = 20
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "compare"):
        with pytest.warns(UserWarning, match="regime"):
            code = cli.main([cmd, "--config", cfgp,
                             "--out", str(tmp_path / cmd)])
        assert code == 2
        out = capsys.readouterr().out.splitlines()
        for seed, text in zip((5, 6), out):
            assert text.startswith("run %d: FAILED (" % seed), text
            assert "k=7" in text and "sigma_k=0.0" in text
    # the double-loop arm of compare fails the same way
    cfg["schedule"]["q"] = 0.001
    cfg["compare"] = {"budget": 3000, "inner_tol": 0.1,
                      "baseline_schedule": {"q": 400.0}}
    cfgp = write_cfg(tmp_path, cfg)
    with pytest.warns(UserWarning, match="regime"):
        code = cli.main(["compare", "--config", cfgp,
                         "--out", str(tmp_path / "baseline")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("run 5: FAILED (baseline: schedule left"), out
    assert "k=7" in out[0]


@pytest.mark.parametrize("cmd, case, value", [
    ("asymptotics", "asymptotics.sigma_list", [0.0]),
    ("asymptotics", "asymptotics.rho_list", ["a"]),
    ("asymptotics", "asymptotics.rho_list", [10.0, -1.0]),
    ("asymptotics", "asymptotics.rho_list", []),
    ("asymptotics", "asymptotics.sigma_list", []),
    ("gradcheck", "gradcheck.sigma", -1),
    ("gradcheck", "gradcheck.rho", 0),
    ("gradcheck", "gradcheck.fd_step", 0),
    ("gradcheck", "gradcheck.n_points", 0)])
def test_asymptotics_and_gradcheck_values_checked_at_the_boundary(
        tmp_path, cmd, case, value):
    # each of these used to crash in the library, divide by zero, or pass
    # without checking anything
    cfg = synthetic_cfg(asymptotics={"rho_list": [10.0], "sigma_list": [0.1]},
                        gradcheck={"n_points": 2})
    section, key = case.split(".")
    cfg[section][key] = value
    cfgp = write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("%s:%d: %s must be "
                                  % (cfgp, key_line(cfgp, case), case)), \
        proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # rejected before any report is printed


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise RuntimeError("a worker pool was started")


@pytest.mark.parametrize("cmd, patch, key, message", [
    ("run", {"run": {"stride": 0}}, "run.stride",
     "run.stride must be >= 1, got 0"),
    ("run", {"run": {"init": {"x0": [1.0], "y0": [1.0, 1.0]}}}, "x0",
     "run.init.x0 must have 2 entries, got shape (1,)"),
    ("run", {"problem": {"kind": "quadratic"}}, "target_eps_rel",
     "target_eps_rel needs a problem with a known optimum"),
    ("compare", {"compare": {"budget": 5}}, "compare.budget",
     "compare.budget must be >= 6, got 5"),
    ("ablate", {"ablate": {"grid": [{}, {"gamma": 1.0}]}}, "grid",
     "unknown schedule override 'gamma'"),
    ("compare", {"compare": {"baseline_schedule": {"gamma": 1.0}}},
     "compare.baseline_schedule", "unknown schedule override 'gamma'"),
    ("run", {"run": {"target_eps": 0.5}}, "run.target_eps",
     "unknown run key 'target_eps'"),
    ("compare", {"run": {"init": {"x0": [1.0, 1.0], "y0": [1.0, 1.0],
                                  "z_0": [1.0, 1.0]}}},
     "run.init.z_0", "unknown run.init key 'z_0'"),
    # a key the config key table lacks is an error in every block and at
    # the top level, for every command, not a silent default
    ("compare", {"compare": {"budgt": 600}}, "compare.budgt",
     "unknown compare key 'budgt'"),
    ("run", {"problem": {"nn": 3}}, "problem.nn", "unknown problem key 'nn'"),
    ("compare", {"gradcheck": {"threshhold": 1e-30}}, "gradcheck.threshhold",
     "unknown gradcheck key 'threshhold'"),
    ("ablate", {"asymptotics": {"rho": 10.0}}, "asymptotics.rho",
     "unknown asymptotics key 'rho'"),
    ("run", {"run": {"seeds": {"base": 5, "cnt": 2}}}, "run.seeds.cnt",
     "unknown run.seeds key 'cnt'"),
    ("ablate", {"ablate": {"maxiter": 10}}, "ablate.maxiter",
     "unknown ablate key 'maxiter'"),
    ("run", {"asymptotic": {"rho_list": [10.0]}}, "asymptotic",
     "unknown top-level key 'asymptotic'"),
], ids=["stride", "init", "target", "budget", "override", "baseline",
        "run-key", "init-key", "compare-key", "problem-key", "gradcheck-key",
        "asymptotics-key", "seeds-key", "ablate-key", "top-level-key"])
def test_bad_config_never_reaches_the_pool(tmp_path, monkeypatch, capsys,
                                           cmd, patch, key, message):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _NoPool)
    # two grid rows: ablate fans out one task per row
    cfg = synthetic_cfg(ablate={"grid": [{}, {"alpha0": 0.05}], "max_iter": 10})
    # the patch is live: a good config at --jobs 2 does start a pool
    with pytest.raises(RuntimeError, match="worker pool"):
        cli.main([cmd, "--config", write_cfg(tmp_path, cfg, "good.json"),
                  "--jobs", "2", "--out", str(tmp_path / "good")])
    capsys.readouterr()
    for section, values in patch.items():
        cfg.setdefault(section, {}).update(values)
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp, "--jobs", "2",
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == "%s:%d: %s\n" % (cfgp, key_line(cfgp, key), message)
    assert out == ""


def test_top_level_key_error_is_on_the_top_level_line(tmp_path, capsys):
    # the same name quoted inside a block on an earlier line is not the key
    cfgp = tmp_path / "tl.json"
    cfgp.write_text('{"problem": {"kind": "synthetic",\n'
                    '             "n": 2},\n'
                    ' "kind": 3}\n', encoding="utf-8")
    assert cli.main(["asymptotics", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "%s:3: unknown top-level key 'kind'\n" % cfgp)


HYPER_REP = {"kind": "hyper_rep", "n_feat": 3, "p_dim": 2, "m1": 5, "m2": 5,
             "m_test": 5, "noise_a": 0.1, "data_seed": 1}
NAN, INF = float("nan"), float("inf")
FAN_OUT = ("run", "ablate", "compare")


def bad_cfg(key, value):
    """A small valid config for every command, with one dotted key set."""
    cfg = synthetic_cfg(ablate={"grid": [{}], "max_iter": 10},
                        compare={"budget": 60}, gradcheck={"n_points": 2},
                        asymptotics={"rho_list": [10.0], "sigma_list": [0.1]})
    if key.startswith("problem."):
        cfg["problem"] = dict(HYPER_REP)
        del cfg["run"]["target_eps_rel"]
    if key.startswith("run.init."):
        cfg["run"]["init"] = {"x0": [1.0, 1.0], "y0": [1.0, 1.0]}
    if key == "run.max_iter":  # compare's budget defaults to 6 * max_iter
        del cfg["compare"]["budget"]
    *path, last = key.split(".")
    d = cfg
    for part in path:
        d = d.setdefault(part, {})
    d[last] = value
    return cfg


@pytest.mark.parametrize("cmd, key, value, jobs", [
    (cmd, key, value, jobs)
    for cmds, key, value in [
        (FAN_OUT, "run.init.x0", ["a", 1]),
        (FAN_OUT, "run.init.y0", [1.0, NAN]),
        (FAN_OUT, "run.init.z0", "ab"),
        (FAN_OUT, "problem.noise_a", -0.1),
        (FAN_OUT, "problem.data_seed", -1),
        (FAN_OUT, "run.seeds", [3, -1]),
        (FAN_OUT, "run.seeds.base", -2),
        (("run", "ablate"), "run.oracle_tol", -1),
        (("run", "ablate"), "run.target_eps_rel", INF),
        (("compare",), "compare.baseline_schedule", 5),
        (("compare",), "compare.baseline_schedule", ["alpha0"]),
        (("compare",), "compare.baseline_schedule.alpha0", "x"),
        (("compare",), "compare.inner_tol", 0),
        (("compare",), "run.max_iter", 0),  # a zero default budget
        (("gradcheck",), "gradcheck.threshold", NAN),
        (("gradcheck",), "gradcheck.oracle_tol", -1e-8),
        (("asymptotics",), "asymptotics.x", ["a", 1]),
        (("asymptotics",), "asymptotics.oracle_tol", INF),
        (("asymptotics",), "asymptotics.saddle_tol", 0),
        (("asymptotics",), "asymptotics.slack", -1),
        (("asymptotics",), "asymptotics.diag_slack", -1e-9),
    ] for cmd in cmds
    for jobs in (("1", "2") if cmd in FAN_OUT else (None,))])
def test_bad_values_are_config_errors_on_their_line(tmp_path, cmd, key,
                                                    value, jobs):
    # each of these was a traceback or a failed run with exit 2 or 3
    cfgp = write_cfg(tmp_path, bad_cfg(key, value))
    argv = [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv + (["--jobs", jobs] if jobs else []),
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("%s:%d: %s must be "
                                  % (cfgp, key_line(cfgp, key), key)), \
        proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("cmd", ["gradcheck", "asymptotics"])
def test_jobs_is_a_usage_error_where_nothing_fans_out(tmp_path, capsys, cmd):
    cfgp = write_cfg(tmp_path, bad_cfg("gradcheck.n_points", 2))
    assert cli.main([cmd, "--config", cfgp, "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 1
    assert "--jobs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the problem is built once per command and handed to every run task

TIME_COLUMNS = {"time_s", "mean_time_to_target_s", "std_time_to_target_s"}
PROBLEMS = {"synthetic": {"kind": "synthetic", "n": 3},
            "quadratic": {"kind": "quadratic"}, "hyper_rep": HYPER_REP}


def small_cfg(kind):
    """A small valid run/ablate/compare config for one problem kind."""
    cfg = synthetic_cfg(ablate={"grid": [{}, {"alpha0": 0.05}], "max_iter": 200},
                        compare={"budget": 600})
    cfg["problem"] = dict(PROBLEMS[kind])
    cfg["run"]["max_iter"] = 200
    if kind != "synthetic":  # a target needs a known optimum
        del cfg["run"]["target_eps_rel"]
    return cfg


def outputs(out_dir):
    """Every CSV in out_dir, wall-time columns dropped."""
    got = {}
    for name in sorted(os.listdir(out_dir)):
        header, rows = read_csv(out_dir / name)
        keep = [i for i, h in enumerate(header) if h not in TIME_COLUMNS]
        got[name] = [[r[i] for i in keep] for r in [header] + rows]
    return got


@pytest.mark.parametrize("cmd, kind", [
    (cmd, kind) for cmd in FAN_OUT for kind in sorted(PROBLEMS)
    if cmd != "ablate" or kind == "synthetic"])  # ablate needs a target
def test_jobs_flag_matches_serial_output(tmp_path, capsys, cmd, kind):
    cfgp = write_cfg(tmp_path, small_cfg(kind))
    printed = []
    for jobs in ("1", "2"):
        assert cli.main([cmd, "--config", cfgp, "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        # the printed seconds are wall-clock readings too
        printed.append(re.sub(r"\d+\.\d+(?= s\b| \+-)", "T",
                              capsys.readouterr().out))
    assert outputs(tmp_path / "1") == outputs(tmp_path / "2")
    assert printed[0] == printed[1]
    assert len(outputs(tmp_path / "1")) == {"run": 3, "ablate": 1,
                                            "compare": 2}[cmd]


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_built_problem_pickles(kind):
    bundle = cli.build_problem({"problem": PROBLEMS[kind]})
    copy = pickle.loads(pickle.dumps(bundle))
    prob, prob2 = bundle.problem, copy.problem
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.2, 3.0, prob.n_x)
        y = rng.uniform(0.2, 3.0, prob.n_y)
        for name in ("F", "f", "grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y"):
            a, b = getattr(prob, name)(x, y), getattr(prob2, name)(x, y)
            assert np.array_equal(a, b) and type(a) is type(b), name
        if bundle.metric is not None:
            assert bundle.metric(x, y) == copy.metric(x, y)
        den, den2 = bundle.eps_den(2 * x, 2 * y), copy.eps_den(2 * x, 2 * y)
        assert den == den2
        assert bundle.eps_rel(x, y, den) == copy.eps_rel(x, y, den2)
    draws = [b.sample_init(np.random.Generator(np.random.Philox(11)))
             for b in (bundle, copy)]
    assert all(np.array_equal(a, b) for a, b in zip(*draws))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cmd", FAN_OUT)
def test_problem_is_built_once_per_command(tmp_path, monkeypatch, cmd, jobs):
    # the counter lives in shared memory, so builds in workers count too
    count = multiprocessing.Value("i", 0)
    build = cli.build_problem

    def counting_build(cfg):
        with count.get_lock():
            count.value += 1
        return build(cfg)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    cfgp = write_cfg(tmp_path, small_cfg("synthetic"))
    assert cli.main([cmd, "--config", cfgp, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 0
    assert count.value == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cmd", FAN_OUT)
def test_init_projected_onto_the_optimum_is_a_config_error(
        tmp_path, monkeypatch, capsys, cmd, jobs):
    # y0 = 0 projects onto y* = e / (2 sqrt 2), and x0 is x*: eps_rel would
    # divide by zero in every run
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _NoPool)
    cfg = small_cfg("synthetic")
    cfg["problem"]["n"] = 2
    cfg["run"]["init"] = {"x0": [0.5, 0.5], "y0": [0.0, 0.0]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: run.init projects onto the known optimum (x*, y*)\n"
                   % (cfgp, key_line(cfgp, "run.init")))
    assert out == ""


class CountingDraw:
    """A sample_init that logs each call to a file, in any process."""

    def __init__(self, draw, log):
        self.draw, self.log = draw, log

    def __call__(self, rng):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write("draw\n")
        return self.draw(rng)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_start_is_drawn_once_per_seed(tmp_path, monkeypatch, jobs):
    # 2 grid rows x 2 seeds run 4 tasks from 2 starts
    log = tmp_path / "draws.log"
    build = cli.build_problem

    def counting_build(cfg):
        bundle = build(cfg)
        bundle.sample_init = CountingDraw(bundle.sample_init, str(log))
        return bundle

    monkeypatch.setattr(cli, "build_problem", counting_build)
    cfgp = write_cfg(tmp_path, small_cfg("synthetic"))
    assert cli.main(["ablate", "--config", cfgp, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 0
    assert log.read_text(encoding="utf-8").count("draw") == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cmd", FAN_OUT)
def test_init_with_several_seeds_is_a_config_error(tmp_path, monkeypatch,
                                                   capsys, cmd, jobs):
    # a fixed start makes every seed the same run
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _NoPool)
    cfg = small_cfg("synthetic")
    cfg["run"]["init"] = {"x0": [1.0, 1.0, 1.0], "y0": [1.0, 1.0, 1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: run.init fixes the start, so run.seeds must name "
                   "one run, got 2\n" % (cfgp, key_line(cfgp, "run.init")))
    assert out == ""


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_ablate_without_a_target_is_a_config_error(tmp_path, monkeypatch,
                                                   capsys, kind):
    # its table would time every run to a target it has not got
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _NoPool)
    cfg = small_cfg(kind)
    cfg["run"].pop("target_eps_rel", None)
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["ablate", "--config", cfgp, "--jobs", "2",
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: ablate needs run.target_eps_rel, the eps_rel its "
                   "runs are timed to\n" % (cfgp, key_line(cfgp, "run")))
    assert out == ""


def test_run_line_has_no_empty_parts(tmp_path, capsys):
    # without a known optimum a run has neither eps_rel nor a target
    cfgp = write_cfg(tmp_path, small_cfg("quadratic"))
    assert cli.main(["run", "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ("run 5: 200 iterations\n"
                                       "run 6: 200 iterations\n")


def test_out_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg = synthetic_cfg(out_dir=str(tmp_path / "afile" / "sub"))
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["run", "--config", cfgp]) == 1
    err = capsys.readouterr().err
    assert err.startswith("%s:%d: out_dir must name a directory, got "
                          % (cfgp, key_line(cfgp, "out_dir")))
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["run", "gradcheck"])
def test_out_flag_naming_a_file_is_a_usage_error(tmp_path, capsys, cmd):
    cfgp = write_cfg(tmp_path, bad_cfg("gradcheck.n_points", 2))
    for out in (cfgp, os.path.join(cfgp, "sub")):  # a file, a path below it
        assert cli.main([cmd, "--config", cfgp, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sipba %s: error: --out must name a directory, "
                              "got %r (" % (cmd, out))
        assert err.count("\n") == 1


def test_help_lists_each_command_with_its_docstring(capsys):
    assert cli.main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for cmd in ("run", "ablate", "gradcheck", "compare", "asymptotics"):
        assert " ".join(getattr(cli, "cmd_" + cmd).__doc__.split()) in text


# the section objects: the README describes their keys, not the objects
SECTIONS = {"problem", "schedule", "run", "run.init", "ablate", "compare",
            "gradcheck", "asymptotics"}


def readme_config_rows():
    """(dotted keys, default cell) per row of the README config reference."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read().split("### Config reference", 1)[1]
    rows = []
    for line in text.split("\n| --- |", 1)[1].splitlines()[1:]:
        if not line.startswith("|"):
            break
        first, _, default, _ = line.strip("| ").split(" | ")
        names = re.findall(r"`([^`]+)`", first)
        prefix = names[0].rpartition(".")[0]  # `problem.n_feat`, `p_dim`
        rows.append(([n if "." in n or not prefix else prefix + "." + n
                      for n in names], default))
    return rows


def test_readme_config_reference_matches_the_key_table():
    rows = readme_config_rows()
    assert ({k for keys, _ in rows for k in keys}
            == set(cli.CONFIG_KEYS) - SECTIONS)
    for keys, default in rows:
        if len(keys) != 1:
            continue
        table_default = cli.CONFIG_KEYS[keys[0]][1]
        if default == "required":
            assert table_default is cli._MISSING, keys
        elif re.fullmatch(r"`[^`]+`", default):
            try:
                value = json.loads(default[1:-1])
            except ValueError:  # an expression such as `4p + 5q`
                continue
            assert table_default == value, keys


class Counting:
    """A function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("cmd", ["run", "ablate"])
def test_relative_error_runs_once_per_step_and_row_its_denominator_once(
        tmp_path, monkeypatch, capsys, cmd):
    # the benchmark's traced synth-ablate run counts relative_error calls as
    # one per batched step plus one per final row; the denominator is formed
    # once per batch
    from sipba import solver

    rel = Counting(cli.relative_error)
    den = Counting(cli.relative_error_denominator)
    step = Counting(solver.sipba_step)
    monkeypatch.setattr(cli, "relative_error", rel)
    monkeypatch.setattr(cli, "relative_error_denominator", den)
    monkeypatch.setattr(solver, "sipba_step", step)
    cfg = synthetic_cfg(ablate={"grid": [{}, {"alpha0": 1.0}],
                                "max_iter": 20000})
    cfg["problem"]["n"] = 10
    cfg["run"].update(seeds={"base": 1000, "count": 3}, target_eps_rel=1e-4,
                      max_iter=5000)
    out = tmp_path / "out"
    assert cli.main([cmd, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    if cmd == "ablate":
        # every row stops at its target: one target call per batched step
        assert den.calls == 2
        assert rel.calls == step.calls + 2 * 3
        return
    # run: the target is checked until the last row hits; each CSV row and
    # each final reads one more
    assert den.calls == 1
    hits = [int(k) for k in re.findall(r"target at k=(\d+)",
                                       capsys.readouterr().out)]
    csv_rows = sum(len(read_csv(out / ("run_%d.csv" % s))[1])
                   for s in (1000, 1001, 1002))
    assert len(hits) == 3 and step.calls == 5000 > max(hits)
    assert rel.calls == max(hits) + csv_rows + 3
