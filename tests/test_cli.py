import csv
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sipba import cli
from sipba.smoothing import PenaltyReg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def key_line(cfgp, dotted):
    """Line of "section.key": the key's first line from its section on."""
    lines = Path(cfgp).read_text(encoding="utf-8").splitlines()
    found = 0
    for part in dotted.split("."):
        found = next(i for i in range(found, len(lines))
                     if '"%s"' % part in lines[i])
    return found + 1


# the regime warning a schedule with q = 400 gets
REGIME = ("schedule exponents outside the guaranteed regime "
          "(0<p<1, 0<q<1, 0<s<1/2)")


# keys the key table lacks, whose values are constants: each is an unknown
# key wherever a config gives it
GONE = ("run.init", "run.stop_at_target", "schedule.rho_cap", "gradcheck",
        "asymptotics.saddle_tol", "asymptotics.slack", "asymptotics.diag_slack",
        "asymptotics.x")


def rejection(cfgp, key):
    """The start of the one stderr line that rejects a bad value at the
    dotted key: "key must be ...", or for a key in or under GONE, "unknown
    <block> key" at that key's line."""
    gone = next((g for g in GONE if (key + ".").startswith(g + ".")), None)
    if gone is None:
        return "%s:%d: %s must be " % (cfgp, key_line(cfgp, key), key)
    block, _, name = gone.rpartition(".")
    return "%s:%d: unknown %s key %r\n" % (cfgp, key_line(cfgp, gone),
                                           block or "top-level", name)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def with_starts(cfg, starts):
    """cfg with run.seeds naming `starts` runs: one start, stepped as
    vectors, or a batch of two."""
    cfg["run"]["seeds"] = {"base": 5, "count": starts}
    return cfg


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
    # int() takes each of the last four; the README asks for plain digits
    for env in ("pi", "-5", "5_0", "+3", " 7", "\u0663"):
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

    # a Latin-1 byte: one line at the byte's line, no UnicodeDecodeError
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"problem": {"kind": "synthetic",\n'
                       b'             "n": 2},\n'
                       b' "out_dir": "caf\xe9"}\n')
    assert cli.main(["run", "--config", str(latin1)]) == 1
    assert capsys.readouterr().err == (
        "%s:3: config is not UTF-8: byte 0xe9 (invalid continuation byte)\n"
        % latin1)

    # json.loads recurses once per level: no RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text('{"a":' * 100000 + "1" + "}" * 100000, encoding="utf-8")
    assert cli.main(["run", "--config", str(deep)]) == 1
    assert capsys.readouterr().err == "%s:1: JSON nested too deeply\n" % deep

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{\n "problem": {\n  "kind": "nosuch"\n }\n}\n',
                       encoding="utf-8")
    assert cli.main(["run", "--config", str(unknown)]) == 1
    err = capsys.readouterr().err
    assert "nosuch" in err and ":3:" in err


@pytest.mark.parametrize("starts", [1, 2])
def test_init_length_error_exits_cleanly(tmp_path, starts):
    # a start is its seed's draw: run.init, of any length, is an unknown key
    # at its line, one stderr line and no traceback, for one seed or two
    cfg = with_starts(synthetic_cfg(), starts)
    cfg["run"]["init"] = {"x0": [2.0, 2.0, 2.0], "y0": [1.0, 1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "run", "--config", cfgp,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("%s:%d: unknown run key 'init'\n"
                           % (cfgp, key_line(cfgp, "run.init")))
    assert proc.stdout == ""


def test_init_length_checked_for_every_block(tmp_path, capsys):
    # every command that runs rejects a run.init block, z0 included
    cfg = synthetic_cfg()
    cfg["run"]["init"] = {"x0": [2.0, 2.0], "y0": [1.0, 1.0], "z0": [1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "ablate", "compare"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", "%s:%d: unknown run key 'init'\n"
                                       % (cfgp, key_line(cfgp, "run.init")))


def test_large_integers_are_config_errors(tmp_path, monkeypatch, capsys):
    # an integer with more digits than int() converts: json.loads raises a
    # ValueError, which is one line at the integer's line; digits in a
    # string are no integer
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    cfgp = tmp_path / "big.json"
    cfgp.write_text('{"out_dir": "%s",\n "problem": {"kind": "synthetic",\n'
                    '             "n": %s}}\n' % (digits, digits),
                    encoding="utf-8")
    assert cli.main(["gradcheck", "--config", str(cfgp)]) == 1
    assert capsys.readouterr() == ("", "%s:3: integer longer than %d digits\n"
                                   % (cfgp, sys.get_int_max_str_digits()))
    # SIPBA_SEED too: int() would raise where the digits pass the regex
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    monkeypatch.setenv("SIPBA_SEED", digits)
    assert cli.main(["run", "--config", cfgp,
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", "%s:%d: SIPBA_SEED must be an integer "
                                   ">= 0, got %r\n" % (
                                       cfgp, key_line(cfgp, "run.seeds"),
                                       digits))


def test_argparse_exit_codes(capsys):
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0
    assert cli.main(["frobnicate", "--config", "x"]) == 1
    capsys.readouterr()
    # every command runs in one process, so --jobs takes only 1; it is
    # checked before the config is read
    for cmd in ("run", "ablate", "compare"):
        for jobs in ("0", "-3", "2", str(10**20)):
            assert cli.main([cmd, "--config", "x", "--jobs", jobs]) == 1
            assert capsys.readouterr().err == (
                "sipba %s: error: --jobs must be 1, got %r: every command "
                "runs in one process\n" % (cmd, jobs))


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


def test_a_grid_row_does_not_depend_on_the_rows_beside_it(tmp_path, capsys):
    # ablate steps all its (grid row, seed) runs as one batch: grid rows 0
    # and 1 each alone and side by side have the same ablation.csv row but
    # for the two time-to-target columns (and row 1's row_id); row 1's runs
    # read the seeds' denominators from the batch's second tile of starts
    cfg = synthetic_cfg(problem={"kind": "synthetic", "n": 10})
    cfg["run"].update(seeds={"base": 1000, "count": 3}, target_eps_rel=1e-4)
    tables = []
    for i, grid in enumerate(([{}], [{"alpha0": 1.0}],
                              [{}, {"alpha0": 1.0}])):
        cfg["ablate"] = {"max_iter": 20000, "grid": grid}
        out = tmp_path / str(i)
        assert cli.main(["ablate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == 0
        tables.append(outputs(out)["ablation.csv"])
    alone, alone_1, beside = tables
    assert len(beside) == 3 and alone == beside[:2]
    assert alone_1[0] == beside[0] and alone_1[1][0] == "0"
    assert alone_1[1][1:] == beside[2][1:] and beside[2][0] == "1"
    assert alone[1][8:10] == alone_1[1][8:10] == ["3", "3"]  # runs, valid
    capsys.readouterr()


def test_ablate_reports_each_failed_run(tmp_path, capsys):
    # sigma_k = 0.01 * k^-400 rounds to 0 at k=7: both runs of grid row 1
    # fail, and each gets its FAILED line after its row, as run reports it
    cfg = synthetic_cfg(problem={"kind": "synthetic", "n": 5})
    cfg["run"]["target_eps_rel"] = 1e-4
    cfg["ablate"] = {"grid": [{}, {"q": 400.0}], "max_iter": 50}
    cfgp = write_cfg(tmp_path, cfg)
    code = cli.main(["ablate", "--config", cfgp, "--out",
                     str(tmp_path / "out")])
    assert code == 0  # row 0's runs completed
    why = ("schedule left the float range at k=7: rho_k=%r, sigma_k=0.0"
           % (10.0 * 7.0**0.001))
    out, err = capsys.readouterr()
    # grid row 1's q is out of the regime: one warning, on that row's line
    assert err == "%s:%d: warning: %s\n" % (
        cfgp, key_line(cfgp, "ablate.grid.q"), REGIME)
    lines = out.splitlines()
    assert lines[0].startswith("row  0: ") and "valid 0/2" in lines[0]
    assert lines[1].startswith("row  1: ") and "valid 0/2" in lines[1]
    assert lines[2:] == ["row 1 seed %d: FAILED (%s)" % (s, why)
                         for s in (5, 6)]
    header, rows = read_csv(tmp_path / "out" / "ablation.csv")
    assert header == cli.ABLATE_COLUMNS and len(rows) == 2


def test_regime_warning_is_one_line_on_its_config_line(tmp_path):
    # it once named the line of cli.py that built the schedule, and echoed
    # that source line
    cfg = synthetic_cfg(problem={"kind": "synthetic", "n": 5})
    cfg["run"]["target_eps_rel"] = 1e-4
    cfg["ablate"] = {"grid": [{}, {"q": 400.0}], "max_iter": 50}
    cfgp = write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "sipba.cli", "ablate",
         "--config", cfgp, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == "%s:%d: warning: %s\n" % (
        cfgp, key_line(cfgp, "ablate.grid.q"), REGIME)


def test_ablate_rejects_unknown_override(tmp_path):
    cfg = synthetic_cfg()
    cfg["ablate"] = {"grid": [{"gamma": 1.0}]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["ablate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_null_schedule_fields_take_their_defaults(tmp_path):
    # override fields given as null behave as absent: they keep the
    # schedule block's value; the block's own fields are required
    base = synthetic_cfg()["schedule"]
    want = cli.build_schedule({"schedule": base})
    cfg = {"schedule": base}
    assert cli._schedule(cfg, {"alpha0": None}, "ablate.grid") == want
    cfg = synthetic_cfg(compare={"budget": 60,
                                 "baseline_schedule": {"alpha0": None}})
    cfg["ablate"] = {"grid": [{"s": None}], "max_iter": 10}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "ablate", "compare"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / cmd)]) == 0
    with pytest.raises(cli.ConfigError, match="'schedule.alpha0'"):
        cli.build_schedule({"schedule": dict(base, alpha0=None)})


def test_the_schedule_block_needs_its_seven_fields(tmp_path, capsys):
    # one rule for run, ablate and compare: a schedule block without s is
    # a config error at the block's line, also where every ablate.grid row
    # and compare.baseline_schedule set s
    cfg = synthetic_cfg(compare={"budget": 60,
                                 "baseline_schedule": {"s": 0.1}})
    del cfg["schedule"]["s"]
    cfg["ablate"] = {"grid": [{"s": 0.1}, {"s": 0.2}], "max_iter": 10}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "ablate", "compare"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / cmd)]) == 1
        assert capsys.readouterr() == ("", "%s:%d: missing required key "
                                       "'schedule.s'\n"
                                       % (cfgp, key_line(cfgp, "schedule")))


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    assert cli.main(["gradcheck", "--config", cfgp, "--out", str(out)]) == 0
    header, rows = read_csv(out / "gradcheck.csv")
    assert header == ["gradient", "max_rel_err", "threshold", "passed"]
    names = [r[0] for r in rows]
    assert names == ["grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y", "grad_phi"]
    assert all(r[2] == "0.0001" and r[3] == "True" for r in rows)
    text = capsys.readouterr().out
    assert text.startswith("gradient check over 20 points (h=1e-05):\n")
    assert "(rho=10, sigma=0.1)" in text
    assert text.endswith("gradcheck passed (threshold 0.0001)\n")


def test_gradcheck_threshold_violation_exit_code(tmp_path, monkeypatch,
                                                 capsys):
    # grad_f_y 0.1% too large fails the threshold 1e-4: exit 3, its CSV row
    # says so, and stderr names it
    build = cli.build_problem

    def skewed(cfg):
        bundle = build(cfg)
        g = bundle.problem.grad_f_y
        bundle.problem = dataclasses.replace(
            bundle.problem, grad_f_y=lambda x, y: 1.001 * g(x, y))
        return bundle

    monkeypatch.setattr(cli, "build_problem", skewed)
    out = tmp_path / "o"
    assert cli.main(["gradcheck", "--config", write_cfg(tmp_path,
                                                         synthetic_cfg()),
                     "--out", str(out)]) == 3
    _, rows = read_csv(out / "gradcheck.csv")
    passed = {r[0]: r[3] for r in rows}
    assert passed["grad_f_y"] == "False" and passed["grad_F_y"] == "True"
    err = capsys.readouterr().err
    assert err.startswith("gradcheck FAILED above threshold 0.0001: ")
    assert "grad_f_y" in err and err.count("\n") == 1


def test_gradcheck_oracle_failure_is_one_line(tmp_path, monkeypatch, capsys):
    # grad phi at rho = 1e300: the oracle's iterates overflow; numpy's
    # overflow warnings stay off, and the failure is one stderr line, exit 2
    monkeypatch.setattr(cli, "PenaltyReg",
                        lambda rho, sigma: PenaltyReg(1e300, sigma))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(["gradcheck", "--config",
                         write_cfg(tmp_path, synthetic_cfg()),
                         "--out", str(tmp_path / "o")])
    assert code == 2 and seen == []
    assert capsys.readouterr().err == ("gradcheck: oracle failure: oracle "
                                       "diverged even after step backoff\n")


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


def test_compare_baseline_starts_at_the_oracle_default(tmp_path, capsys):
    # the README synthetic instance: from the run's (y0, z0) the baseline's
    # first inner solve spends the whole budget without converging and ends
    # at eps_rel 0.46; from the oracle's default start it reaches 1e-6
    cfg = synthetic_cfg(problem={"kind": "synthetic", "n": 100},
                        run={"max_iter": 20000, "seeds": [1000],
                             "stride": 100},
                        compare={"budget": 120000})
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = read_csv(out / "compare_1000.csv")
    base = [r for r in rows if r[0] == "baseline"]
    assert base[-1][5] == "eps_rel" and float(base[-1][6]) < 1e-4
    assert len(base) > 1000  # outer iterations
    capsys.readouterr()


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


@pytest.mark.parametrize("starts", [1, 2])
def test_failed_run_stderr_has_no_numpy_warnings(tmp_path, starts):
    # in a fresh interpreter with numpy's default error handling, the
    # FAILED lines are the whole report
    cfg = dict(DIVERGING_BASELINE,
               run=dict(DIVERGING_BASELINE["run"], seeds=[42, 43][:starts]))
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "compare", "--config",
         write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == starts
    assert all(text.startswith("run %d: FAILED (baseline: " % s)
               for s, text in zip((42, 43), lines))
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("cmd, block", [
    ("asymptotics", {"rho_list": [1e300], "sigma_list": [0.1]})])
def test_oracle_failure_stderr_is_one_line(tmp_path, cmd, block):
    # at rho = 1e300 the oracle's iterates overflow: numpy's overflow
    # warnings stay off, and its failure is the command's one stderr line
    cfgp = write_cfg(tmp_path, {"problem": {"kind": "synthetic", "n": 4},
                                cmd: block})
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "sipba.cli", cmd, "--config",
         cfgp, "--out", str(tmp_path / "out")], capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("%s: oracle failure: oracle diverged even after "
                           "step backoff\n" % cmd)


def test_asymptotics_tables_and_monotone_gaps(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "synthetic", "n": 2},
        "schedule": {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0,
                     "sigma0": 0.01, "p": 0.001, "q": 0.001, "s": 0.1},
        "asymptotics": {"rho_list": [10.0, 100.0, 1000.0, 10000.0],
                        "sigma_list": [0.1, 0.01, 0.001, 0.0001],
                        "oracle_tol": 1e-9},
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


@pytest.mark.parametrize("flip, line", [
    ("lower_bounds_ok", "lower bound violated by %.3e"),
    ("diagonal_monotone", "diagonal gaps not monotone")],
    ids=["lower-bound", "diagonal"])
def test_asymptotics_failure_is_exit_code_3_and_one_line(
        tmp_path, monkeypatch, capsys, flip, line):
    # the real report with one verdict flipped: the command names it on
    # stderr and exits 3
    real, reps = cli.sandwich_check, []

    def flipped(*args, **kwargs):
        reps.append(dataclasses.replace(real(*args, **kwargs), **{flip: False}))
        return reps[-1]

    monkeypatch.setattr(cli, "sandwich_check", flipped)
    cfgp = write_cfg(tmp_path, {
        "problem": {"kind": "synthetic", "n": 2},
        "asymptotics": {"rho_list": [10.0, 100.0, 1000.0, 10000.0],
                        "sigma_list": [0.1, 0.01, 0.001, 0.0001]}})
    assert cli.main(["asymptotics", "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 3
    rep, = reps
    if "%" in line:
        line %= rep.max_lower_violation
    assert capsys.readouterr().err == "asymptotics FAILED: %s\n" % line


def test_asymptotics_needs_closed_form(tmp_path):
    cfg = {"problem": {"kind": "quadratic"}, "asymptotics": {}}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["asymptotics", "--config", cfgp,
                     "--out", str(tmp_path / "o")]) == 1


def test_python_m_sipba_cli_runs_a_config(tmp_path):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", "run", "--config", cfgp,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "run_5.csv").exists()


@pytest.mark.parametrize("starts", [1, 2])
@pytest.mark.parametrize("cmd, case, value", [
    ("run", "run.stride", 0), ("run", "run.max_iter", -1),
    ("ablate", "ablate.max_iter", -1), ("compare", "compare.budget", 5),
    ("run", "problem.n", 1)])
def test_out_of_range_counts_exit_cleanly(tmp_path, cmd, case, value, starts):
    cfg = with_starts(synthetic_cfg(ablate={"grid": [{}]}), starts)
    section, key = case.split(".")
    cfg.setdefault(section, {})[key] = value
    cfgp = write_cfg(tmp_path, cfg)
    line = key_line(cfgp, case)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
         "--out", str(tmp_path / "out")],
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
    warning = "%s:%d: warning: %s\n" % (cfgp, key_line(cfgp, "schedule"),
                                        REGIME)
    for cmd in ("run", "compare"):
        code = cli.main([cmd, "--config", cfgp, "--out", str(tmp_path / cmd)])
        assert code == 2
        out, err = capsys.readouterr()
        # compare builds two schedules from the block, its own and the
        # baseline's, and warns once
        assert err == warning
        out = out.splitlines()
        for seed, text in zip((5, 6), out):
            assert text.startswith("run %d: FAILED (" % seed), text
            assert "k=7" in text and "sigma_k=0.0" in text
    # ablate's grid rows both take q from the block: one warning too
    cfg["ablate"] = {"grid": [{}, {"alpha0": 0.05}], "max_iter": 20}
    cfgp = write_cfg(tmp_path, cfg)
    cli.main(["ablate", "--config", cfgp, "--out", str(tmp_path / "ablate")])
    assert capsys.readouterr().err == warning
    # the double-loop arm of compare fails the same way
    cfg["schedule"]["q"] = 0.001
    cfg["compare"] = {"budget": 3000, "inner_tol": 0.1,
                      "baseline_schedule": {"q": 400.0}}
    cfgp = write_cfg(tmp_path, cfg)
    code = cli.main(["compare", "--config", cfgp,
                     "--out", str(tmp_path / "baseline")])
    assert code == 2
    out, err = capsys.readouterr()
    assert err == "%s:%d: warning: %s\n" % (
        cfgp, key_line(cfgp, "compare.baseline_schedule.q"), REGIME)
    out = out.splitlines()
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
    # without checking anything; gradcheck takes no block, so a gradcheck
    # value is an unknown key
    cfg = synthetic_cfg(asymptotics={"rho_list": [10.0], "sigma_list": [0.1]})
    section, key = case.split(".")
    cfg.setdefault(section, {})[key] = value
    cfgp = write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(rejection(cfgp, case)), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # rejected before any report is printed


@pytest.fixture
def no_runs(monkeypatch):
    """Makes solver.run, where every run of run, ablate and compare starts,
    raise: a config error must be reported before the first one starts."""
    def reached(*args, **kwargs):
        raise RuntimeError("a run was started")

    monkeypatch.setattr(cli, "run", reached)


@pytest.mark.parametrize("cmd, patch, key, message", [
    ("run", {"run": {"stride": 0}}, "run.stride",
     "run.stride must be >= 1, got 0"),
    # a fixed start is no key
    ("run", {"run": {"init": {"x0": [1.0], "y0": [1.0, 1.0]}}}, "run.init",
     "unknown run key 'init'"),
    ("run", {"problem": {"kind": "quadratic"}}, "target_eps_rel",
     "target_eps_rel needs a problem with a known optimum"),
    ("compare", {"compare": {"budget": 5}}, "compare.budget",
     "compare.budget must be >= 6, got 5"),
    # an unknown override is reported on its own line
    ("ablate", {"ablate": {"grid": [{}, {"gamma": 1.0}]}}, "grid.gamma",
     "unknown schedule override 'gamma'"),
    ("compare", {"compare": {"baseline_schedule": {"gamma": 1.0}}},
     "compare.baseline_schedule.gamma", "unknown schedule override 'gamma'"),
    ("run", {"run": {"target_eps": 0.5}}, "run.target_eps",
     "unknown run key 'target_eps'"),
    ("compare", {"run": {"init": {"x0": [1.0, 1.0], "y0": [1.0, 1.0],
                                  "z_0": [1.0, 1.0]}}},
     "run.init", "unknown run key 'init'"),
    # a key the config key table lacks is an error in every block and at
    # the top level, for every command, not a silent default
    ("compare", {"compare": {"budgt": 600}}, "compare.budgt",
     "unknown compare key 'budgt'"),
    ("run", {"problem": {"nn": 3}}, "problem.nn", "unknown problem key 'nn'"),
    ("compare", {"gradcheck": {"threshhold": 1e-30}}, "gradcheck",
     "unknown top-level key 'gradcheck'"),
    ("ablate", {"asymptotics": {"rho": 10.0}}, "asymptotics.rho",
     "unknown asymptotics key 'rho'"),
    ("run", {"run": {"seeds": {"base": 5, "cnt": 2}}}, "run.seeds.cnt",
     "unknown run.seeds key 'cnt'"),
    ("ablate", {"ablate": {"maxiter": 10}}, "ablate.maxiter",
     "unknown ablate key 'maxiter'"),
    ("run", {"asymptotic": {"rho_list": [10.0]}}, "asymptotic",
     "unknown top-level key 'asymptotic'"),
    # a schedule is its seven coefficients and rho_cap: s is not derived
    # from a flag, and t = 4p + 5q is not set by hand
    ("run", {"schedule": {"guideline": True}}, "schedule.guideline",
     "unknown schedule key 'guideline'"),
    ("compare", {"schedule": {"t_exp": 2}}, "schedule.t_exp",
     "unknown schedule key 't_exp'"),
    ("compare", {"compare": {"baseline_schedule": {"t_exp": 2}}},
     "compare.baseline_schedule.t_exp", "unknown schedule override 't_exp'"),
    # a schedule is the paper's seven coefficients: rho_k's cap is fixed
    ("ablate", {"ablate": {"grid": [{}, {"rho_cap": 1e6}]}}, "grid.rho_cap",
     "unknown schedule override 'rho_cap'"),
], ids=["stride", "init", "target", "budget", "override", "baseline",
        "run-key", "init-key", "compare-key", "problem-key", "gradcheck-key",
        "asymptotics-key", "seeds-key", "ablate-key", "top-level-key",
        "guideline-key", "t_exp-key", "t_exp-override", "rho_cap-override"])
def test_bad_config_never_reaches_the_pool(tmp_path, no_runs, capsys,
                                           cmd, patch, key, message):
    # the name predates the deletion of the process pool: a bad config is
    # rejected before any run starts
    cfg = synthetic_cfg(ablate={"grid": [{}, {"alpha0": 0.05}], "max_iter": 10})
    # the patch is live: a good config does start a run
    with pytest.raises(RuntimeError, match="a run was started"):
        cli.main([cmd, "--config", write_cfg(tmp_path, cfg, "good.json"),
                  "--out", str(tmp_path / "good")])
    capsys.readouterr()
    for section, values in patch.items():
        cfg.setdefault(section, {}).update(values)
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp,
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


# lines 1-3 of a synthetic config
CFG_HEAD = ('{"problem": {"kind": "synthetic", "n": 2},\n'
            ' "schedule": {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0,\n'
            '  "sigma0": 0.01, "p": 0.001, "q": 0.001, "s": 0.1},\n')


def test_grid_row_error_is_on_that_rows_line(tmp_path, capsys):
    # an earlier grid row holds the same key: the bad value is on line 8
    cfgp = tmp_path / "grid.json"
    for row, message in [
            ('{"alpha0": "x"}',
             "ablate.grid.alpha0 must be a positive finite number, got 'x'"),
            ('{"beta0": -0.01}',
             "ablate.grid.beta0 must be a positive finite number, got -0.01")]:
        cfgp.write_text(CFG_HEAD +
                        ' "run": {"max_iter": 10, "target_eps_rel": 0.5},\n'
                        ' "ablate": {"max_iter": 10,\n'
                        '            "grid": [{"alpha0": 0.05},\n'
                        '                     {"beta0": 0.01},\n'
                        '                     %s]}}\n' % row,
                        encoding="utf-8")
        assert cli.main(["ablate", "--config", str(cfgp),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "%s:8: %s\n" % (cfgp, message)


@pytest.mark.parametrize("run_block", [
    # on lines 4-5, without max_iter, which a later block has
    ' "run": {"seeds": {"base": 0, "count": 1},\n         "stride": 5},\n',
    # null on line 4: the default block, whose errors are on that line
    ' "run": null,\n\n'])
def test_missing_key_error_is_on_its_blocks_line(tmp_path, capsys,
                                                 run_block):
    cfgp = tmp_path / "missing.json"
    cfgp.write_text(CFG_HEAD + run_block +
                    ' "ablate": {"max_iter": 10, "grid": [{}]}}\n',
                    encoding="utf-8")
    assert cli.main(["run", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "%s:4: missing required key 'run.max_iter'\n" % cfgp)


HYPER_REP = {"kind": "hyper_rep", "n_feat": 3, "p_dim": 2, "m1": 5, "m2": 5,
             "m_test": 5, "noise_a": 0.1, "data_seed": 1}
NAN, INF = float("nan"), float("inf")
RUNS = ("run", "ablate", "compare")  # the commands that step starts


@pytest.mark.parametrize("problem, message", [
    ({"kind": "synthetic", "n": 10**20}, "Maximum allowed dimension exceeded"),
    (dict(HYPER_REP, n_feat=10**10, p_dim=10**10), "array is too big"),
], ids=["synthetic", "hyper_rep"])
def test_problem_too_large_is_a_config_error(tmp_path, capsys, problem,
                                             message):
    # sizes numpy rejects before it allocates: what these fail with does
    # not depend on the allocator
    cfg = synthetic_cfg(problem=problem)
    cfg["ablate"] = {"grid": [{}], "max_iter": 10}
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in RUNS + ("gradcheck",):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "%s:%d: problem too large to allocate: %s"
            % (cfgp, key_line(cfgp, "problem"), message)), err
        assert err.count("\n") == 1


def bad_cfg(key, value, starts=2):
    """A small valid config for every command, with `starts` seeds and one
    dotted key set."""
    cfg = synthetic_cfg(ablate={"grid": [{}], "max_iter": 10},
                        compare={"budget": 60},
                        asymptotics={"rho_list": [10.0], "sigma_list": [0.1]})
    with_starts(cfg, starts)
    if key.startswith("problem."):
        cfg["problem"] = dict(HYPER_REP)
        del cfg["run"]["target_eps_rel"]
    if key == "run.max_iter":  # compare's budget defaults to 6 * max_iter
        del cfg["compare"]["budget"]
    *path, last = key.split(".")
    d = cfg
    for part in path:
        d = d.setdefault(part, {})
    d[last] = value
    return cfg


@pytest.mark.parametrize("cmd, key, value, starts", [
    (cmd, key, value, starts)
    for cmds, key, value in [
        (RUNS, "run.init.x0", ["a", 1]),
        (RUNS, "run.init.y0", [1.0, NAN]),
        (RUNS, "run.init.z0", "ab"),
        (RUNS, "problem.noise_a", -0.1),
        (RUNS, "problem.data_seed", -1),
        (RUNS, "run.seeds", [3, -1]),
        (RUNS, "run.seeds.base", -2),
        (("run",), "run.oracle_tol", -1),
        (("compare",), "run.stride", 0),  # read by run and compare alone
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
        # a schedule field outside its range, on its own line
        (RUNS, "schedule.s", -0.1),
        (RUNS, "schedule.rho_cap", 0),
        (("compare",), "compare.baseline_schedule.rho0", 0),
    ] for cmd in cmds
    # one start, stepped as vectors, and a batch of two
    for starts in ((1, 2) if cmd in RUNS else (None,))])
def test_bad_values_are_config_errors_on_their_line(tmp_path, cmd, key,
                                                    value, starts):
    # each of these was a traceback or a failed run with exit 2 or 3; a key
    # in GONE is an unknown key, whatever its value
    cfgp = write_cfg(tmp_path, bad_cfg(key, value, starts or 2))
    proc = subprocess.run(
        [sys.executable, "-m", "sipba.cli", cmd, "--config", cfgp,
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(rejection(cfgp, key)), proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("key, value", [("run.stride", 0),
                                        ("run.oracle_tol", -1)])
def test_ablate_ignores_the_diagnostics_keys(tmp_path, capsys, key, value):
    # ablate runs no diagnostics callback, so it reads neither key: a value
    # run rejects changes no exit code, printed line or non-time cell of it
    cfg = synthetic_cfg(ablate={"grid": [{}, {"alpha0": 0.05}],
                                "max_iter": 2000})
    got = []
    for name in ("good", "bad"):
        if name == "bad":
            section, last = key.split(".")
            cfg[section][last] = value
        assert cli.main(["ablate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path / name)]) == 0
        got.append((masked(capsys.readouterr().out),
                    outputs(tmp_path / name)))
    assert got[0] == got[1]
    assert [r[9] for r in got[0][1]["ablation.csv"][1:]] == ["2", "2"]


@pytest.mark.parametrize("cmd", ["gradcheck", "asymptotics"])
def test_jobs_is_a_usage_error_where_nothing_fans_out(tmp_path, capsys, cmd):
    cfgp = write_cfg(tmp_path, synthetic_cfg())
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


def masked(text):
    """Printed lines with their seconds, wall-clock readings, masked."""
    return re.sub(r"\d+\.\d+(?= s\b| \+-)", "T", text).splitlines()


@pytest.mark.parametrize("cmd, kind", [
    (cmd, kind) for cmd in ("run", "compare") for kind in sorted(PROBLEMS)])
def test_one_process_matches_a_process_per_seed(tmp_path, monkeypatch, capsys,
                                                cmd, kind):
    # the parallel-seeds recipe: one command per SIPBA_SEED, each with one
    # seed, writes the runs of one two-seed command; hyper-rep's X^T H memo
    # must not carry over from one seed's runs to the next
    cfg = small_cfg(kind)
    assert cli.main([cmd, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "one")]) == 0
    together = [text for text in masked(capsys.readouterr().out)
                if text.startswith("run ")]  # run's summary lines span seeds
    cfg["run"]["seeds"]["count"] = 1
    cfgp = write_cfg(tmp_path, cfg, "seed.json")
    apart = []
    for seed in (5, 6):
        monkeypatch.setenv("SIPBA_SEED", str(seed))
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / str(seed))]) == 0
        apart += masked(capsys.readouterr().out)[:1]
    assert together == apart and len(apart) == 2
    for seed in (5, 6):
        name = "%s_%d.csv" % (cmd, seed)
        got = outputs(tmp_path / str(seed))[name]
        assert got == outputs(tmp_path / "one")[name] and len(got) > 2


@pytest.mark.parametrize("problem", [
    {"kind": "synthetic", "n": 10}, HYPER_REP], ids=["synthetic", "hyper_rep"])
def test_compare_batch_matches_a_process_per_seed(tmp_path, monkeypatch,
                                                  capsys, problem):
    # one compare steps its three seeds' single-loop arms as one (3, n)
    # block, then runs each seed's baseline; three one-seed commands step
    # each start as vectors. The printed lines and every compare_<seed>.csv
    # cell but time_s agree, and a sipba row's grad_evals is 6 per step
    cfg = small_cfg("synthetic")
    cfg["problem"], cfg["run"]["stride"] = problem, 20
    cfg["run"]["seeds"]["count"] = 3
    assert cli.main(["compare", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "one")]) == 0
    together = capsys.readouterr().out.splitlines()
    cfg["run"]["seeds"]["count"] = 1
    cfgp = write_cfg(tmp_path, cfg, "seed.json")
    apart = []
    for seed in (5, 6, 7):
        monkeypatch.setenv("SIPBA_SEED", str(seed))
        assert cli.main(["compare", "--config", cfgp,
                         "--out", str(tmp_path / str(seed))]) == 0
        apart += capsys.readouterr().out.splitlines()
    assert together == apart and len(apart) == 3
    for seed in (5, 6, 7):
        name = "compare_%d.csv" % seed
        assert outputs(tmp_path / str(seed)) == {
            name: outputs(tmp_path / "one")[name]}
        _, rows = read_csv(tmp_path / "one" / name)
        sipba = [r for r in rows if r[0] == "sipba"]
        assert len(sipba) == 5 and len(rows) > len(sipba)
        assert all(int(r[3]) == 6 * int(r[2]) for r in sipba)


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_built_problem_pickles(kind):
    prob = cli.build_problem({"problem": PROBLEMS[kind]}).problem
    names = ("F", "f", "grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y")
    rng = np.random.default_rng(3)
    # one call each first: the copy carries whatever the callables keep
    # (hyper-rep's X^T H for the last x) and must still agree elsewhere
    x = rng.uniform(0.2, 3.0, prob.n_x)
    y = rng.uniform(0.2, 3.0, prob.n_y)
    for name in names:
        getattr(prob, name)(x, y)
    prob2 = pickle.loads(pickle.dumps(prob))
    assert (prob2.n_x, prob2.n_y) == (prob2.set_X.dim, prob2.set_Y.dim)
    for _ in range(5):
        x = rng.uniform(0.2, 3.0, prob.n_x)
        y = rng.uniform(0.2, 3.0, prob.n_y)
        for name in names:
            a, b = getattr(prob, name)(x, y), getattr(prob2, name)(x, y)
            assert np.array_equal(a, b) and type(a) is type(b), name


@pytest.mark.parametrize("starts", [1, 2])
@pytest.mark.parametrize("cmd", RUNS)
def test_problem_is_built_once_per_command(tmp_path, monkeypatch, cmd, starts):
    build = Counting(cli.build_problem)
    monkeypatch.setattr(cli, "build_problem", build)
    cfgp = write_cfg(tmp_path, with_starts(small_cfg("synthetic"), starts))
    assert cli.main([cmd, "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 0
    assert build.calls == 1


@pytest.mark.parametrize("starts", [1, 2])
@pytest.mark.parametrize("cmd", RUNS)
def test_init_projected_onto_the_optimum_is_a_config_error(
        tmp_path, no_runs, capsys, cmd, starts):
    # y0 = 0 projects onto y* = e / (2 sqrt 2), and x0 is x*: eps_rel would
    # divide by zero in every run. A start is its seed's draw, and run.init
    # is no key: it is rejected before any run, as any fixed start is
    cfg = with_starts(small_cfg("synthetic"), starts)
    cfg["problem"]["n"] = 2
    cfg["run"]["init"] = {"x0": [0.5, 0.5], "y0": [0.0, 0.0]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: unknown run key 'init'\n"
                   % (cfgp, key_line(cfgp, "run.init")))
    assert out == ""


@pytest.mark.parametrize("starts", [1, 2])
def test_each_start_is_drawn_once_per_seed(tmp_path, monkeypatch, starts):
    # 2 grid rows x `starts` seeds run 2 * starts runs from `starts` starts
    build, draws = cli.build_problem, []

    def counting_build(cfg):
        bundle = build(cfg)
        draws.append(Counting(bundle.sample_init))
        bundle.sample_init = draws[-1]
        return bundle

    monkeypatch.setattr(cli, "build_problem", counting_build)
    cfgp = write_cfg(tmp_path, with_starts(small_cfg("synthetic"), starts))
    assert cli.main(["ablate", "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 0
    assert [d.calls for d in draws] == [starts]


@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("cmd", RUNS)
def test_init_with_several_seeds_is_a_config_error(tmp_path, no_runs, capsys,
                                                   cmd, extra):
    # a fixed start would make every seed the same run; run.init is no key,
    # so each seed runs from its own draw
    cfg = with_starts(small_cfg("synthetic"), 1 + extra)
    cfg["run"]["init"] = {"x0": [1.0, 1.0, 1.0], "y0": [1.0, 1.0, 1.0]}
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main([cmd, "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: unknown run key 'init'\n"
                   % (cfgp, key_line(cfgp, "run.init")))
    assert out == ""


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_ablate_without_a_target_is_a_config_error(tmp_path, no_runs,
                                                   capsys, kind):
    # its table would time every run to a target it has not got
    cfg = small_cfg(kind)
    cfg["run"].pop("target_eps_rel", None)
    cfgp = write_cfg(tmp_path, cfg)
    assert cli.main(["ablate", "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err == ("%s:%d: ablate needs run.target_eps_rel, the eps_rel its "
                   "runs are timed to\n" % (cfgp, key_line(cfgp, "run")))
    assert out == ""


@pytest.mark.parametrize("kind", ["quadratic", "synthetic"])
def test_stop_at_target_without_a_target_is_a_config_error(tmp_path, capsys,
                                                           kind):
    # the run would have nothing to stop at and run to max_iter; run never
    # stops at its target and ablate always does, so stop_at_target is no
    # key, for either
    cfg = small_cfg(kind)
    cfg["run"].pop("target_eps_rel", None)
    cfg["run"]["stop_at_target"] = True
    cfgp = write_cfg(tmp_path, cfg)
    for cmd in ("run", "ablate"):
        assert cli.main([cmd, "--config", cfgp,
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "%s:%d: unknown run key "
                                       "'stop_at_target'\n" % (
                                           cfgp, key_line(
                                               cfgp, "run.stop_at_target")))


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
    cfgp = write_cfg(tmp_path, synthetic_cfg())
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
SECTIONS = {"problem", "schedule", "run", "ablate", "compare", "asymptotics"}


# keys whose README row spells out their values, or a second form that the
# reader takes besides the table's kind
SPELLED_OUT = {"problem.kind", "run.seeds"}


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_config_rows():
    """(dotted keys, "kind and range" cell, default cell, "read by" cell)
    per row of the README config reference."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split("### Config reference", 1)[1]
    rows = []
    for line in text.split("\n| --- |", 1)[1].splitlines()[1:]:
        if not line.startswith("|"):
            break
        first, kind, default, read_by = line.strip("| ").split(" | ")
        names = re.findall(r"`([^`]+)`", first)
        prefix = names[0].rpartition(".")[0]  # `problem.n_feat`, `p_dim`
        rows.append(([n if "." in n or not prefix else prefix + "." + n
                      for n in names], kind, default, read_by))
    return rows


def kind_pattern(kind, low):
    """A regex for how the README states a key of kind `kind` with the
    inclusive lower bound `low`: "integer >= 1", "positive", "number", ..."""
    if kind.endswith("[]"):
        item = {"num": "numbers", "pos": "positive numbers", "int": "integers",
                "dict": "objects"}[kind[:-2]]
        return r"list of [^,;]*\b%s" % item
    word = {"int": "integer", "num": "number", "pos": "positive",
            "str": "string", "dict": "object"}[kind]
    # a number without a bound must not read as one with a bound
    return re.escape(word) + (r"(?! >=)" if low is None else " >= %g" % low)


def test_readme_config_reference_matches_the_key_table():
    rows = readme_config_rows()
    assert ({k for keys, *_ in rows for k in keys}
            == set(cli.CONFIG_KEYS) - SECTIONS)
    for keys, kind_cell, default, _ in rows:
        for key in set(keys) - SPELLED_OUT:
            kind, _, low = cli.CONFIG_KEYS[key]
            assert re.search(kind_pattern(kind, low), kind_cell), (key,
                                                                   kind_cell)
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


def test_readme_csv_schemas_are_the_written_headers():
    # the tests that read a CSV compare its header with these lists
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split("CSV schemas", 1)[1]
    schemas = dict(re.findall(r"^- `([^`]+)`: `([^`]+)`", text, re.M))
    for name, columns in [("run_<seed>.csv", cli.RUN_COLUMNS),
                          ("summary.csv", cli.SUMMARY_COLUMNS),
                          ("ablation.csv", cli.ABLATE_COLUMNS),
                          ("compare_<seed>.csv", cli.COMPARE_COLUMNS)]:
        assert schemas[name].split(", ") == columns, name


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
    # once per command, over its seeds' starts
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
        # one batch of both grid rows; every row stops at its target: one
        # target call per batched step
        assert den.calls == 1
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
