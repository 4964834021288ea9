"""Smoke test: the demos run to completion against the package in src/.

saddle_oracle.py is a script; the other demos are configs for one command
each. The run and asymptotics configs run; the ablate and compare configs,
which take seconds to minutes, are checked without running a solver.
"""

import os
import subprocess
import sys

import pytest

from sipba import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def run_python(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, cwd=tmp_path, env=env,
                          capture_output=True, text=True)


def test_saddle_oracle_script_runs(tmp_path):
    proc = run_python([os.path.join(DEMOS, "saddle_oracle.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cmd, demo", [("run", "synthetic_run"),
                                       ("asymptotics", "smoothing_quality")])
def test_demo_config_runs(tmp_path, cmd, demo):
    proc = run_python(["-m", "sipba.cli", cmd, "--config",
                       os.path.join(DEMOS, demo + ".json"),
                       "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = {"run": "summary.csv", "asymptotics": "saddle_limits.csv"}[cmd]
    assert os.path.getsize(tmp_path / "out" / written) > 0


@pytest.mark.parametrize("demo, section, key", [
    ("schedule_ablation", "ablate", "grid"),
    ("hyper_representation", "compare", "baseline_schedule")])
def test_demo_config_is_valid(demo, section, key):
    cfg, _ = cli.load_config(os.path.join(DEMOS, demo + ".json"))
    cli._check_keys(cfg)
    cli.build_problem(cfg)
    cli.resolve_seeds(cfg)
    cli.build_schedule(cfg)
    overrides = cfg[section][key]
    for row in overrides if isinstance(overrides, list) else [overrides]:
        cli._schedule(cfg, row, "%s.%s" % (section, key))
