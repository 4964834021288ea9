"""Metric extraction and checks from sample CSVs, and a smoke-size traced run."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SUMMARY = ["runs", "completed", "valid_runs", "target_eps_rel",
           "min_final_eps_rel", "max_final_eps_rel", "mean_time_to_target_s"]


def write(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def run_cfg():
    return {"run": {"max_iter": 2000, "seeds": {"base": 0, "count": 2}}}


def synth_run_outputs(d, finals=("1e-06", "2e-06"), valid=2, k=2000):
    write(d / "summary.csv", SUMMARY,
          [(2, 2, valid, 1e-4, min(finals), max(finals), 0.5)])
    for seed, t in ((7, 1.5), (8, 2.5)):
        write(d / ("run_%d.csv" % seed),
              ["run_id", "k", "time_s", "phi_k", "eps_rel", "tracking_err",
               "stat_residual", "merit"],
              [(seed, k // 2, t / 2, 1, 1, 1, 1, 1),
               (seed, k, t, 1, 1, 1, 1, 1)])


def test_synth_run_metrics_from_sample_csvs(tmp_path):
    synth_run_outputs(tmp_path)
    m, attempted, failed, checks = workloads.extract(
        "synth-run", 0, run_cfg(), 7, str(tmp_path))
    assert (attempted, failed) == (2, 0)
    assert m["stepping_s"] == 4.0
    assert m["steps_per_s"] == 4000 / 4.0
    assert m["time_to_target_s"] == 1.0
    assert m["target_hit_frac"] == 1.0
    assert m["final_eps_rel_max"] == 2e-06
    assert len(checks) == 3


def test_synth_run_checks_fail_on_bad_outputs(tmp_path):
    synth_run_outputs(tmp_path, valid=0)
    with pytest.raises(workloads.CheckFailed, match="reached"):
        workloads.extract("synth-run", 0, run_cfg(), 7, str(tmp_path))
    synth_run_outputs(tmp_path, finals=("2e-4", "3e-4"))
    with pytest.raises(workloads.CheckFailed, match="best final"):
        workloads.extract("synth-run", 0, run_cfg(), 7, str(tmp_path))
    synth_run_outputs(tmp_path, k=1000)
    with pytest.raises(workloads.CheckFailed, match="completed"):
        workloads.extract("synth-run", 0, run_cfg(), 7, str(tmp_path))


def test_synth_ablate_metrics_from_sample_csvs(tmp_path):
    cfg = {"run": {"seeds": {"base": 0, "count": 2}},
           "ablate": {"grid": [{}, {"alpha0": 1.0}]}}
    header = ["row_id", "runs", "valid_runs", "mean_time_to_target_s"]
    write(tmp_path / "ablation.csv", header, [(0, 2, 2, 0.25), (1, 2, 2, 1.0)])
    m, attempted, failed, _ = workloads.extract(
        "synth-ablate", 0, cfg, 0, str(tmp_path))
    assert (attempted, failed) == (4, 0)
    assert m["time_to_target_s"] == m["stepping_s"] == 2.5
    assert m["target_hit_frac"] == 1.0
    write(tmp_path / "ablation.csv", header, [(0, 2, 2, 0.25), (1, 2, 1, 1.0)])
    with pytest.raises(workloads.CheckFailed, match="3/4"):
        workloads.extract("synth-ablate", 0, cfg, 0, str(tmp_path))


def compare_outputs(d, s_loss, b_loss, evals=600):
    write(d / "compare_42.csv", ["method", "run_id", "step", "grad_evals",
                                 "time_s", "metric_name", "metric"],
          [("sipba", 42, 50, 300, 0.5, "test_loss", 50.0),
           ("sipba", 42, 100, evals, 1.0, "test_loss", s_loss),
           ("baseline", 42, 3, 300, 0.5, "test_loss", 60.0),
           ("baseline", 42, 6, 612, 2.0, "test_loss", b_loss)])


def test_hyperrep_metrics_from_sample_csvs(tmp_path):
    cfg = {"compare": {"budget": 600}}
    compare_outputs(tmp_path, 10.0, 10.5)
    m, attempted, failed, checks = workloads.extract(
        "hyperrep-compare", 0, cfg, 42, str(tmp_path), initial_loss=100.0)
    assert (attempted, failed) == (1, 0)
    assert m["grad_evals_per_step"] == 6
    assert m["steps_per_s"] == 100.0
    assert m["stepping_s"] == 3.0
    assert m["baseline_grad_evals_per_s"] == 306.0
    assert (m["sipba_test_loss"], m["baseline_test_loss"]) == (10.0, 10.5)
    assert "criterion 07" in checks[-1]

    compare_outputs(tmp_path, 10.0, 20.0)
    with pytest.raises(workloads.CheckFailed, match="within 10%"):
        workloads.extract("hyperrep-compare", 0, cfg, 42, str(tmp_path),
                          initial_loss=100.0)
    # parity belongs to criterion 07's instance (seed 0) only
    workloads.extract("hyperrep-compare", 1, cfg, 42, str(tmp_path),
                      initial_loss=100.0)
    with pytest.raises(workloads.CheckFailed, match="half"):
        workloads.extract("hyperrep-compare", 1, cfg, 42, str(tmp_path),
                          initial_loss=30.0)
    compare_outputs(tmp_path, 10.0, 10.0, evals=700)
    with pytest.raises(workloads.CheckFailed, match="exactly 6"):
        workloads.extract("hyperrep-compare", 1, cfg, 42, str(tmp_path),
                          initial_loss=100.0)


def test_numeric_cells_skip_time_columns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    compare_outputs(a, 10.0, 10.5)
    compare_outputs(b, 10.0, 10.5)
    text = (b / "compare_42.csv").read_text().replace(",0.5,", ",0.75,")
    (b / "compare_42.csv").write_text(text)
    assert workloads.numeric_cells(str(a)) == workloads.numeric_cells(str(b))
    (b / "compare_42.csv").write_text(text.replace("10.5", "10.50001"))
    assert workloads.numeric_cells(str(a)) != workloads.numeric_cells(str(b))


SMOKE = {
    "run": {"problem": {"kind": "synthetic", "n": 10},
            "schedule": workloads.REF_SCHEDULE,
            "run": {"max_iter": 2000, "seeds": {"base": 1000, "count": 2},
                    "stride": 500, "oracle_tol": 1e-8,
                    "target_eps_rel": 1e-4}},
    "ablate": {"problem": {"kind": "synthetic", "n": 10},
               "schedule": workloads.REF_SCHEDULE,
               "run": {"seeds": {"base": 1000, "count": 1},
                       "target_eps_rel": 1e-4},
               "ablate": {"max_iter": 20000, "grid": [{}, {"alpha0": 1.0}]}},
    "compare": {"problem": {"kind": "hyper_rep", "n_feat": 10, "p_dim": 2,
                            "m1": 20, "m2": 20, "m_test": 50, "noise_a": 0.1,
                            "data_seed": 7},
                "schedule": workloads.HR_SCHEDULE,
                "run": {"max_iter": 500, "seeds": [42], "stride": 100},
                "compare": {"budget": 3000, "inner_tol": 1e-5,
                            "baseline_schedule": {"alpha0": 0.2}}},
}


def cli(tmp_path, command, runner):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMOKE[command]))
    out = tmp_path / runner
    args = [command, "--config", str(cfg_path), "--out", str(out)]
    argv = {
        "plain": [sys.executable, "-m", "sipba.cli"],
        "traced": [sys.executable, os.path.join(BENCH, "traced_cli.py"),
                   "smoke", str(tmp_path / "trace"), "--"],
        "sampled": [sys.executable, os.path.join(BENCH, "sampled_cli.py"),
                    str(tmp_path / "samples.json"), "--"],
    }[runner] + args
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SIPBA_SEED", None)
    subprocess.run(argv, check=True, env=env, stdout=subprocess.DEVNULL,
                   timeout=120)
    return str(out)


@pytest.mark.parametrize("command", ["run", "ablate", "compare"])
def test_traced_and_sampled_smoke_runs_match_plain(tmp_path, command):
    plain = workloads.numeric_cells(cli(tmp_path, command, "plain"))
    assert workloads.numeric_cells(cli(tmp_path, command, "traced")) == plain
    assert workloads.numeric_cells(cli(tmp_path, command, "sampled")) == plain
    with open(tmp_path / "samples.json", encoding="utf-8") as fh:
        samples = json.load(fh)
    assert samples["iterations"] > 0
    assert all(d > 0 for d in samples["samples"])
    assert os.path.getsize(tmp_path / "trace" / "spans.npz") > 0
    with open(tmp_path / "trace" / "layers.json", encoding="utf-8") as fh:
        got = json.load(fh)["metrics"]
    assert set(got) == {name for name, _ in layers.METRICS}
    assert got["benchmarks.grad.calls_per_step"] == 6
    assert got["problem.project.calls_per_step"] == 3
    assert got["solver.step.calls"] > 0
    if command == "compare":
        assert got["cli.baseline.outer_iters"] > 0
        assert got["cli.baseline.inner_iters"] > 0
        assert got["benchmarks.grad.oracle_calls"] > 0
    if command == "ablate":
        assert got["saddle.solve.calls"] == 0
        assert got["diagnostics.relative_error.calls"] >= got["solver.step.calls"]
    if command == "run":
        # two seeds, a callback every 500 of 2000 steps
        assert got["cli.callback.calls"] == 2 * 4
        assert got["saddle.solve.calls"] == got["cli.callback.calls"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-run", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def test_benchmark_json_names_what_the_harness_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_scale_is_nominal_over_measured_speed():
    import reference

    it = 1000
    nominal = reference.NOMINAL_US * 1e-6 * it
    assert reference.scale([nominal], it) == pytest.approx(1.0)
    # twice as slow for half the samples: the mean ratio is 0.75
    assert reference.scale([nominal, 2 * nominal], it) == pytest.approx(0.75)
    assert reference.seconds(10) > 0
