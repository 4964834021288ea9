"""Equivalence gate: warm-started diagnostics against cold ones.

The diagnostics of `sipba run` thread each snapshot's saddle into the next
(warm start). A warm solve stops at the same oracle tolerance as a cold one
but from another start, so the values differ in their last digits. The gate
bounds those differences on the README's synthetic experiment: n=100, the
README schedule, 3 seeds x 2000 steps, a snapshot every 100 steps, each
compared with a cold snapshot of the same state. The tolerances were fixed
before any candidate was measured; they scale with the oracle tolerance,
which bounds how far either solve can be from the exact saddle.
"""

from dataclasses import replace

import numpy as np
import pytest

from sipba.benchmarks import synthetic_problem
from sipba.diagnostics import snapshot
from sipba.solver import ScheduleParams, initial_state, run

ORACLE_TOL = 1e-8
PHI_REL = 1e-12                   # |d phi| <= PHI_REL * max(1, |phi|)
TRACKING_ABS = ORACLE_TOL         # |d tracking_err|
STAT_ABS = 10.0 * ORACLE_TOL      # |d stat_residual|

README_SCHEDULE = dict(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                       p=0.001, q=0.001, s=0.1)
SEEDS = (0, 1, 2)
STEPS, STRIDE = 2000, 100


def violations(reference, candidate):
    """Every snapshot value of candidate outside the gate, as text."""
    assert len(reference) == len(candidate)
    bad = []
    for i, (r, c) in enumerate(zip(reference, candidate)):
        for name, bound in (("phi", PHI_REL * max(1.0, abs(r.phi))),
                            ("tracking_err", TRACKING_ABS),
                            ("stat_residual", STAT_ABS)):
            d = abs(getattr(c, name) - getattr(r, name))
            if not d <= bound:
                bad.append("snapshot %d: |d %s| = %.3e > %.3e"
                           % (i, name, d, bound))
    return bad


def warm_threaded(problem, sp, states, oracle_tol=ORACLE_TOL):
    """Snapshots as `sipba run` takes them: each warm from the last."""
    out, warm = [], None
    for st in states:
        sn = snapshot(problem, sp, st, oracle_tol, warm=warm)
        out.append(sn)
        warm = sn.saddle
    return out


@pytest.fixture(scope="module")
def runs():
    """(problem, schedule, per seed: the states at each stride, their cold
    snapshots)."""
    sb = synthetic_problem(100)
    sp = ScheduleParams(**README_SCHEDULE)
    out = []
    for seed in SEEDS:
        states = []
        init = initial_state(sb.problem, *sb.sample_init(
            np.random.Generator(np.random.Philox(seed))))
        run(sb.problem, sp, init, STEPS, callback_stride=STRIDE,
            callback=lambda st, elapsed: states.append(st))
        cold = [snapshot(sb.problem, sp, st, ORACLE_TOL) for st in states]
        out.append((states, cold))
    return sb.problem, sp, out


def test_warm_snapshots_pass_the_gate(runs):
    problem, sp, per_seed = runs
    for states, cold in per_seed:
        assert len(states) == STEPS // STRIDE
        warm = warm_threaded(problem, sp, states)
        assert violations(cold, warm) == []
        # the candidate really is warm: one cold estimate, then 4-call ones
        assert [sn.saddle.estimate_calls for sn in warm] == \
            [31] + [4] * (len(states) - 1)
        assert all(sn.saddle.estimate_calls == 31 for sn in cold)


def test_gate_rejects_a_loose_oracle(runs):
    problem, sp, per_seed = runs
    states, cold = per_seed[0]
    assert violations(cold, warm_threaded(problem, sp, states, 1e-3))


def test_gate_rejects_the_parameters_of_the_wrong_step(runs):
    # snapshots at (rho, sigma, alpha) of step k instead of k-1
    problem, sp, per_seed = runs
    states, cold = per_seed[0]
    shifted = [replace(st, k=st.k + 1) for st in states]
    assert violations(cold, warm_threaded(problem, sp, shifted))
