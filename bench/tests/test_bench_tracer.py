"""Tracer arithmetic, wrapper restore and re-raise."""

import types

import numpy as np
import pytest

from layers import Recorder, install
from tracer import Tracer, self_times, within


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert within(parent, np.array([False, True, False, False])).tolist() == \
        [False, False, True, False]
    assert within(parent, np.array([True, False, False, False])).tolist() == \
        [False, True, True, True]


def test_wrapped_calls_record_parents_and_self_time():
    tr = Tracer("t")

    def leaf():
        return sum(range(1000))

    leaf_t = tr.wrap(leaf, "leaf")

    def mid():
        return leaf_t() + leaf_t()

    mid_t = tr.wrap(mid, "mid")
    root_t = tr.wrap(lambda: mid_t() + leaf_t(), "root")
    assert root_t() == 3 * sum(range(1000))

    sp = tr.spans()
    names = [tr.names[i] for i in sp["name_id"]]
    assert names == ["root", "mid", "leaf", "leaf", "leaf"]
    assert sp["parent"].tolist() == [-1, 0, 1, 1, 0]
    own = self_times(sp["parent"], sp["start"], sp["end"])
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(sp["end"][0] - sp["start"][0])
    assert tr._stack == [-1]


def test_patch_everywhere_and_restore():
    def fn(x):
        return x + 1

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.fn, a.alias, b.fn, b.other = fn, fn, fn, len
    tr = Tracer("t")
    assert tr.patch_everywhere(fn, "fn", (a, b)) == 3
    assert a.fn is a.alias is b.fn is not fn
    assert a.fn(1) == 2
    tr.restore()
    assert a.fn is fn and a.alias is fn and b.fn is fn and b.other is len
    assert len(tr.end) == 1


def test_error_hook_sees_the_error_and_it_is_reraised():
    class Boom(RuntimeError):
        pass

    seen = []
    tr = Tracer("t")

    def fail():
        raise Boom("no")

    wrapped = tr.wrap(fail, "fail", on_error=seen.append, errors=(Boom,))
    with pytest.raises(Boom, match="no"):
        wrapped()
    assert len(seen) == 1 and isinstance(seen[0], Boom)
    assert tr.end[0] >= tr.start[0] > 0
    assert tr._stack == [-1]

    other = tr.wrap(lambda: 1 / 0, "div")
    with pytest.raises(ZeroDivisionError):
        other()
    assert tr._stack == [-1]


def _package_attributes():
    from sipba import (benchmarks, cli, diagnostics, problem, saddle,
                       smoothing, solver)

    snap = {}
    for mod in (cli, solver, smoothing, saddle, diagnostics, problem,
                benchmarks):
        for k, v in vars(mod).items():
            snap[(mod.__name__, k)] = v
    for cls in (problem.FullSpace, problem.Box, problem.Ball):
        snap[(cls.__name__, "project")] = cls.__dict__["project"]
    return snap


def test_install_restores_every_package_attribute():
    before = _package_attributes()
    tr = Tracer("t")
    install(tr, Recorder())
    assert _package_attributes() != before
    tr.restore()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_oracle_failure_is_recorded_and_reraised():
    from sipba import PenaltyReg, quadratic_testbed, saddle
    from sipba.errors import SaddleConvergenceError

    tr = Tracer("t")
    rec = Recorder()
    install(tr, rec)
    try:
        with pytest.raises(SaddleConvergenceError):
            saddle.solve_saddle(quadratic_testbed(), PenaltyReg(1.0, 0.1),
                                np.array([0.5]), tol=1e-30, max_iter=3)
    finally:
        tr.restore()
    assert rec.failures == 1
    assert rec.solve_iters == [3] and rec.solve_converged == [False]
