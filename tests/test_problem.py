from dataclasses import replace

import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.errors import ContractViolation
from sipba.problem import Ball, BilevelProblem, Box, FullSpace, check_gradients


def sample_sets():
    return [
        FullSpace(3),
        Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0]),
        Box([0.1, -np.inf], [np.inf, 3.0]),
        Ball([1.0, -2.0, 0.5], 2.5),
    ]


def test_projection_examples():
    ball = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    box = Box([0.1, 0.1], [10.0, 10.0])
    np.testing.assert_array_equal(box.project([0.0, 20.0]), [0.1, 10.0])
    full = FullSpace(2)
    np.testing.assert_array_equal(full.project([-7.0, 3.0]), [-7.0, 3.0])


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(7)
    for s in sample_sets():
        for _ in range(1000):
            u = rng.normal(scale=5.0, size=s.dim)
            v = rng.normal(scale=5.0, size=s.dim)
            pu = s.project(u)
            pv = s.project(v)
            # projecting twice changes nothing
            assert np.linalg.norm(s.project(pu) - pu) <= 1e-12
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
            assert s.contains(pu)


def test_contains_boundary_and_outside():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert box.contains([1.0, 0.0])
    assert not box.contains([1.1, 0.0])
    ball = Ball([0.0, 0.0], 2.0)
    assert ball.contains([2.0, 0.0])
    assert not ball.contains([2.1, 0.0])


def test_project_helper_dispatches():
    s = Box([0.0], [1.0])
    assert s.project([4.0]) == pytest.approx(1.0)


def test_set_validation():
    with pytest.raises(ContractViolation):
        Box([1.0], [0.0])
    with pytest.raises(ContractViolation):
        Ball([0.0], 0.0)
    with pytest.raises(ContractViolation):
        Ball([np.inf], 1.0)
    with pytest.raises(ContractViolation):
        FullSpace(0)
    with pytest.raises(ContractViolation):
        FullSpace(3).project([1.0, 2.0])  # wrong shape


def test_box_rejects_nan_bounds_and_keeps_infinite_faces():
    for lo, hi in (([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], 1.0),
                   (np.nan, np.nan)):
        with pytest.raises(ContractViolation, match="NaN"):
            Box(lo, hi)
    # infinite faces stay valid, also a zero-width face at -inf or +inf
    box = Box([-np.inf, -np.inf, np.inf, 0.0], [np.inf, -np.inf, np.inf, np.inf])
    np.testing.assert_array_equal(box.project([0.5, 0.5, 0.5, -1.0]),
                                  [0.5, -np.inf, np.inf, 0.0])


def test_box_broadcasts_scalar_bounds():
    box = Box(0.0, [1.0, 2.0, 3.0])
    assert box.dim == 3
    np.testing.assert_array_equal(box.project([-1.0, 5.0, 2.5]), [0.0, 2.0, 2.5])


def test_problem_validation():
    quad = quadratic_testbed()
    with pytest.raises(ContractViolation):
        replace(quad, mu=0.0, assumption_note=None)
    with pytest.raises(ContractViolation):
        replace(quad, mu=-1.0)
    with pytest.raises(ContractViolation):
        replace(quad, lip_F=0.0)
    with pytest.raises(ContractViolation):
        replace(quad, set_X=FullSpace(2))  # n_x stays 1
    # mu=0 is allowed once the violated assumption is written down
    weak = replace(quad, mu=0.0, assumption_note="upper level only concave")
    assert weak.mu == 0.0


def test_check_gradients_accepts_correct_gradients():
    for prob in (quadratic_testbed(), synthetic_problem(5).problem):
        rep = check_gradients(prob, n_points=10)
        assert max(rep.errors.values()) < 1e-6, str(rep)
    assert set(rep.errors) == {"grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y"}


def test_check_gradients_flags_sign_error():
    # a negated gradient sits at relative error 2 against the difference quotient
    quad = quadratic_testbed()
    bad = replace(quad, grad_F_y=lambda x, y: -quad.grad_F_y(x, y))
    rep = check_gradients(bad, n_points=10)
    assert 1.9 < rep.errors["grad_F_y"] < 2.1
    assert rep.errors["grad_F_x"] < 1e-6
    assert not max(rep.errors.values()) <= 1e-4
    assert "grad_F_y" in str(rep)


def test_check_gradients_default_rng_reproducible():
    quad = quadratic_testbed()
    a = check_gradients(quad, n_points=5)
    b = check_gradients(quad, n_points=5)
    assert a.errors == b.errors
