import ast
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from sipba.benchmarks import quadratic_testbed, synthetic_problem
from sipba.errors import ContractViolation
from sipba.problem import (Ball, BilevelProblem, Box, FullSpace,
                           _fd_error, _sample_interior, check_gradients)


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


def test_box_rejects_bounds_of_two_dimensions():
    with pytest.raises(ContractViolation, match="one-dimensional"):
        Box(np.zeros((2, 2)), np.ones((2, 2)))


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
    # the dimensions are the sets': a new set_X is a new n_x, and no
    # record can disagree with its own sets
    wide = replace(quad, set_X=FullSpace(2))
    assert (wide.n_x, wide.n_y) == (2, 1)
    with pytest.raises(ContractViolation, match="n_x and n_y must be >= 1"):
        replace(quad, set_X=Box([], []))
    with pytest.raises(TypeError):
        BilevelProblem(n_x=1, **{f.name: getattr(quad, f.name)
                                 for f in fields(quad)})
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


def test_a_gradient_of_the_wrong_shape_is_a_contract_violation():
    # a length-1 "gradient" of sum(v) at a 3-vector would broadcast against
    # the three difference quotients, all 1, and read as exact
    with pytest.raises(ContractViolation, match=r"g must have shape \(3,\)"):
        _fd_error(lambda v: float(v.sum()), np.array([1.0]), np.zeros(3), 1e-5)
    sy = synthetic_problem(3).problem
    bad = replace(sy, grad_f_y=lambda x, y: sy.grad_f_y(x, y)[:1])
    with pytest.raises(ContractViolation, match=r"got \(1,\)"):
        check_gradients(bad, n_points=2)


def test_check_gradients_default_rng_reproducible():
    quad = quadratic_testbed()
    a = check_gradients(quad, n_points=5)
    b = check_gradients(quad, n_points=5)
    assert a.errors == b.errors


# sets that no benchmark family builds: a box with only upper faces, a box
# with no finite face, and a ball
UPPER_ONLY = Box(-np.inf, [1.0, -2.0, 0.5])
NO_FACE = Box(-np.inf, np.full(3, np.inf))
BALL = Ball([1.0, -2.0, 0.5], 2.5)


def test_sample_interior_draws_inside_user_built_sets():
    # an infinite face leaves a window of width 3 next to the finite face,
    # or [-3, 3] with none; a ball's draws stay within 0.9 of its radius
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = _sample_interior(UPPER_ONLY, rng)
        assert np.all((UPPER_ONLY.upper - 3.0 <= v)
                      & (v <= UPPER_ONLY.upper - 1e-3))
        assert np.all(np.abs(_sample_interior(NO_FACE, rng)) <= 3.0)
        v = _sample_interior(BALL, rng)
        assert np.linalg.norm(v - BALL.center) <= 0.9 * BALL.radius


A = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.4], [0.0, 0.7, 2.0]])


def _quadratic_over(set_X, set_Y):
    # F = x.x/2 + x.(A y) - y.y and f = ||y - A x||^2
    return BilevelProblem(
        F=lambda x, y: 0.5 * x.dot(x) + x.dot(A @ y) - y.dot(y),
        f=lambda x, y: (y - A @ x).dot(y - A @ x),
        grad_F_x=lambda x, y: x + A @ y,
        grad_F_y=lambda x, y: A.T @ x - 2.0 * y,
        grad_f_x=lambda x, y: -2.0 * A.T @ (y - A @ x),
        grad_f_y=lambda x, y: 2.0 * (y - A @ x),
        set_X=set_X, set_Y=set_Y, mu=2.0, lip_F=10.0, lip_f=10.0)


@pytest.mark.parametrize("set_X", [UPPER_ONLY, NO_FACE],
                         ids=["upper-only", "no-face"])
def test_check_gradients_samples_user_built_sets(set_X):
    # below gradcheck's threshold of 1e-4
    rep = check_gradients(_quadratic_over(set_X, BALL), n_points=10)
    assert max(rep.errors.values()) < 1e-4, str(rep)


PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "sipba")
NUMPY_DOTS = {"np.linalg.norm", "np.vecdot", "np.dot"}


def _dotted(node):
    """'np.linalg.norm' for that attribute chain; None for other nodes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def stray_norms_and_dots(package):
    """'module.py:line: spelling' for each vector norm or dot a module other
    than problem.py takes itself: a reference to np.linalg.norm, np.vecdot
    or np.dot (numpy imported as np or numpy), or math.sqrt of a .dot()."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "problem.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            spelling = _dotted(node)
            if spelling and spelling.replace("numpy.", "np.", 1) in NUMPY_DOTS:
                found.append("%s:%d: %s" % (name, node.lineno, spelling))
            elif (isinstance(node, ast.Call)
                  and _dotted(node.func) == "math.sqrt" and node.args
                  and isinstance(node.args[0], ast.Call)
                  and isinstance(node.args[0].func, ast.Attribute)
                  and node.args[0].func.attr == "dot"):
                found.append("%s:%d: math.sqrt of a .dot()"
                             % (name, node.lineno))
    return found


def test_problem_is_the_one_home_of_the_norm_and_the_vector_dot():
    # every other module takes a norm or a vector dot through problem._norm
    # and problem._dot, so one place decides how a row matches its serial
    # call and a vector's norm matches np.linalg.norm; _Split's
    # matrix-vector products are ndarray.dot calls and stay
    assert stray_norms_and_dots(PACKAGE) == []


# the functions outside smoothing.py that may name each direction: the two
# half-steps of SiPBA's update, and grad_phi, direction_x at the saddle
DIRECTION_HOMES = {
    "direction_y": {"saddle._step_yz"},
    "direction_z": {"saddle._step_yz"},
    "direction_x": {"solver._step_x", "saddle.grad_phi"},
}


def stray_directions(package):
    """'module.py:line: module.function: direction' for each reference to a
    direction (a call, or the function passed on) that a module other than
    smoothing.py makes outside that direction's homes; the function is the
    innermost def around it, the module itself at top level."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "smoothing.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, "%s.%s" % (name[:-3], child.name))
                    continue
                spelling = _dotted(child)
                direction = spelling and spelling.rsplit(".", 1)[-1]
                if (direction in DIRECTION_HOMES
                        and where not in DIRECTION_HOMES[direction]):
                    found.append("%s:%d: %s: %s"
                                 % (name, child.lineno, where, direction))
                visit(child, where)

        visit(tree, name[:-3])
    return found


def test_each_half_step_of_the_update_is_written_once():
    # saddle._step_yz is SiPBA's (y, z) step, which the oracle iterates;
    # solver._step_x its x step, which the double-loop baseline and the
    # snapshot's stationarity residual take at a saddle. No other function
    # writes either half out again from the directions
    assert stray_directions(PACKAGE) == []
